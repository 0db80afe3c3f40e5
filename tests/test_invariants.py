import itertools
import random
from fractions import Fraction

import pytest

from blinfty import assembly, fixtures, invariants
from blinfty import io as bio
from blinfty.assembly import apply_coderivation, apply_inner_coderivation
from blinfty.errors import (InconclusiveError, NotNilpotentError,
                            PlanarityNotOneError, StructureError)
from blinfty.ibl import torsion_grid
from blinfty.invariants import (TorsionAnswer, default_schedule, order_O,
                                order_O_tilde, order_functoriality_check,
                                order_multi, order_multi_tilde, planarity,
                                project_width, sd_order, torsion,
                                torsion_monotone_check,
                                verify_torsion_certificate, width,
                                apply_multi_pointed_linearized,
                                _apply_inner_morphism, _multi_linearized,
                                _sd_search, verify_sd_certificate)
from blinfty.structures import (Augmentation, BLAlgebra, BLMorphism, Bounds,
                                OperationTable, PointedMap, UModule,
                                apply_hat_p, check_compatibility,
                                check_pointed, check_structure,
                                ell_table, is_augmentation, linearize,
                                linearize_pointed,
                                identity_table, zero_table,
                                word_to_singletons, _split_words)
from blinfty.words import (EElement, EWord, Element, Generator, GradedSpace,
                           UNIT_EWORD, UNIT_WORD, Word, enumerate_basis)

from util import (algebra, bubble_normalize, closed_complex,
                  dense_rank, dense_sd_matrices, dense_solve_linear, eword,
                  eword_parity, one_letter_structure, oracle_check_pointed,
                  oracle_hat_phi, oracle_inner, oracle_is_augmentation,
                  oracle_order_O, oracle_order_kind, oracle_sd_certificate,
                  oracle_sd_order, oracle_torsion, random_space, random_table,
                  space, table, word)

B2 = Bounds(2, word_bound=2)
B3 = Bounds(3, word_bound=3)
B4 = Bounds(4, word_bound=4)


# ---- bar complexes ----------------------------------------------------------

def _EkV(alg, k, bounds):
    """The outer bar complex of at most k clusters, units allowed: its
    window and its closed_complex columns under p-hat."""
    basis = enumerate_basis(alg.space, bounds.max_letters, bounds.max_action,
                            outer_components=k, allow_units=True)
    return basis, closed_complex(
        basis, lambda ew: apply_hat_p(alg, EElement.monomial(ew)),
        lambda ew: eword_parity(alg.space, ew))


def _BBk(ell, k, bounds):
    """The inner bar complex of words of length 1..k: its window and its
    closed_complex columns under the linearized bar differential."""
    basis = _split_words(ell.space, bounds, k)
    return basis, closed_complex(
        basis, lambda w: apply_inner_coderivation(ell, Element.monomial(w)),
        lambda w: ell.space.word_parity(w.letters))


def test_E1V_of_planar_fixture_is_zero_complex():
    alg = fixtures.planar_torsion_one()
    basis, columns = _EkV(alg, 1, Bounds(2))
    # frozen: {1, q1, q2, q1*q2, q2*q2}; q1*q1 vanishes (odd letter)
    assert len(basis) == 5
    assert all(not col for col in columns)


def test_E2V_of_planar_fixture_hits_unit():
    alg = fixtures.planar_torsion_one()
    basis, columns = _EkV(alg, 2, Bounds(2))
    idx = {ew: i for i, ew in enumerate(basis)}
    j = idx[eword(alg.space, ("q1",), ("q2",))]
    assert columns[j] == {idx[UNIT_EWORD]: Fraction(1)}


def test_EkV_d_squared_zero_on_corpus():
    built = 0
    for name, (alg, _, _) in fixtures.corpus().items():
        try:
            _EkV(alg, 2, Bounds(3))  # asserts parity and d*d = 0
        except AssertionError as err:
            # letter-raising cells may escape any fixed window
            assert "outside the window" in str(err) and \
                name == "linearizable", (name, err)
            continue
        built += 1
    assert built >= 7


def test_unit_is_closed_in_EkV():
    for name, (alg, _, _) in fixtures.corpus().items():
        if name == "linearizable":
            continue
        basis, columns = _EkV(alg, 2, Bounds(3))
        assert not columns[basis.index(UNIT_EWORD)]


def test_EkV_window_leak_reported():
    alg = fixtures.linearizable()
    with pytest.raises(AssertionError, match="outside the window"):
        _EkV(alg, 2, Bounds(3))


def test_BBk_window_leak_reported():
    # d x = q raises action from 1 to 3, past the max_action=2 window
    sp = space(("x", 0, 1), ("q", 1, 3))
    ell = table(sp, 1, [(1, 1, ("x",), [(1, ("q",))])])
    with pytest.raises(AssertionError, match="outside the window"):
        _BBk(ell, 1, Bounds(2, max_action=2))
    assert len(_BBk(ell, 1, Bounds(2))[0]) == 2


# ---- torsion ----------------------------------------------------------------

def test_torsion_planar_fixture_exactly_one():
    alg = fixtures.planar_torsion_one()
    ans = torsion(alg, default_schedule(3, Bounds(2, max_action=2)))
    assert ans.kind == "exact" and ans.level == 1
    assert verify_torsion_certificate(alg, ans)
    assert ans.certificate == EElement.monomial(
        eword(alg.space, ("q1",), ("q2",)))


def test_torsion_zero_fixture():
    alg = fixtures.torsion_zero()
    ans = torsion(alg, default_schedule(2, Bounds(2)))
    assert ans.kind == "exact" and ans.level == 0
    assert verify_torsion_certificate(alg, ans)


def test_torsion_ladder_rungs_are_exact():
    # rung n: one n-input constant on n generators, torsion exactly n - 1
    rung, t0 = fixtures.torsion_ladder(1), fixtures.torsion_zero()
    assert rung.table == t0.table and rung.table.action_drop
    assert [(g.parity, g.action) for g in rung.space.generators] == \
        [(g.parity, g.action) for g in t0.space.generators]
    for n in range(1, 5):
        alg = fixtures.torsion_ladder(n)
        ans = torsion(alg, default_schedule(n + 1, Bounds(n + 1)))
        assert (ans.kind, ans.level) == ("exact", n - 1)
        assert verify_torsion_certificate(alg, ans)
    with pytest.raises(ValueError):
        fixtures.torsion_ladder(0)


def test_disjoint_union_keeps_both_components_apart():
    a, b = fixtures.torsion_ladder(2), fixtures.mixed_no_aug()
    union = fixtures.disjoint_union(a, b)
    assert [g.name for g in union.space.generators] == [
        "a_q1", "a_q2", "b_a", "b_b"]
    assert [(g.parity, g.action) for g in union.space.generators] == [
        (g.parity, g.action)
        for g in a.space.generators + b.space.generators]
    # every op reads and writes the letters of one component only
    entries = union.table.sorted_entries()
    assert len(entries) == len(a.table.sorted_entries()) + len(
        b.table.sorted_entries())
    for _, _, _, w, elem in entries:
        letters = set(w.letters).union(*(o.letters for o in elem.terms))
        assert letters <= {0, 1} or letters <= {2, 3}
    assert check_structure(union, B3).ok


@pytest.mark.parametrize("i, j", [(1, 2), (2, 2), (2, 3), (1, 3), (3, 3)])
def test_torsion_of_a_disjoint_union_is_the_min(i, j):
    # the hierarchy functor takes a disjoint union to the min of torsions:
    # rungs i and j side by side have torsion exactly min(i, j) - 1
    L = max(i, j) + 1
    union = fixtures.disjoint_union(fixtures.torsion_ladder(i),
                                    fixtures.torsion_ladder(j))
    ans = torsion(union, default_schedule(L, Bounds(L)))
    assert (ans.kind, ans.level) == ("exact", min(i, j) - 1)
    assert verify_torsion_certificate(union, ans)


@pytest.mark.parametrize("n", [5, 6])
def test_torsion_ladder_five_under_one_gib(n):
    # rung 5's found level is 1 x 21,313 with few nonzero columns; solving
    # over every column built a dense kernel that ran out of this address
    # space.  Rung 6 (a window of 115,262 words) is one more rung of the
    # ladder, torsion exactly n - 1
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(invariants.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "from blinfty import fixtures\n"
         "from blinfty.invariants import default_schedule, torsion\n"
         "from blinfty.structures import Bounds\n"
         "ans = torsion(fixtures.torsion_ladder(%d),\n"
         "              default_schedule(6, Bounds(6)))\n"
         "print(ans.kind, ans.level)\n" % n],
        capture_output=True, text=True, env=env, preexec_fn=cap,
        timeout=300)
    assert proc.stdout.split() == ["exact", str(n - 1)], proc.stderr[-500:]


def test_torsion_zero_structure_not_found():
    alg = fixtures.zero_structure()
    for k in (1, 2, 3):
        ans = torsion(alg, default_schedule(k, Bounds(2)))
        assert ans.kind == "not-found"


def test_torsion_monotone_in_bounds():
    alg = fixtures.planar_torsion_one()
    small = torsion(alg, default_schedule(2, Bounds(2)))
    large = torsion(alg, default_schedule(4, Bounds(4)))
    assert small.found() and large.found()
    assert large.level <= small.level


def test_torsion_certificate_transport():
    alg = fixtures.planar_torsion_one()
    ans = torsion(alg, default_schedule(2, Bounds(2)))
    phi = fixtures.identity_morphism(alg)
    report = torsion_monotone_check(phi, ans, Bounds(2))
    assert report["transported"] and report["monotone"]
    assert report["target_level_bound"] == ans.level


def test_torsion_transport_nontrivial_morphism():
    # rescaling morphism q1 -> 2 q1 still certifies level 1
    alg = fixtures.planar_torsion_one()
    sp = alg.space
    tab = table(sp, 0, [(1, 1, ("q1",), [(2, ("q1",))]),
                        (1, 1, ("q2",), [(Fraction(1, 2), ("q2",))])])
    phi = BLMorphism(alg, alg, tab)
    from blinfty.structures import check_morphism
    assert check_morphism(phi, Bounds(3)).ok
    ans = torsion(alg, default_schedule(2, Bounds(2)))
    report = torsion_monotone_check(phi, ans, Bounds(2))
    assert report["transported"] and report["monotone"]


def test_torsion_rechecks_structure_checked_at_other_bounds():
    alg = one_letter_structure()
    assert check_structure(alg, Bounds(1)).ok
    with pytest.raises(StructureError):
        torsion(alg, default_schedule(3, Bounds(3)))


# ---- orders -----------------------------------------------------------------

def test_order_pointed_one():
    alg, pmap = fixtures.pointed_one()
    eps = fixtures.zero_aug(alg)
    ans = order_O(eps, pmap, B3)
    assert ans.kind == "exact" and ans.level == 1
    assert ans.certificate == Element.monomial(word(alg.space, "g"))


def test_order_pointed_two_is_two():
    alg, pmap = fixtures.pointed_two()
    eps = fixtures.zero_aug(alg)
    ans = order_O(eps, pmap, B3)
    assert ans.kind == "exact" and ans.level == 2
    # brute-force oracle: no chain of <= 1 letters maps to 1, ab does
    lpt = linearize_pointed(pmap, eps, B3)
    for w in enumerate_basis(alg.space, 1):
        if len(w) == 1:
            assert not lpt.query(1, w)


def test_order_ladder_rungs_are_exact():
    # rung n: the n-letter functional on n even generators over the zero
    # structure, order exactly n.  Its augmentation and pointed map verify
    # by the split-word checks and by the full-window oracles alike
    for n, (_, pmap) in ((1, fixtures.pointed_one()),
                         (2, fixtures.pointed_two())):
        assert fixtures.order_ladder(n)[1].table == pmap.table
    for n in range(1, 5):
        alg, pmap = fixtures.order_ladder(n)
        eps = fixtures.zero_aug(alg)
        bounds = Bounds(n, word_bound=n)
        assert is_augmentation(eps, bounds).ok
        assert oracle_is_augmentation(eps, alg, bounds)
        assert check_pointed(pmap, bounds).ok
        assert oracle_check_pointed(pmap, alg, bounds)
        ans = order_O(eps, pmap, bounds)
        assert (ans.kind, ans.level) == ("exact", n)
    with pytest.raises(ValueError):
        fixtures.order_ladder(0)


def test_order_zero_functional_not_found():
    alg, _ = fixtures.pointed_one()
    pz = PointedMap(alg, zero_table(alg.space, parity=0))
    eps = fixtures.zero_aug(alg)
    ans = order_O(eps, pz, B3)
    assert ans.kind == "not-found"


def test_order_solves_no_level_above_max_letters(monkeypatch):
    # no order's window grows above max_letters, so a larger word_bound
    # adds no level to solve
    sizes = []
    solve = invariants._solve

    def recorded(basis, columns, target):
        sizes.append(len(basis))
        return solve(basis, columns, target)
    monkeypatch.setattr(invariants, "_solve", recorded)
    alg, _ = fixtures.pointed_two()
    pz = PointedMap(alg, zero_table(alg.space, parity=0))
    ans = order_O(fixtures.zero_aug(alg), pz, Bounds(2, word_bound=6))
    assert ans.kind == "not-found"
    assert sizes == [2, 5]


def test_order_tilde_pointed_fixtures():
    for fix, expect in ((fixtures.pointed_one, 1), (fixtures.pointed_two, 2)):
        alg, pmap = fix()
        eps = fixtures.zero_aug(alg)
        ans = order_O_tilde(eps, pmap, B3)
        assert ans.found() and ans.level == expect


def test_order_le_tilde_on_fixtures():
    for fix in (fixtures.pointed_one, fixtures.pointed_two):
        alg, pmap = fix()
        eps = fixtures.zero_aug(alg)
        o = order_O(eps, pmap, B3)
        ot = order_O_tilde(eps, pmap, B3)
        assert o.found() and ot.found()
        assert o.level <= ot.level


def test_order_depends_on_augmentation():
    # p = 0 on two even generators; the pointed cell a -> b only reaches the
    # constant functional through the augmentation correction eps(b)
    sp = space(("a", 0), ("b", 0))
    alg = BLAlgebra(sp, zero_table(sp))
    pmap = PointedMap(alg, table(sp, 0, [(1, 1, ("a",), [(1, ("b",))])]))
    from blinfty.structures import check_pointed
    assert check_pointed(pmap, B3).ok
    eps0 = fixtures.zero_aug(alg)
    assert order_O(eps0, pmap, B3).kind == "not-found"
    eps1 = fixtures.rich_even_aug(alg, [(("b",), 1)])
    ans = order_O(eps1, pmap, B3)
    assert ans.found() and ans.level == 1
    lpt = linearize_pointed(pmap, eps1, B3)
    assert lpt.query(1, word(sp, "a")).terms.get(UNIT_WORD) == 1


# ---- multi-point orders ------------------------------------------------------

def test_order_multi_reduces_to_single():
    alg, pmap = fixtures.pointed_two()
    eps = fixtures.zero_aug(alg)
    fam = {frozenset({1}): pmap.table}
    a1 = order_multi(eps, fam, 1, B3)
    a0 = order_O(eps, pmap, B3)
    assert a1.found() and a0.found() and a1.level == a0.level


def test_order_multi_two_points_disconnected():
    alg, pmap = fixtures.pointed_one()
    eps = fixtures.zero_aug(alg)
    fam = {frozenset({1}): pmap.table,
           frozenset({2}): pmap.table,
           frozenset({1, 2}): zero_table(alg.space, parity=0)}
    ans = order_multi(eps, fam, 2, B3)
    assert ans.found() and ans.level == 1
    # the certificate lives on the two-letter cluster g*g
    gg = eword(alg.space, ("g", "g"))
    assert ans.certificate.terms.get(gg) == Fraction(1, 2)


def test_order_multi_le_tilde():
    alg, pmap = fixtures.pointed_one()
    eps = fixtures.zero_aug(alg)
    fam = {frozenset({1}): pmap.table,
           frozenset({2}): pmap.table,
           frozenset({1, 2}): zero_table(alg.space, parity=0)}
    o = order_multi(eps, fam, 2, B3)
    ot = order_multi_tilde(eps, fam, 2, B3)
    assert o.found() and ot.found()
    assert o.level <= ot.level


# ---- order kinds --------------------------------------------------------------

def _random_order_case(rng):
    """Even and odd generators with actions, a linear differential d(e) =
    c o from even to odd letters on disjoint pairs (action kept, so every
    bar window is closed), and three pointed tables of constant cells on
    even words of 1..3 letters, one on the first letter d moves if any: a
    cell on a word that is not a cycle leaves its level unsolved but not
    structurally closed."""
    n = rng.randint(2, 4)
    parities = [rng.randrange(2) for _ in range(n)]
    actions = [rng.randint(1, 3) for _ in range(n)]
    order = rng.sample(range(n), n)
    pairs = []
    while len(order) >= 2:
        i, j = order.pop(), order.pop()
        if parities[i] != parities[j] and rng.random() < 0.8:
            i, j = (i, j) if parities[j] else (j, i)
            actions[j] = actions[i]
            pairs.append((i, j))
    sp = GradedSpace([Generator("g%d" % i, parities[i], action=actions[i])
                      for i in range(n)])
    alg = BLAlgebra(sp, OperationTable(sp, 1, [
        (1, 1, Word((i,)), Element.monomial(Word((j,)), rng.randint(1, 3)))
        for i, j in pairs]))
    even = [w for w in enumerate_basis(sp, 3)[1:]
            if not sp.word_parity(w.letters)]
    sources = [Word((i,)) for i, _ in pairs]
    tables = [OperationTable(sp, 0, [
        (len(w), 0, w, Element.monomial(UNIT_WORD, rng.choice((-2, 1, 3))))
        for w in dict.fromkeys(
            sources[:1] + rng.sample(even, min(len(even), rng.randint(1, 2))))
    ]) for _ in range(3)]
    family = dict(zip(map(frozenset, ({1}, {2}, {1, 2})), tables))
    bounds = [Bounds(3), Bounds(3, max_action=rng.randint(2, 6)),
              Bounds(3, max_action=9)]
    return alg, [fixtures.zero_aug(alg)], PointedMap(alg, tables[0]), \
        family, bounds


def _order_kind_cases(rng):
    for _, (alg, augs, pmap) in sorted(fixtures.corpus().items()):
        if pmap is not None:
            yield alg, augs, pmap, None, [B2, B3, Bounds(3, word_bound=2),
                                          Bounds(1, word_bound=3)]
    for n in range(1, 5):
        alg, pmap = fixtures.order_ladder(n)
        yield alg, [fixtures.zero_aug(alg)], pmap, None, [
            Bounds(n, word_bound=n), Bounds(n + 1)]
    for _ in range(40):
        yield _random_order_case(rng)


def test_order_kinds_match_answer_semantics_oracle():
    # the kind of every found order against the rule written out from the
    # answer semantics: the fixtures, the order ladders and random constant
    # pointed tables over linear differentials, with and without an action
    # bound; a multi-point family without its own tables repeats pmap's
    seen = set()
    for alg, augs, pmap, family, bounds_list in _order_kind_cases(
            random.Random(4242)):
        if family is None:
            family = {S: pmap.table
                      for S in map(frozenset, ({1}, {2}, {1, 2}))}
        for bounds, eps in itertools.product(bounds_list, augs):
            lpt = linearize_pointed(pmap, eps, bounds)
            for order in (order_O, order_O_tilde):
                ans = order(eps, pmap, bounds)
                if ans.found():
                    assert ans.kind == oracle_order_kind(
                        order, lpt, bounds, ans.level), (order, ans, bounds)
                seen.add((order.__name__, ans.kind, ans.level == 1))
            for order in (order_multi, order_multi_tilde):
                ans = order(eps, family, 2, bounds)
                if ans.found():
                    assert ans.kind == oracle_order_kind(
                        order, None, bounds, ans.level), (order, ans, bounds)
                seen.add((order.__name__, ans.kind, ans.level == 1))
    for name in ("order_O", "order_O_tilde", "order_multi",
                 "order_multi_tilde"):
        assert {(name, "exact", True), (name, "at-most", False),
                (name, "not-found", False)} <= seen, name
    assert ("order_O", "exact", False) in seen
    assert ("order_O_tilde", "exact", False) in seen


def _leaking_order_case():
    """d x = q raises action from 1 to 3, past max_action 2, so the level-1
    window leaks; the zero augmentation and P(x) = 1."""
    sp = space(("x", 0, 1), ("q", 1, 3))
    alg = algebra(sp, [(1, 1, ("x",), [(1, ("q",))])])
    pmap = PointedMap(alg, table(sp, 0, [(1, 0, ("x",), [(1, ())])]))
    return fixtures.zero_aug(alg), pmap, Bounds(2, max_action=2)


def test_order_O_on_a_leaking_window_is_not_found():
    # a term outside the window is one more equation of the level's
    # system, so the search answers as torsion does on the same algebra
    eps, pmap, bounds = _leaking_order_case()
    ans = order_O(eps, pmap, bounds)
    assert (ans.kind, ans.level, ans.bounds) == ("not-found", None, bounds)
    assert torsion(eps.source, default_schedule(2, bounds)).kind == \
        "not-found"


def _random_pointed_case(rng):
    """A random structure over 1..3 generators, with actions and an action
    bound in half the cases, its zero augmentation and a random pointed
    table; None unless all three pass the checks the CLI runs."""
    with_action = rng.random() < 0.5
    sp = space(*[("g%d" % i, rng.randrange(2))
                 + ((rng.randint(1, 3),) if with_action else ())
                 for i in range(rng.randint(1, 3))])
    alg = BLAlgebra(sp, random_table(rng, sp, max_k=2, max_l=2,
                                     n_entries=rng.randint(1, 3)))
    pmap = PointedMap(alg, random_table(rng, sp, parity=0, max_k=2, max_l=1,
                                        n_entries=rng.randint(1, 3)))
    eps = fixtures.zero_aug(alg)
    bounds = Bounds(rng.randint(1, 3), max_action=(
        rng.randint(1, 4) if with_action else None))
    if not (check_structure(alg, bounds).ok
            and is_augmentation(eps, bounds).ok
            and check_pointed(pmap, bounds).ok):
        return None
    return eps, pmap, bounds


def test_order_O_matches_its_definition(monkeypatch):
    # kind, level, certificate and bounds of order_O against the search
    # written out from its definition, over seeded pointed tables that pass
    # the CLI's checks and the leaking case; every level the search builds
    # without an action bound is also a closed complex
    searched = []
    level_of = invariants._level

    def logged_level(window, image):
        level = level_of(window, image)

        def logged(k, bounds):
            basis, columns = level(k, bounds)
            searched.append((bounds, basis))
            return basis, columns
        return logged

    monkeypatch.setattr(invariants, "_level", logged_level)
    rng = random.Random(2727)
    cases = [_leaking_order_case()]
    while len(cases) < 80:
        case = _random_pointed_case(rng)
        if case is not None:
            cases.append(case)
    kinds, leaks = [], 0
    for eps, pmap, bounds in cases:
        searched.clear()
        ans = order_O(eps, pmap, bounds)
        ell = ell_table(linearize(eps, bounds))
        lpt = linearize_pointed(pmap, eps, bounds)
        assert (ans.kind, ans.level, ans.certificate, ans.bounds) == \
            oracle_order_O(ell, lpt, bounds), (
                pmap.table.sorted_entries(), bounds)
        kinds.append(ans.kind)
        for b, basis in searched:
            image = lambda w: oracle_inner(ell.space, ell, w)
            if b.max_action is None:
                closed_complex(basis, image,
                               lambda w: ell.space.word_parity(w.letters))
            else:
                leaks += any(key not in basis
                             for w in basis for key in image(w).terms)
    assert kinds.count("exact") + kinds.count("at-most") >= 5, kinds
    assert kinds.count("not-found") >= 3, kinds
    assert leaks >= 1


def test_width_monotonicity_on_fixtures():
    for name, (alg, augs, _) in fixtures.corpus().items():
        for eps in augs:
            lin = linearize(eps, B3)
            for ew in enumerate_basis(alg.space, 3, outer_components=2,
                                      allow_units=False):
                out = apply_coderivation(lin, EElement.monomial(ew))
                for ew2 in out.terms:
                    assert width(ew2) >= width(ew), (name, ew, ew2)


def test_width_projection_idempotent_rule():
    # pi_m o p_eps o pi_m = pi_m o p_eps on the width-m window
    alg = fixtures.linearizable()
    eps = fixtures.linearizable_aug(alg, 1)
    lin = linearize(eps, B3)
    m = 1
    for ew in enumerate_basis(alg.space, 3, outer_components=2,
                              allow_units=False):
        x = EElement.monomial(ew)
        lhs = project_width(
            apply_coderivation(lin, project_width(x, m)), m)
        rhs = project_width(apply_coderivation(lin, x), m)
        assert (not project_width(x, m)) or lhs == rhs


def test_pointed_eps_respects_unit_splitting():
    # the linearized pointed operator ignores pure units and unit factors
    alg, pmap = fixtures.pointed_one()
    eps = fixtures.zero_aug(alg)
    lpt = linearize_pointed(pmap, eps, B3)
    sp = alg.space
    units = EElement.monomial(EWord((UNIT_WORD, UNIT_WORD)))
    assert not apply_coderivation(lpt, units)
    a = EElement.monomial(eword(sp, ("g",)))
    a1 = EElement.monomial(eword(sp, ("g",), ()))
    lhs = apply_coderivation(lpt, a1)
    rhs = apply_coderivation(lpt, a)
    # appending a unit cluster to the result matches acting before appending
    appended = EElement({EWord(tuple(sorted(ew.clusters + (UNIT_WORD,),
                                            key=lambda c: c.key())),
                               ew.hbar): c for ew, c in rhs.terms.items()})
    assert lhs == appended


# ---- functoriality -----------------------------------------------------------

def _compatible_identity_fixture():
    alg, pmap = fixtures.pointed_two()
    phi = fixtures.identity_morphism(alg)
    eps = fixtures.zero_aug(alg)
    return alg, phi, pmap, eps


def test_order_functoriality_identity():
    alg, phi, pmap, eps = _compatible_identity_fixture()
    report = order_functoriality_check(phi, pmap, pmap, eps, B3)
    assert report["holds"]
    assert report["functional_value"] == 1


def test_order_functoriality_rescaled_morphism():
    # phi = scaling on an all-even space; pointed maps conjugate exactly
    sp = space(("a", 0), ("b", 0))
    alg = BLAlgebra(sp, zero_table(sp))
    phi_tab = table(sp, 0, [(1, 1, ("a",), [(2, ("a",))]),
                            (1, 1, ("b",), [(3, ("b",))])])
    phi = BLMorphism(alg, alg, phi_tab)
    q_tab = table(sp, 0, [(2, 0, ("a", "b"), [(1, ())])])
    q = PointedMap(alg, q_tab)
    # p = phi^* q: p(ab) = q(phi a * phi b) = 6
    p_tab = table(sp, 0, [(2, 0, ("a", "b"), [(6, ())])])
    p = PointedMap(alg, p_tab)
    from blinfty.structures import check_compatibility
    assert check_compatibility(phi, p, q, zero_table(sp, parity=1), B3).ok
    eps = fixtures.zero_aug(alg)
    report = order_functoriality_check(phi, p, q, eps, B3)
    assert report["holds"]


def test_inner_morphism_matches_flattened_oracle():
    # the bar-complex morphism is the morphism oracle on split words with
    # every output term flattened into one word
    rng = random.Random(41)
    tables = 0
    while tables < 40:
        sp = random_space(rng, n=rng.choice((2, 3)))
        if not any(sp.parities):
            continue
        tab = random_table(rng, sp, parity=0, n_entries=4, max_k=3, max_l=2)
        words = [w for w in enumerate_basis(sp, 4) if len(w) >= 1]
        total = Element()
        for w in words:
            want = {}
            for ew, c in oracle_hat_phi(sp, sp, tab,
                                        word_to_singletons(w)).terms.items():
                letters, sign = bubble_normalize(
                    sp, [l for cl in ew.clusters for l in cl.letters])
                if sign:
                    key = Word(tuple(letters))
                    want[key] = want.get(key, 0) + c * sign
            got = _apply_inner_morphism(tab, Element.monomial(w))
            assert got == Element(want), (sp.parities, w)
            total = total + got
        assert _apply_inner_morphism(
            tab, Element({w: 1 for w in words})) == total
        tables += 1


# ---- semi-dilation ------------------------------------------------------------

def _sd_setup(u_cols, f_vals, d_cols=(), n=2, parities=None):
    sp = GradedSpace([fixtures.Generator("v%d" % i, (parities or [0] * n)[i])
                      for i in range(n)])
    u_entries = [(1, 1, Word((j,)), Element.monomial(Word((i,)), Fraction(c)))
                 for (i, j, c) in u_cols]
    utab = OperationTable(sp, 0, u_entries, complete=True)
    d_entries = [(1, 1, Word((j,)), Element.monomial(Word((i,)), Fraction(c)))
                 for (i, j, c) in d_cols]
    dtab = OperationTable(sp, 1, d_entries, complete=True)
    f_entries = [(1, 0, Word((j,)), Element.monomial(UNIT_WORD, Fraction(c)))
                 for (j, c) in f_vals if c]
    ftab = OperationTable(sp, 0, f_entries, complete=True,
                          target=GradedSpace(()))
    return sp, dtab, UModule(sp, utab), ftab


def test_sd_zero_u():
    sp, d, u, f = _sd_setup([], [(0, 1)])
    assert _sd_search(d, u, f).level == 0


def test_sd_one_step():
    # U(x) = y, f(x) = 1: frozen by brute force over k = 0, 1
    sp, d, u, f = _sd_setup([(1, 0, 1)], [(0, 1)])
    assert _sd_search(d, u, f).level == 1


def test_sd_functional_zero_errors():
    sp, d, u, f = _sd_setup([(1, 0, 1)], [])
    with pytest.raises(PlanarityNotOneError):
        _sd_search(d, u, f)


def test_sd_not_nilpotent():
    sp, d, u, f = _sd_setup([(0, 0, 1)], [(0, 1)])
    with pytest.raises(NotNilpotentError):
        _sd_search(d, u, f)


def test_sd_u_must_commute():
    # U = diag(2, 3) fails to commute with d(v1) = v0
    sp, d, u, f = _sd_setup([(0, 0, 2), (1, 1, 3)], [(0, 1)],
                            d_cols=[(0, 1, 1)], parities=[0, 1])
    with pytest.raises(StructureError):
        _sd_search(d, u, f)


def test_sd_on_homology_with_differential():
    # four generators, d(v3) = v2 kills a U-chain tail on homology
    sp, d, u, f = _sd_setup(
        u_cols=[(1, 0, 1), (2, 1, 1)],
        f_vals=[(0, 1)],
        d_cols=[(2, 3, 1)],
        n=4, parities=[0, 0, 0, 1])
    # U: v0 -> v1 -> v2, v2 is a boundary, so U^2 [v0] = 0 on homology
    assert _sd_search(d, u, f).level == 1


def test_sd_ladder_rungs_are_exact():
    # rung n: U an n-step nilpotent Jordan block on n even generators over
    # the zero structure, x1 -> 1: semi-dilation exactly n - 1.  Rungs 1
    # and 2 are the one-point fixture (U = 0) and sd_example
    a1, p1 = fixtures.pointed_one()
    _, u2, p2 = fixtures.sd_example()
    assert fixtures.sd_ladder(1)[1] == zero_table(a1.space, parity=0)
    assert fixtures.sd_ladder(1)[2].table == p1.table
    assert fixtures.sd_ladder(2)[1] == u2
    assert fixtures.sd_ladder(2)[2].table == p2.table
    for n in range(1, 5):
        alg, utab, pmap = fixtures.sd_ladder(n)
        ans = sd_order(fixtures.zero_aug(alg), pmap, UModule(alg.space, utab),
                       B3)
        assert ans.level == n - 1
    with pytest.raises(ValueError):
        fixtures.sd_ladder(0)


def test_sd_order_answers_exact_on_the_ladder():
    # every sd level is a finite system over the whole linearized
    # homology, so a failed level is certified and the kind is exact; the
    # answer names the bounds it was linearized at
    for n in range(1, 6):
        alg, utab, pmap = fixtures.sd_ladder(n)
        for bounds in (B3, Bounds(n, word_bound=n)):
            ans = sd_order(fixtures.zero_aug(alg), pmap,
                           UModule(alg.space, utab), bounds)
            assert (ans.kind, ans.level, ans.bounds) == \
                ("exact", n - 1, bounds)


def test_sd_order_refuses_u_over_another_space():
    alg, utab, pmap = fixtures.sd_ladder(2)
    twin = GradedSpace(list(alg.space.generators))
    with pytest.raises(StructureError, match="U over another space"):
        sd_order(fixtures.zero_aug(alg), pmap,
                 UModule(twin, OperationTable(twin, 0, utab.sorted_entries())),
                 B3)


def test_sd_order_refuses_a_functional_that_is_no_chain_map():
    # d(o) = e and an unchecked P(e) = 1: f(d o) = 1, so f is no chain map
    sp = space(("o", 1), ("e", 0))
    alg = BLAlgebra(sp, table(sp, 1, [(1, 1, ("o",), [(1, ("e",))])]))
    pmap = PointedMap(alg, table(sp, 0, [(1, 0, ("e",), [(1, ())])]))
    with pytest.raises(StructureError,
                       match="^the functional is not a chain map$"):
        sd_order(fixtures.zero_aug(alg), pmap,
                 UModule(sp, zero_table(sp, parity=0)), B3)


def test_umodule_grade_check():
    sp = GradedSpace([fixtures.Generator("a", 0, zgrade=2),
                      fixtures.Generator("b", 0, zgrade=2)])
    utab = OperationTable(sp, 0, [(1, 1, Word((0,)),
                                   Element.monomial(Word((1,))))],
                          complete=True)
    with pytest.raises(StructureError):
        UModule(sp, utab)


# ---- planarity ----------------------------------------------------------------

def test_planarity_empty_with_torsion_certificate():
    alg = fixtures.planar_torsion_one()
    pmap = PointedMap(alg, zero_table(alg.space, parity=0))
    ans = planarity([], pmap, Bounds(2, max_action=2, word_bound=2))
    assert ans.found() and ans.level == 0


def test_planarity_rechecks_augmentation_checked_at_other_bounds():
    # eps(y) = 1 kills p(q*x) = y only outside the one-letter window
    sp = space(("q", 1), ("x", 0), ("y", 0))
    alg = algebra(sp, [(2, 1, ("q", "x"), [(1, ("y",))])])
    eps = Augmentation(alg, table(sp, 0, [(1, 0, ("y",), [(1, ())])],
                                  target=GradedSpace(())))
    assert is_augmentation(eps, Bounds(1)).ok
    pmap = PointedMap(alg, zero_table(sp, parity=0))
    with pytest.raises(StructureError):
        planarity([eps], pmap, Bounds(2))


def test_planarity_rechecks_augmentation_checked_against_another_algebra():
    # eps(y) = 1 is an augmentation of the zero structure, not of p(q*x) = y
    sp = space(("q", 1), ("x", 0), ("y", 0))
    alg_bad = algebra(sp, [(2, 1, ("q", "x"), [(1, ("y",))])])
    eps = Augmentation(alg_bad, table(sp, 0, [(1, 0, ("y",), [(1, ())])],
                                      target=GradedSpace(())))
    alg_ok = BLAlgebra(sp, zero_table(sp))
    assert is_augmentation(Augmentation(alg_ok, eps.table), Bounds(2)).ok
    pmap = PointedMap(alg_bad, zero_table(sp, parity=0))
    with pytest.raises(StructureError):
        planarity([eps], pmap, Bounds(2))


def test_maps_over_another_algebra_are_refused():
    # two algebras over one space: an augmentation of one and a pointed
    # map of the other share no algebra, so each step where they meet
    # refuses them
    alg, pmap = fixtures.pointed_two()
    twin = BLAlgebra(alg.space, alg.table)
    eps = fixtures.zero_aug(twin)
    bullet = zero_table(alg.space, parity=pmap.parity + 1)
    calls = [lambda: linearize_pointed(pmap, eps, B3),
             lambda: order_O(eps, pmap, B3),
             lambda: order_O_tilde(eps, pmap, B3),
             lambda: planarity([eps], pmap, B3),
             lambda: check_compatibility(fixtures.identity_morphism(twin),
                                         pmap, pmap, bullet, B3)]
    for call in calls:
        with pytest.raises(StructureError, match="another algebra"):
            call()


def test_planarity_empty_without_certificate_inconclusive():
    alg = fixtures.zero_structure((1, 0))
    pmap = PointedMap(alg, zero_table(alg.space, parity=0))
    with pytest.raises(InconclusiveError):
        planarity([], pmap, B2)


def test_planarity_max_over_supplied():
    alg, pmap = fixtures.pointed_two()
    sp = alg.space
    eps1 = fixtures.zero_aug(alg)
    eps2 = fixtures.rich_even_aug(alg, [(("a",), 1)])
    ans = planarity([eps1, eps2], pmap, B3)
    assert ans.found() and ans.level == 2


def test_planarity_all_even_generic_probe():
    # structure and pointed data make the order manifestly eps-independent
    alg, pmap = fixtures.pointed_two()
    ans = planarity([], pmap, B3)
    assert ans.found() and ans.level == 2


def test_planarity_generic_probe_inconclusive_when_dependent():
    # a pointed map with l = 1 cells feeds the augmentation corrections
    sp = space(("a", 0), ("b", 0))
    alg = BLAlgebra(sp, zero_table(sp))
    ptab = table(sp, 0, [(1, 1, ("a",), [(1, ("b",))]),
                         (2, 0, ("a", "b"), [(1, ())])])
    pmap = PointedMap(alg, ptab)
    with pytest.raises(InconclusiveError):
        planarity([], pmap, B3)


def test_order_requires_augmentation():
    from blinfty.errors import PlanarityZeroError
    alg, pmap = fixtures.pointed_one()
    with pytest.raises(PlanarityZeroError):
        order_O(None, pmap, B3)


def test_strict_gap_search_reports_only():
    # it is open whether the reduced order can be strictly smaller than the
    # unreduced one; search the corpus and record, asserting only <=
    gaps = []
    for fix in (fixtures.pointed_one, fixtures.pointed_two):
        alg, pmap = fix()
        eps = fixtures.zero_aug(alg)
        o = order_O(eps, pmap, B3)
        ot = order_O_tilde(eps, pmap, B3)
        if o.found() and ot.found():
            assert o.level <= ot.level
            if o.level < ot.level:
                gaps.append((alg, o.level, ot.level))
    print("strict reduced/unreduced gaps found:", len(gaps))


def test_planarity_single_pointed_map_level_one():
    alg, pmap = fixtures.pointed_one()
    ans = planarity([fixtures.zero_aug(alg)], pmap, B3)
    assert ans.found() and ans.level == 1


def test_mixed_no_aug_fixture():
    # no rational augmentation exists, yet the unit is never a boundary:
    # the inner Leibniz condition forces eps(a) = 0 while the outer word
    # a (.) b would need eps(a)^2 = -1
    from blinfty.structures import check_structure, is_augmentation
    from blinfty.structures import OperationTable
    from blinfty.words import GradedSpace
    for sgn in (1, -1):
        alg = fixtures.mixed_no_aug(sgn)
        assert check_structure(alg, Bounds(4)).ok
        for t in (0, 1, -1, 2, Fraction(1, 2)):
            rows = []
            if t:
                rows.append((1, 0, Word((0,)),
                             Element.monomial(UNIT_WORD, Fraction(t))))
            eps = Augmentation(alg, OperationTable(
                alg.space, 0, rows, target=GradedSpace(())))
            assert not is_augmentation(eps, Bounds(4)).ok, (sgn, t)
        ans = torsion(alg, default_schedule(4, Bounds(4)))
        assert ans.kind == "not-found"


def test_hierarchy_end_to_end_sd_zero():
    # the one-point fixture with the zero endomorphism classifies as 0^SD
    from blinfty.hierarchy import HierarchyValue, hierarchy_classify
    alg, pmap = fixtures.pointed_one()
    t = torsion(alg, default_schedule(3, B3))
    assert t.kind == "not-found"
    pl = planarity([], pmap, B3)  # generic probe: order 1 for every eps
    assert pl.found() and pl.level == 1
    umod = UModule(alg.space, OperationTable(alg.space, 0, (), complete=True))
    sd = sd_order(fixtures.zero_aug(alg), pmap, umod, B3)
    assert (sd.kind, sd.level) == ("exact", 0)
    value = hierarchy_classify(t, True, pl, sd)
    assert value == HierarchyValue("SD", 0)


def test_hierarchy_end_to_end_planarity_two():
    from blinfty.hierarchy import HierarchyValue, hierarchy_classify
    alg, pmap = fixtures.pointed_two()
    t = torsion(alg, default_schedule(3, B3))
    pl = planarity([], pmap, B3)
    value = hierarchy_classify(t, True, pl)
    assert value == HierarchyValue("Pl", 2)


def test_inner_coderivation_matches_projected_outer():
    # the bar differential on words equals the single-letter-cluster part
    # of the outer assembly under the flattening identification
    from blinfty.assembly import apply_inner_coderivation
    from blinfty.invariants import project_width
    from blinfty.structures import word_to_singletons
    for name, (alg, augs, _) in fixtures.corpus().items():
        for eps in augs:
            lin = linearize(eps, B3)
            lt = ell_table(lin)
            for w in enumerate_basis(alg.space, 3):
                if len(w) < 1:
                    continue
                inner = apply_inner_coderivation(lt, Element.monomial(w))
                outer = project_width(
                    apply_coderivation(lin,
                                       EElement.monomial(
                                           word_to_singletons(w))), 1)
                flattened = {}
                for ew, c in outer.terms.items():
                    letters = tuple(sorted(l for cl in ew.clusters
                                           for l in cl.letters))
                    flattened[Word(letters)] = \
                        flattened.get(Word(letters), 0) + c
                assert Element(flattened) == inner, (name, w)


def test_answers_are_deterministic():
    alg = fixtures.planar_torsion_one()
    a1 = torsion(alg, default_schedule(3, Bounds(3)))
    a2 = torsion(fixtures.planar_torsion_one(), default_schedule(3, Bounds(3)))
    assert a1.level == a2.level and a1.certificate == a2.certificate
    alg2, pmap = fixtures.pointed_two()
    eps = fixtures.zero_aug(alg2)
    o1 = order_O(eps, pmap, B3)
    o2 = order_O(fixtures.zero_aug(alg2), pmap, B3)
    assert o1.level == o2.level and o1.certificate == o2.certificate


def test_torsion_gapped_schedule_exactness():
    # skipping level 1 in the schedule: the planar fixture still certifies
    # exactness structurally (no constant cell reaches one cluster), while
    # the torsion-zero fixture must downgrade to an upper bound
    alg = fixtures.planar_torsion_one()
    ans = torsion(alg, [(2, Bounds(2))])
    assert ans.kind == "exact" and ans.level == 1
    alg0 = fixtures.torsion_zero()
    ans0 = torsion(alg0, [(2, Bounds(2))])
    assert ans0.kind == "at-most" and ans0.level == 1


def test_generic_probe_detects_dependence_through_letter_raising():
    # a letter-raising pointed cell feeds multi-letter clusters to the
    # generic augmentation; the resulting dependence must surface
    sp = space(("a", 0), ("b", 0))
    alg = BLAlgebra(sp, zero_table(sp))
    ptab = table(sp, 0, [(1, 3, ("a",), [(1, ("b", "b", "b"))]),
                         (1, 0, ("b",), [(1, ())])])
    pmap = PointedMap(alg, ptab)
    with pytest.raises(InconclusiveError,
                       match="depends on the augmentation at cell"):
        planarity([], pmap, Bounds(2, word_bound=2))


# ---- the sparse elimination against the dense oracle ------------------------

def _engine_cases(rng):
    """Seeded calls of every engine that solves: torsion on the
    benchmark's exhausting family and on random structures, the two orders on random pointed maps, the torsion grid on
    random hbar tables; and apart, so that the coverage floors count only
    the others, _sd_search on random commuting (d, U) pairs."""
    cases = [lambda sign=sign: torsion(fixtures.mixed_no_aug(sign),
                                       default_schedule(4, Bounds(4)))
             for sign in (1, -1)]
    while len(cases) < 14:
        sp = random_space(rng, n=rng.randint(1, 3))
        tab = random_table(rng, sp, max_k=3, max_l=rng.choice((0, 1, 2)),
                           n_entries=rng.randint(1, 4))
        alg = BLAlgebra(sp, tab)
        if check_structure(alg, Bounds(3)).ok:
            cases.append(lambda alg=alg: torsion(
                alg, default_schedule(3, Bounds(3))))
    for _ in range(6):
        sp = random_space(rng, n=2)
        odd = [i for i in range(2) if sp.parities[i]]
        even = [i for i in range(2) if not sp.parities[i]]
        rows = []
        if odd and even:
            rows.append((1, 1, Word((odd[0],)), Element.monomial(
                Word((even[0],)), Fraction(rng.randint(1, 3)))))
        alg = BLAlgebra(sp, OperationTable(sp, 1, rows))
        pmap = PointedMap(alg, random_table(rng, sp, parity=0, n_entries=3,
                                            max_k=2, max_l=1))
        for order in (order_O, order_O_tilde):
            cases.append(lambda alg=alg, pmap=pmap, order=order: order(
                fixtures.zero_aug(alg), pmap, Bounds(3)))
    ialgs = [fixtures.planar_torsion_one(), fixtures.ibl_genus_one()]
    for _ in range(4):
        sp = random_space(rng, n=2)
        base = random_table(rng, sp, n_entries=2, max_k=2, max_l=1)
        ialgs.append(BLAlgebra(sp, OperationTable(sp, 1, [
            (k, l, rng.randrange(2), w, e)
            for (k, l, _, w, e) in base.sorted_entries()])))
    for ialg in ialgs:
        for n, m in ((0, 0), (0, 1), (1, 0)):
            cases.append(lambda ialg=ialg, n=n, m=m: torsion_grid(
                ialg, n, m, 2, Bounds(3)))
    return cases, [_random_sd_case(rng) for _ in range(20)]


def _random_sd_case(rng):
    inputs = _random_sd_inputs(rng)
    return lambda: _sd_search(*inputs)


def _random_sd_inputs(rng, arbitrary=False):
    """Acyclic pairs d(o_i) = e_i, cycles b_j with d = 0, and U acting by
    one strictly triangular matrix on the e's and on the o's, strictly
    triangularly on the b's (when arbitrary, arbitrarily with half the
    entries zero: mostly not nilpotent on homology) with boundary terms in
    the e's, so dU = Ud."""
    na, nb = rng.randint(0, 2), rng.randint(1, 4)
    e, o = list(range(na)), list(range(na, 2 * na))
    b = list(range(2 * na, 2 * na + nb))
    sp = GradedSpace([fixtures.Generator("v%d" % i, 1 if i in o else 0)
                      for i in range(2 * na + nb)])

    def entry(j, i, c):
        return (1, 1, Word((j,)), Element.monomial(Word((i,)), Fraction(c)))

    d = [entry(o[i], e[i], 1) for i in range(na)]
    u = []
    for i, j in itertools.combinations(range(na), 2):
        c = rng.randint(-2, 2)
        u += [entry(e[j], e[i], c), entry(o[j], o[i], c)]
    for i, j in (itertools.product(b, repeat=2) if arbitrary
                 else itertools.combinations(b, 2)):
        u.append(entry(j, i, rng.choice((-1, 0, 0, 1)) if arbitrary
                       else rng.randint(-2, 2)))
    u += [entry(j, i, rng.randint(0, 2)) for j in b for i in e]
    cells = {}
    for (_, _, w_in, elem) in u:
        cells[w_in] = cells.get(w_in, Element()) + elem
    utab = OperationTable(sp, 0, [(1, 1, w, x) for w, x in cells.items() if x],
                          complete=True)
    ftab = OperationTable(sp, 0, [(1, 0, Word((b[-1],)), Element.monomial(
        UNIT_WORD, Fraction(rng.randint(-2, 2))))], complete=True,
        target=GradedSpace(()))
    dtab = OperationTable(sp, 1, d, complete=True)
    return dtab, UModule(sp, utab), ftab


def _outcome(case):
    """An engine call's answer with its certificate terms, or its error."""
    try:
        out = case()
    except (StructureError, NotNilpotentError, PlanarityNotOneError,
            InconclusiveError) as err:
        return type(err).__name__, str(err)
    if isinstance(out, TorsionAnswer):
        return (out.kind, out.level, repr(out.bounds), type(out.certificate),
                _terms(out.certificate))
    if isinstance(out, tuple):
        return out[0], _terms(out[1])
    return out


def _terms(cert):
    if isinstance(cert, tuple):  # sd's pair (z, y)
        return [_terms(chain) for chain in cert]
    return None if cert is None else sorted(
        (repr(key), c) for key, c in cert.terms.items())


def test_engines_match_dense_oracle(monkeypatch):
    sparse, sparse_sd = _outcomes(_engine_cases(random.Random(606)))
    monkeypatch.setattr(invariants, "solve_linear", dense_solve_linear)
    monkeypatch.setattr(invariants, "rank", dense_rank)
    dense, dense_sd = _outcomes(_engine_cases(random.Random(606)))
    assert (sparse, sparse_sd) == (dense, dense_sd)
    kinds = [out[0] for out in sparse if isinstance(out, tuple)]
    assert kinds.count("exact") + kinds.count("at-most") >= 5
    assert kinds.count("not-found") >= 3
    assert kinds.count(True) >= 3 and kinds.count(False) >= 3
    sd = {out[1] for out in sparse_sd if out[0] == "exact"}
    assert len(sd) >= 2


def _outcomes(case_lists):
    return tuple([_outcome(case) for case in cases] for cases in case_lists)


# ---- the level search against its definition -------------------------------

def _spectator_union():
    """mixed_no_aug, with actions, beside torsion_ladder(3): a two-input
    constant reaches level 2, which fails, and level 3 solves, so the
    answer is exact only where level 2 is action-closed."""
    sp = space(("a", 0, 1), ("b", 1, 2), ("q1", 1, 1), ("q2", 0, 1),
               ("q3", 0, 1))
    return algebra(sp, [(1, 1, ("b",), [(1, ("a",))]),
                        (2, 0, ("a", "b"), [(1, ())]),
                        (3, 0, ("q1", "q2", "q3"), [(1, ())])],
                   action_drop=True)


def _random_torsion_case(rng):
    """A random structure and a random schedule: levels skipped, each
    level with its own Bounds, and in half the cases generators with
    actions under an action-dropping table."""
    with_action = rng.random() < 0.5
    sp = space(*[("g%d" % i, rng.randrange(2))
                 + ((rng.randint(1, 2),) if with_action else ())
                 for i in range(rng.randint(1, 3))])
    base = random_table(rng, sp, max_k=3, max_l=rng.choice((0, 1, 2)),
                        n_entries=rng.randint(1, 4))
    try:
        tab = OperationTable(sp, 1, base.sorted_entries(),
                             action_drop=with_action)
    except StructureError:
        return None
    levels = sorted(rng.sample(range(1, 4), rng.randint(1, 3)))
    schedule = [(k, Bounds(rng.randint(max(1, k - 1), 3),
                           max_action=(rng.randint(1, 4) if with_action
                                       else None)))
                for k in levels]
    alg = BLAlgebra(sp, tab)
    if not check_structure(alg, schedule[-1][1]).ok:
        return None
    return alg, schedule


def _torsion_oracle_cases(rng):
    union = _spectator_union()

    def B(letters, action):
        return Bounds(letters, max_action=action)

    cases = [(union, [(1, B(3, a)), (2, B(m, b)), (3, B(3, 3))])
             for m, a, b in ((3, 3, 3), (2, 3, 3), (3, 3, 2), (4, 1, 4))]
    cases += [(union, [(1, B(1, 3)), (3, B(3, 3))]),
              (union, [(2, B(3, 3)), (3, B(3, 3))])]
    # a level searched twice is certified by its last entry's bounds
    cases += [(union, [(2, B(m, 3)), (2, B(n, 3)), (3, B(3, 3))])
              for m, n in ((3, 2), (2, 3))]
    for n in (1, 2, 3):
        rung = fixtures.torsion_ladder(n)
        cases += [(rung, default_schedule(n + 1, Bounds(n + 1))),
                  (rung, [(k, B(k, k)) for k in range(1, n + 2)]),
                  (rung, [(n, Bounds(n)), (n + 1, B(n + 1, n))]),
                  (rung, [(n + 1, B(n + 1, n - 1))])]
    cases += [(fixtures.mixed_no_aug(sign), default_schedule(3, Bounds(3)))
              for sign in (1, -1)]
    while len(cases) < 60:
        case = _random_torsion_case(rng)
        if case is not None:
            cases.append(case)
    return cases


def test_torsion_matches_level_search_oracle():
    # kind, level, certificate and bounds of the engine's one level loop
    # against the search written out from its definition
    outcomes = []
    for alg, schedule in _torsion_oracle_cases(random.Random(1313)):
        ans = torsion(alg, schedule)
        want = oracle_torsion(alg, schedule)
        assert (ans.kind, ans.level, ans.certificate, ans.bounds) == want, (
            alg.table.sorted_entries(), schedule)
        outcomes.append(ans.kind)
    assert outcomes[:8] == ["exact", "at-most", "at-most", "exact",
                            "at-most", "exact", "at-most", "exact"]
    assert min(outcomes.count(kind)
               for kind in ("exact", "at-most", "not-found")) >= 5


def test_action_drop_survives_a_document_round_trip():
    # the bounds line declares an action-dropping structure table whatever
    # the caller's Bounds say, so the re-read algebra certifies the levels
    # below its answer by the action filtration as the original does
    bounds = Bounds(3, max_action=3)
    for alg in (_spectator_union(), fixtures.torsion_ladder(3)):
        back = bio.algebra_from_document(bio.parse(bio.serialize(
            bio.document_of_algebra(alg, bounds))))
        assert back.table.action_drop
        want, got = (torsion(a, default_schedule(3, bounds))
                     for a in (alg, back))
        assert (got.kind, got.level, got.certificate, got.bounds) == \
            (want.kind, want.level, want.certificate, want.bounds)
        assert want.kind == "exact"
        with pytest.raises(ValueError):
            bio.document_of_algebra(alg)


def test_tables_differing_in_action_drop_are_not_equal():
    # the flag changes answers, so a round trip compared with == must see
    # it lost: without it, level 2 is not certified by the filtration
    alg = _spectator_union()
    tab = alg.table
    copy = OperationTable(tab.space, tab.parity, tab.sorted_entries(),
                          complete=tab.complete, max_k=tab.max_k)
    assert tab == OperationTable(tab.space, tab.parity, tab.sorted_entries(),
                                 complete=tab.complete, max_k=tab.max_k,
                                 action_drop=True)
    assert tab != copy
    schedule = default_schedule(3, Bounds(3, max_action=3))
    kinds = [(ans.kind, ans.level) for ans in (
        torsion(a, schedule) for a in (alg, BLAlgebra(alg.space, copy)))]
    assert kinds == [("exact", 2), ("at-most", 2)]


def _sd_outcome(order, inputs):
    try:
        return order(*inputs)
    except (StructureError, NotNilpotentError, PlanarityNotOneError) as err:
        return type(err), str(err)


def _sd_outcomes(seed, arbitrary):
    """_sd_search's level or error on 400 seeded inputs, each asserted equal
    to the oracle's dense system per power of U."""
    rng = random.Random(seed)
    outcomes = []
    for _ in range(400):
        inputs = _random_sd_inputs(rng, arbitrary)
        got = _sd_outcome(lambda *a: _sd_search(*a).level, inputs)
        assert got == _sd_outcome(oracle_sd_order, inputs)
        outcomes.append(got if isinstance(got, int) else got[0])
    return outcomes


def test_sd_order_matches_dense_oracle():
    # _sd_search's levels, solved through the one level loop, against the
    # oracle's dense system per power of U: the same k or the same error
    outcomes = _sd_outcomes(1414, False)
    assert outcomes.count(PlanarityNotOneError) >= 20
    assert {0, 1, 2} <= set(outcomes)


def test_sd_order_matches_dense_oracle_off_nilpotence():
    # U arbitrary on the cycles: the nilpotence check against the oracle's
    # U^N z solved for a boundary, cycle by cycle
    outcomes = _sd_outcomes(2828, True)
    assert outcomes.count(NotNilpotentError) >= 100
    assert {0, 1, 2} <= set(outcomes)


def _sd_certificate_checked(ell1, umod, ell_point, ans, verify):
    """ans's pair (z, y) re-verifies by dense evaluation and by verify, the
    library's check; negating a coefficient of z on which f is nonzero
    breaks f(z) = 1 for both."""
    assert oracle_sd_certificate(ell1, umod, ell_point, ans.level,
                                 ans.certificate)
    assert verify(ans)
    z, y = ans.certificate
    f = dense_sd_matrices(ell1, umod, ell_point)[2]
    w = next(w for w in z.terms if f[w.letters[0]])
    flipped = (Element({**z.terms, w: -z.terms[w]}), y)
    assert not oracle_sd_certificate(ell1, umod, ell_point, ans.level,
                                     flipped)
    assert not verify(TorsionAnswer(ans.kind, ans.level, flipped, ans.bounds))


def test_sd_certificates_reverify_by_evaluation():
    # every found answer carries the pair (z, y), and verify_sd_certificate
    # (on the seeded draws, its check on the linearized tables) agrees with
    # the dense oracle: on both seeded draws, the ladder and the corpus's
    # two sd inputs (pointed_one with U = 0)
    found = 0
    for seed, arbitrary in ((1414, False), (2828, True)):
        rng = random.Random(seed)
        for _ in range(400):
            inputs = _random_sd_inputs(rng, arbitrary)
            try:
                ans = _sd_search(*inputs)
            except (NotNilpotentError, PlanarityNotOneError):
                continue
            _sd_certificate_checked(*inputs, ans, lambda a, inputs=inputs: (
                invariants._sd_certificate_holds(*inputs, a)))
            found += 1
    assert found >= 300
    one, p_one = fixtures.pointed_one()
    for alg, utab, pmap in [fixtures.sd_ladder(n) for n in range(1, 7)] + [
            fixtures.sd_example(), (one, zero_table(one.space, parity=0),
                                    p_one)]:
        eps, umod = fixtures.zero_aug(alg), UModule(alg.space, utab)
        _sd_certificate_checked(
            linearize(eps, B3), umod, linearize_pointed(pmap, eps, B3),
            sd_order(eps, pmap, umod, B3),
            lambda a: verify_sd_certificate(eps, pmap, umod, a))


def test_verify_sd_certificate_refuses_a_pair_off_the_generators():
    # z and y must be chains over one-letter words: a two-letter word in
    # either fails the check, though D, U and f read it as zero
    alg, utab, pmap = fixtures.sd_ladder(2)
    eps, umod = fixtures.zero_aug(alg), UModule(alg.space, utab)
    ans = sd_order(eps, pmap, umod, B3)
    assert verify_sd_certificate(eps, pmap, umod, ans)
    z, y = ans.certificate
    two = Word((0, 1))
    for pair in ((z + Element.monomial(two), y),
                 (z, y + Element.monomial(two))):
        assert not verify_sd_certificate(
            eps, pmap, umod, TorsionAnswer(ans.kind, ans.level, pair, B3))


# ---- one image per basis word per search --------------------------------------

def _count_hat_p(monkeypatch, alg):
    """Record the outer word of every p-hat image evaluated, by the
    structure check and by the search alike: the first-stage coderivation
    calls on alg's table (the check's second stage is single_cluster)."""
    seen = []
    glue = assembly.apply_coderivation

    def counted(table, x, *, single_cluster=False):
        if table is alg.table and not single_cluster:
            seen.extend(x.terms)
        return glue(table, x, single_cluster=single_cluster)
    monkeypatch.setattr(assembly, "apply_coderivation", counted)
    return seen


def test_torsion_evaluates_each_image_once(monkeypatch):
    alg, L = fixtures.mixed_no_aug(), 5
    seen = _count_hat_p(monkeypatch, alg)
    ans = torsion(alg, default_schedule(L, Bounds(L)))
    assert ans.kind == "not-found"
    window = enumerate_basis(alg.space, L, None, outer_components=L,
                             allow_units=True)
    # a word with a unit cluster beside a lettered one is read from its
    # lettered part, so only the others are evaluated
    words = [ew for ew in window
             if len({bool(c.letters) for c in ew.clusters}) == 1]
    assert len(words) < len(window)
    # the check evaluates the split words, the search starts from them
    assert sorted(seen, key=repr) == sorted(words, key=repr)
    # without the memo the nested levels evaluate the smaller bases again
    seen.clear()
    monkeypatch.setattr(invariants, "_once", lambda image: image)
    torsion(alg, default_schedule(L, Bounds(L)))
    assert len(seen) > len(set(seen)) == len(words)


def test_level_columns_equal_the_direct_images():
    # _level reads a word with unit clusters beside lettered ones from its
    # lettered part; every column must equal the word's own image term by
    # term, in order, on the torsion and torsion-grid windows (hbar
    # exponents 0-2) and on an order window of inner words
    ialg = fixtures.ibl_genus_one()
    pmap = fixtures.pointed_two()[1]
    ell = ell_table(linearize(fixtures.zero_aug(pmap.algebra), Bounds(3)))
    cases = [(invariants._outer_window(alg.space, True), lambda ew, alg=alg:
              apply_hat_p(alg, EElement.monomial(ew)), Bounds(4))
             for alg in (fixtures.mixed_no_aug(), fixtures.torsion_ladder(2),
                         fixtures.planar_torsion_one())]
    cases.append((lambda k, b: [
        EWord(ew.clusters, h) for h in range(3)
        for ew in invariants._outer_window(ialg.space, True)(k, b)],
        lambda ew: assembly.apply_ibl(ialg.table, EElement.monomial(ew), 2),
        Bounds(3)))
    cases.append((lambda k, b: _split_words(ell.space, b, k),
                  lambda w: apply_inner_coderivation(ell, Element.monomial(w)),
                  Bounds(3)))
    units = 0
    for window, image, bounds in cases:
        level = invariants._level(window, image)
        for k in range(1, bounds.max_letters + 1):
            basis, columns = level(k, bounds)
            for b, col in zip(basis, columns):
                assert list(col.items()) == list(image(b).terms.items()), b
                if isinstance(b, EWord) and col:
                    units += len({bool(c.letters) for c in b.clusters}) == 2
    assert units >= 50, units


def _memo_cases(rng):
    """Every search that memoizes images: the solving engines on seeded
    random tables, the torsion ladder, and torsion, both orders, both
    multi-point orders and planarity on the fixtures."""
    cases, sd_cases = _engine_cases(rng)
    for n in range(1, 5):
        cases.append(lambda n=n: torsion(fixtures.torsion_ladder(n),
                                         default_schedule(n + 1,
                                                          Bounds(n + 1))))
    for name, (alg, augs, pmap) in sorted(fixtures.corpus().items()):
        cases.append(lambda alg=alg: torsion(alg, default_schedule(3, B3)))
        if pmap is None:
            continue
        fam = {frozenset({1}): pmap.table, frozenset({2}): pmap.table,
               frozenset({1, 2}): zero_table(alg.space, parity=0)}
        for eps in augs:
            for order in (order_O, order_O_tilde):
                cases.append(lambda eps=eps, pmap=pmap, order=order:
                             order(eps, pmap, B3))
            for multi in (order_multi, order_multi_tilde):
                cases.append(lambda eps=eps, fam=fam, multi=multi:
                             multi(eps, fam, 2, B3))
        cases.append(lambda augs=augs, pmap=pmap:
                     planarity(augs, pmap, B3))
    return cases, sd_cases


def test_image_memo_keeps_answers_and_certificates(monkeypatch):
    memo, memo_sd = _outcomes(_memo_cases(random.Random(909)))
    monkeypatch.setattr(invariants, "_once", lambda image: image)
    assert (memo, memo_sd) == _outcomes(_memo_cases(random.Random(909)))
    kinds = [out[0] for out in memo if isinstance(out, tuple)]
    assert kinds.count("exact") + kinds.count("at-most") >= 10
    assert kinds.count("not-found") >= 5
