import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from blinfty import assembly, fixtures, ibl, invariants, structures
from blinfty import io as bio
from blinfty.assembly import apply_coderivation, apply_inner_coderivation
from blinfty.errors import (BlinftyError, InconclusiveError,
                            NotNilpotentError, PlanarityNotOneError,
                            StructureError)
from blinfty.ibl import check_ibl, derive_flat_torsion, torsion_grid
from blinfty.invariants import (TorsionAnswer, default_schedule, order_O,
                                order_O_tilde, order_multi, order_multi_tilde,
                                planarity, project_width, sd_order, torsion,
                                transport_order, transport_torsion, verify,
                                verify_torsion_certificate, width,
                                apply_multi_pointed_linearized,
                                _apply_inner_morphism, _multi_linearized,
                                _sd_search)
from blinfty.linalg import solve_linear
from blinfty.structures import (Augmentation, BLAlgebra, BLMorphism, Bounds,
                                OperationTable, PointedMap, UModule,
                                apply_hat_p, check_compatibility,
                                check_morphism, check_pointed,
                                check_structure, compose, ell_table,
                                is_augmentation, linearize,
                                linearize_pointed, pull_back,
                                identity_table, zero_table, VerifyStatus,
                                word_to_singletons, _split_words)
from blinfty.words import (EElement, EWord, Element, Generator, GradedSpace,
                           UNIT_EWORD, UNIT_WORD, Word, enumerate_basis)

from util import (algebra, bubble_normalize, closed_complex,
                  dense_rank, dense_sd_matrices, dense_solve_linear, eword,
                  eword_parity, one_letter_structure, oracle_check_pointed,
                  oracle_hat_phi, oracle_inner, oracle_is_augmentation,
                  oracle_order_O, oracle_order_kind, oracle_sd_certificate,
                  oracle_sd_order, oracle_torsion, random_space, random_table,
                  space, table, whole_level_solve, whole_windows, word)

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
    moved = transport_torsion(phi, ans)
    assert moved.level == ans.level
    assert verify_torsion_certificate(phi.target, moved)
    assert max(len(ew.clusters) for ew in moved.certificate.terms) - 1 == \
        ans.level


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
    moved = transport_torsion(phi, ans)
    assert moved.level == ans.level
    assert verify_torsion_certificate(phi.target, moved)


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
    # both linearized tables vanish on every word, so each window is empty
    assert sizes == [0, 0]
    sizes.clear()
    whole_windows(monkeypatch)
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
    # the support-filtered windows answer as the definition does; the
    # closure holds of the whole windows, which the filter thins
    for eps, pmap, bounds in cases:
        ans = order_O(eps, pmap, bounds)
        assert (ans.kind, ans.level, ans.certificate, ans.bounds) == \
            oracle_order_O(ell_table(linearize(eps, bounds)),
                           linearize_pointed(pmap, eps, bounds), bounds)
    whole_windows(monkeypatch)
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
    ans = order_O(pull_back(eps, phi, B3), pmap, B3)
    assert ans.found()
    moved = transport_order(phi, eps, pmap, ans)
    assert moved.level == ans.level
    assert moved.problem[1:] == (eps, pmap) and verify(moved)


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
    ans = order_O(pull_back(eps, phi, B3), p, B3)
    assert ans.found()
    moved = transport_order(phi, eps, q, ans)
    assert moved.level == ans.level
    assert moved.problem[1:] == (eps, q) and verify(moved)


def _rescaled_table(tab, s):
    """g p g^-1 for the diagonal g that scales letter i by s[i]: each
    output term of each entry times s(out) / s(in), s of a word the product
    over its letters."""
    def of(word):
        return math.prod(s[i] for i in word.letters)
    return OperationTable(tab.space, tab.parity, [
        (k, l, g, w, Element({u: c * of(u) / of(w)
                              for u, c in e.terms.items()}))
        for k, l, g, w, e in tab.sorted_entries()],
        complete=tab.complete, max_k=tab.max_k, target=tab.target,
        action_drop=tab.action_drop)


def _rescaled(alg, maps, rng):
    """A seeded diagonal g of alg's space, no scale zero: (g . alg, the
    morphism g from alg to it, each (eps, pmap) of maps carried along as
    (eps o g^-1, g P g^-1))."""
    sp = alg.space
    s = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
         for _ in range(len(sp))]
    image = BLAlgebra(sp, _rescaled_table(alg.table, s))
    g = OperationTable(sp, 0, [(1, 1, Word((i,)), Element.monomial(
        Word((i,)), c)) for i, c in enumerate(s)])
    return image, BLMorphism(alg, image, g), [
        (Augmentation(image, _rescaled_table(eps.table, s)),
         PointedMap(image, _rescaled_table(pmap.table, s)))
        for eps, pmap in maps]


def _functor_law_cases(rng):
    """(structure, [(eps, pmap)], torsion schedule, bounds): the torsion
    ladders 1-4, the corpus (each augmentation with its pointed map, or
    with a seeded one where the corpus has none), the order ladders 1-3
    and _engine_cases's random structures and pointed pairs."""
    cases = [(fixtures.torsion_ladder(n), [],
              default_schedule(n + 1, Bounds(n + 1)), Bounds(n + 1))
             for n in range(1, 5)]
    for alg, augs, pmap in fixtures.corpus().values():
        cases.append((alg, [(eps, pmap or PointedMap(alg, random_table(
            rng, alg.space, parity=0, n_entries=3, max_k=2, max_l=1)))
            for eps in augs], default_schedule(3, B3), B3))
    for n in range(1, 4):
        alg, pmap = fixtures.order_ladder(n)
        bounds = Bounds(n, word_bound=n)
        cases.append((alg, [(fixtures.zero_aug(alg), pmap)],
                      default_schedule(n, bounds), bounds))
    algs, pointed = _engine_structures(rng)
    B = Bounds(3)
    cases += [(alg, [], default_schedule(3, B), B) for alg in algs]
    cases += [(alg, [(fixtures.zero_aug(alg), pmap)], default_schedule(3, B),
               B) for alg, pmap in pointed]
    return cases


def test_transports_obey_the_functor_law_on_rescalings():
    # A -phi-> B -psi-> C, each a seeded diagonal rescaling (odd generators
    # included) with eps and the pointed map carried along: torsion and
    # order_O agree in kind and level on A and B, every transported
    # certificate re-verifies on its target, and transport through
    # compose(psi, phi) equals transport through phi and then psi
    rng = random.Random(3535)
    moved = {"torsion": 0, "order": 0}
    for alg, maps, schedule, bounds in _functor_law_cases(rng):
        b_alg, phi, b_maps = _rescaled(alg, maps, rng)
        c_alg, psi, c_maps = _rescaled(b_alg, b_maps, rng)
        assert check_morphism(phi, bounds).ok and \
            check_morphism(psi, bounds).ok
        both = compose(psi, phi, bounds)
        ans, b_ans = torsion(alg, schedule), torsion(b_alg, schedule)
        assert (ans.kind, ans.level) == (b_ans.kind, b_ans.level)
        if ans.found():
            to_b = transport_torsion(phi, ans)
            to_c = transport_torsion(both, ans)
            assert verify_torsion_certificate(b_alg, to_b)
            assert verify_torsion_certificate(c_alg, to_c)
            assert to_c.certificate.terms == \
                transport_torsion(psi, to_b).certificate.terms
            moved["torsion"] += 1
        for (eps, pmap), (b_eps, b_pmap), (c_eps, c_pmap) in zip(
                maps, b_maps, c_maps):
            ans = order_O(pull_back(b_eps, phi, bounds), pmap, bounds)
            assert _record(lambda: ans) == \
                _record(lambda: order_O(eps, pmap, bounds))
            b_ans = order_O(b_eps, b_pmap, bounds)
            assert (ans.kind, ans.level) == (b_ans.kind, b_ans.level)
            if ans.found():
                to_b = transport_order(phi, b_eps, b_pmap, ans)
                to_c = transport_order(both, c_eps, c_pmap, ans)
                assert to_b.problem[1:] == (b_eps, b_pmap) and verify(to_b)
                assert to_c.problem[1:] == (c_eps, c_pmap) and verify(to_c)
                assert to_c.certificate.terms == transport_order(
                    psi, c_eps, c_pmap, to_b).certificate.terms
                moved["order"] += 1
    assert moved["torsion"] >= 8 and moved["order"] >= 18, moved


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
    algs, pointed = _engine_structures(rng)
    cases += [lambda alg=alg: torsion(alg, default_schedule(3, Bounds(3)))
              for alg in algs]
    for alg, pmap in pointed:
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


def _engine_structures(rng):
    """_engine_cases's random inputs, in its draw order: twelve structures
    that pass check_structure at Bounds(3), then six (structure, pointed
    map) pairs, a structure of one (1,1) cell from an odd to an even
    generator, or none."""
    algs = []
    while len(algs) < 12:
        sp = random_space(rng, n=rng.randint(1, 3))
        tab = random_table(rng, sp, max_k=3, max_l=rng.choice((0, 1, 2)),
                           n_entries=rng.randint(1, 4))
        alg = BLAlgebra(sp, tab)
        if check_structure(alg, Bounds(3)).ok:
            algs.append(alg)
    pointed = []
    for _ in range(6):
        sp = random_space(rng, n=2)
        odd = [i for i in range(2) if sp.parities[i]]
        even = [i for i in range(2) if not sp.parities[i]]
        rows = []
        if odd and even:
            rows.append((1, 1, Word((odd[0],)), Element.monomial(
                Word((even[0],)), Fraction(rng.randint(1, 3)))))
        alg = BLAlgebra(sp, OperationTable(sp, 1, rows))
        pointed.append((alg, PointedMap(alg, random_table(
            rng, sp, parity=0, n_entries=3, max_k=2, max_l=1))))
    return algs, pointed


def _random_sd_case(rng):
    """_sd_search on a seeded draw, the draw kept as the call's args."""
    return functools.partial(_sd_search, *_random_sd_inputs(rng))


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
    """An engine call's answer with its certificate terms and the name of
    its problem's case, or its error."""
    try:
        out = case()
    except (StructureError, NotNilpotentError, PlanarityNotOneError,
            InconclusiveError) as err:
        return type(err).__name__, str(err)
    if isinstance(out, TorsionAnswer):
        return (out.kind, out.level, repr(out.bounds), type(out.certificate),
                _terms(out.certificate),
                out.problem and out.problem[0].__name__)
    return out


def _terms(cert):
    if isinstance(cert, tuple):  # sd's pair (z, y)
        return [_terms(chain) for chain in cert]
    return None if cert is None else sorted(
        (repr(key), c) for key, c in cert.terms.items())


def test_engines_match_dense_oracle(monkeypatch):
    # the dense arm solves each level whole, every live column, as one
    # dense matrix: independent of the sparse arm's component restriction
    sparse, sparse_sd = _outcomes(_engine_cases(random.Random(606)))
    monkeypatch.setattr(invariants, "_solve", lambda basis, columns, target:
                        whole_level_solve(basis, columns, target,
                                          dense_solve_linear))
    monkeypatch.setattr(invariants, "rank", dense_rank)
    dense, dense_sd = _outcomes(_engine_cases(random.Random(606)))
    assert (sparse, sparse_sd) == (dense, dense_sd)
    kinds = [out[0] for out in sparse if out[-1] != "_verify_grid"]
    grid = [out[0] for out in sparse if out[-1] == "_verify_grid"]
    assert kinds.count("exact") + kinds.count("at-most") >= 5
    assert kinds.count("not-found") >= 3
    assert len(grid) - grid.count("not-found") >= 3
    assert grid.count("not-found") >= 3
    sd = {out[1] for out in sparse_sd if out[0] == "exact"}
    assert len(sd) >= 2


def _outcomes(case_lists):
    return tuple([_outcome(case) for case in cases] for cases in case_lists)


def _exhaust(spectator):
    """The exhausting family d b = a, 3/7 (a.b) -> 1, with the odd
    spectator s when asked: no torsion level ever solves."""
    sp = space(("a", 0), ("b", 1), *([("s", 1)] if spectator else []))
    return algebra(sp, [(1, 1, ("b",), [(1, ("a",))]),
                        (2, 0, ("a", "b"), [(Fraction(3, 7), ())])])


def _ladder_and_exhaust_cases():
    """Rungs 1-5 of the three ladders, and exhaust 3-6 with and without
    the spectator."""
    cases = []
    for n in range(1, 6):
        o_alg, o_pmap = fixtures.order_ladder(n)
        sd_alg, utab, sd_pmap = fixtures.sd_ladder(n)
        cases += [
            lambda n=n: torsion(fixtures.torsion_ladder(n),
                                default_schedule(n + 1, Bounds(n + 1))),
            lambda n=n, alg=o_alg, pmap=o_pmap: order_O(
                fixtures.zero_aug(alg), pmap, Bounds(n, word_bound=n)),
            lambda alg=sd_alg, utab=utab, pmap=sd_pmap: sd_order(
                fixtures.zero_aug(alg), pmap, UModule(alg.space, utab), B3)]
    for spectator in (False, True):
        for L in range(3, 7):
            cases.append(lambda s=spectator, L=L: torsion(
                _exhaust(s), default_schedule(L, Bounds(L))))
    return cases


def test_component_solve_equals_whole_level_solve(monkeypatch):
    # _solve hands only the target row's component to the elimination; on
    # every level of every search its certificate is the whole level's,
    # term for term and in the same order, or None for both
    solve, pairs = invariants._solve, []

    def both(basis, columns, target):
        got = solve(basis, columns, target)
        pairs.append((got, whole_level_solve(basis, columns, target,
                                             solve_linear)))
        return got
    monkeypatch.setattr(invariants, "_solve", both)
    cases, sd_cases = _engine_cases(random.Random(33))
    for case in cases + sd_cases + _ladder_and_exhaust_cases():
        _outcome(case)
    assert all(got == want and list(got or ()) == list(want or ())
               for got, want in pairs)
    solved = [got is not None for got, _ in pairs]
    assert solved.count(True) >= 20 and solved.count(False) >= 50


def test_exhaust_solves_a_small_system_once_per_level(monkeypatch):
    # exhaust 6's top level hands the elimination fewer than a tenth of its
    # live columns, and level 1, whose target row meets no column, is still
    # one solve_linear call (on a 1 x 0 system)
    solve, solve_level = invariants.solve_linear, invariants._solve
    sizes, live = [], []

    def sized(A, b):
        sizes.append((len(A), len(A[0])))
        return solve(A, b)

    def counted(basis, columns, target):
        live.append(sum(1 for col in columns if any(col.values())))
        return solve_level(basis, columns, target)
    monkeypatch.setattr(invariants, "solve_linear", sized)
    monkeypatch.setattr(invariants, "_solve", counted)
    ans = torsion(_exhaust(False), default_schedule(6, Bounds(6)))
    assert ans.kind == "not-found"
    assert len(sizes) == len(live) == 6
    assert sizes[0] == (1, 0) and live[0] > 0
    assert sizes[-1][1] * 10 < live[-1]


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


def _sd_certificate_checked(ell1, umod, ell_point, ans):
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
    assert not verify(TorsionAnswer(ans.kind, ans.level, flipped, ans.bounds,
                                    ans.problem))


def _sd_maps_of(dtab, umod, ftab):
    """An augmentation and a pointed map that linearize to the seeded
    draw's differential and functional: the zero augmentation of the
    structure dtab, and ftab as a pointed table."""
    alg = BLAlgebra(umod.space, dtab)
    return fixtures.zero_aug(alg), PointedMap(alg, OperationTable(
        umod.space, 0, ftab.sorted_entries()))


def test_sd_certificates_reverify_by_evaluation():
    # every found answer carries the pair (z, y), and verify agrees with
    # the dense oracle: on both seeded draws (sd_order on _sd_maps_of each
    # draw, whose answer is _sd_search's on the draw), the ladder and the
    # corpus's two sd inputs (pointed_one with U = 0)
    found = 0
    for seed, arbitrary in ((1414, False), (2828, True)):
        rng = random.Random(seed)
        for _ in range(400):
            inputs = _random_sd_inputs(rng, arbitrary)
            try:
                ans = _sd_search(*inputs)
            except (NotNilpotentError, PlanarityNotOneError):
                continue
            eps, pmap = _sd_maps_of(*inputs)
            got = sd_order(eps, pmap, inputs[1], Bounds(1))
            assert (got.level, got.certificate) == (ans.level, ans.certificate)
            _sd_certificate_checked(*inputs, got)
            found += 1
    assert found >= 300
    one, p_one = fixtures.pointed_one()
    for alg, utab, pmap in [fixtures.sd_ladder(n) for n in range(1, 7)] + [
            fixtures.sd_example(), (one, zero_table(one.space, parity=0),
                                    p_one)]:
        eps, umod = fixtures.zero_aug(alg), UModule(alg.space, utab)
        _sd_certificate_checked(
            linearize(eps, B3), umod, linearize_pointed(pmap, eps, B3),
            sd_order(eps, pmap, umod, B3))


def test_verify_sd_certificate_refuses_a_pair_off_the_generators():
    # z and y must be chains over one-letter words: a two-letter word in
    # either fails the check, though D, U and f read it as zero
    alg, utab, pmap = fixtures.sd_ladder(2)
    eps, umod = fixtures.zero_aug(alg), UModule(alg.space, utab)
    ans = sd_order(eps, pmap, umod, B3)
    assert verify(ans)
    z, y = ans.certificate
    two = Word((0, 1))
    for pair in ((z + Element.monomial(two), y),
                 (z, y + Element.monomial(two))):
        assert not verify(TorsionAnswer(ans.kind, ans.level, pair, B3,
                                        ans.problem))


def test_order_certificates_reverify_by_evaluation():
    # every found order_O answer re-verifies through verify, in its case
    # for order_O: the order ladders, the corpus's pointed
    # inputs at each of their augmentations and seeded pointed tables.
    # Negating a coefficient the functional reads, or claiming a level
    # below the certificate's longest word, fails it
    cases = [(fixtures.zero_aug(alg), pmap, Bounds(n, word_bound=n))
             for n in range(1, 7) for alg, pmap in [fixtures.order_ladder(n)]]
    cases += [(eps, pmap, B3) for alg, augs, pmap in fixtures.corpus().values()
              if pmap is not None for eps in augs]
    rng = random.Random(3434)
    while len(cases) < 60:
        case = _random_pointed_case(rng)
        if case is not None:
            cases.append(case)
    found = 0
    for eps, pmap, bounds in cases:
        ans = order_O(eps, pmap, bounds)
        assert ans.problem[1:] == (eps, pmap) and verify(ans)
        if not ans.found():
            continue
        found += 1
        c = ans.certificate
        lpt = linearize_pointed(pmap, eps, bounds)
        w = next(w for w in c.terms
                 if invariants._functional_from_constants(lpt, w))
        flipped = Element({**c.terms, w: -c.terms[w]})
        assert not verify(TorsionAnswer(
            ans.kind, ans.level, flipped, ans.bounds, ans.problem))
        longest = max(len(w) for w in c.terms)
        assert not verify(TorsionAnswer(
            ans.kind, longest - 1, c, ans.bounds, ans.problem))
    assert found >= 20, found


def test_verify_order_certificate_refuses_a_chain_that_is_not_a_cycle():
    # the bar differential of the certificate must vanish: beside the
    # structure d(b) = a, adding the word b to a certificate keeps its
    # functional value and breaks d(c) = 0
    sp = space(("a", 0), ("b", 1), ("g", 0))
    alg = algebra(sp, [(1, 1, ("b",), [(1, ("a",))])])
    pmap = PointedMap(alg, table(sp, 0, [(1, 0, ("g",), [(1, ())])]))
    eps = fixtures.zero_aug(alg)
    ans = order_O(eps, pmap, B3)
    assert (ans.kind, ans.level) == ("exact", 1)
    assert verify(ans)
    broken = ans.certificate + Element.monomial(word(sp, "b"))
    assert not verify(TorsionAnswer(
        ans.kind, ans.level, broken, ans.bounds, ans.problem))


# ---- windows of the support ----------------------------------------------------

def _record(call):
    """A call's answer in full: a search's (kind, level, bounds,
    certificate terms in insertion order, the name of its problem's case),
    a check's (ok, witness), a table's entries, or the type and message of
    a package error."""
    def in_order(cert):
        if isinstance(cert, tuple):  # sd's pair (z, y)
            return [in_order(chain) for chain in cert]
        return None if cert is None else list(cert.terms.items())
    try:
        out = call()
    except BlinftyError as err:
        return type(err).__name__, str(err)
    if isinstance(out, TorsionAnswer):
        return (out.kind, out.level, repr(out.bounds),
                in_order(out.certificate),
                out.problem and out.problem[0].__name__)
    if isinstance(out, VerifyStatus):
        return out.ok, repr(out.witness)
    return [(k, l, g, w, list(e.terms.items()))
            for k, l, g, w, e in out.sorted_entries()]


def _support_cases():
    """Every check and search whose window the support thins, and the ones
    that keep theirs: _engine_cases, the three ladders 1-5 (order_O_tilde
    too), exhaust 3-6 with and without the spectator, the corpus and
    seeded partial tables."""
    cases = list(_ladder_and_exhaust_cases())
    for seed in (1, 2, 3):
        engine, sd = _engine_cases(random.Random(seed))
        cases += engine + sd
    for n in range(1, 6):
        alg, pmap = fixtures.order_ladder(n)
        cases.append(lambda alg=alg, pmap=pmap, n=n: order_O_tilde(
            fixtures.zero_aug(alg), pmap, Bounds(n, word_bound=n)))
    for alg, augs, pmap in fixtures.corpus().values():
        cases += [lambda alg=alg: check_structure(alg, B3),
                  lambda alg=alg: check_ibl(alg, 1, B3),
                  lambda alg=alg: torsion(alg, default_schedule(3, B3)),
                  lambda alg=alg: torsion_grid(alg, 0, 1, 1, B3)]
        for eps in augs:
            cases += [lambda eps=eps: is_augmentation(eps, B3),
                      lambda eps=eps: linearize(eps, B3)]
        if pmap is not None:
            cases += [lambda pmap=pmap: check_pointed(pmap, B3),
                      lambda augs=augs, pmap=pmap: planarity(augs, pmap, B3)]
            for eps in augs:
                cases += [lambda eps=eps, pmap=pmap: order(eps, pmap, B3)
                          for order in (order_O, order_O_tilde)]
                cases.append(lambda eps=eps, pmap=pmap: linearize_pointed(
                    pmap, eps, B3))
    rng = random.Random(4545)
    for _ in range(40):
        sp = random_space(rng, n=rng.randint(2, 3))
        max_k = rng.randint(1, 2)

        def partial(parity, genus=False):
            return OperationTable(sp, parity, [
                (k, l, rng.randrange(2) if genus else 0, w, e)
                for k, l, _, w, e in random_table(
                    rng, sp, parity=parity, max_k=max_k, max_l=2,
                    n_entries=rng.randint(1, 3)).sorted_entries()],
                complete=False, max_k=max_k)
        alg, ialg = BLAlgebra(sp, partial(1)), BLAlgebra(sp, partial(1, True))
        eps = Augmentation(alg, OperationTable(
            sp, 0, [(k, 0, w, e) for k, l, _, w, e in partial(
                0).sorted_entries() if l == 0], complete=False, max_k=max_k,
            target=GradedSpace(())))
        pmap = PointedMap(alg, partial(0))
        bounds = Bounds(3)
        cases += [lambda alg=alg: check_structure(alg, bounds),
                  lambda alg=alg: torsion(alg, default_schedule(3, bounds)),
                  lambda ialg=ialg: check_ibl(ialg, 1, bounds),
                  lambda ialg=ialg: torsion_grid(ialg, 0, 1, 1, bounds),
                  lambda eps=eps: is_augmentation(eps, bounds),
                  lambda eps=eps: linearize(eps, bounds),
                  lambda pmap=pmap: check_pointed(pmap, bounds),
                  lambda eps=eps, pmap=pmap: linearize_pointed(
                      pmap, eps, bounds),
                  lambda eps=eps, pmap=pmap: order_O(eps, pmap, bounds),
                  lambda eps=eps, pmap=pmap: order_O_tilde(eps, pmap, bounds)]
    return cases


def test_support_windows_answer_as_the_whole_windows(monkeypatch):
    # dropping the words where every table of a support vanishes changes
    # no answer: every check's (ok, witness), every search's kind, level,
    # bounds and certificate in term order, every linearized table and
    # every error's type and message equal the whole windows' (support
    # forced to None), while fewer first-stage images are glued
    glued = []
    glue = assembly.apply_coderivation

    def counted(table, x, *, single_cluster=False):
        glued.append(single_cluster)
        return glue(table, x, single_cluster=single_cluster)
    monkeypatch.setattr(assembly, "apply_coderivation", counted)
    cases = _support_cases()
    thinned = [_record(case) for case in cases]
    first_stages = glued.count(False)
    del glued[:]
    whole_windows(monkeypatch)
    assert thinned == [_record(case) for case in cases]
    assert first_stages * 2 < glued.count(False), (first_stages, glued)
    # a grid answer counts as found or not, as its (found, certificate)
    # pair did
    kinds = [r[0] != "not-found" if r[-1] == "_verify_grid" else r[0]
             for r in thinned if isinstance(r, tuple)]
    assert kinds.count("exact") >= 60 and kinds.count("not-found") >= 30
    assert kinds.count(True) >= 40 and kinds.count(False) >= 60
    assert kinds.count("IncompleteTableError") >= 100, kinds


def test_order_tilde_on_the_order_ladder_evaluates_only_the_support(
        monkeypatch):
    # rung n of the order ladder answers exact n, and of its outer windows
    # only the words whose letters are g1..gn each once, split into
    # clusters in every way (Bell(n) words), are evaluated: each word's
    # differential and functional once, after the one split word of the
    # linearized pointed table.  The whole windows evaluate over fifty
    # times as many at rung 5
    seen = []
    glue = assembly.apply_coderivation

    def counted(table, x, *, single_cluster=False):
        if not single_cluster:
            seen.extend(x.terms)
        return glue(table, x, single_cluster=single_cluster)
    monkeypatch.setattr(assembly, "apply_coderivation", counted)
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}

    def ladder(n):
        alg, pmap = fixtures.order_ladder(n)
        bounds = Bounds(n, word_bound=n)
        ans = order_O(fixtures.zero_aug(alg), pmap, bounds)
        assert (ans.kind, ans.level) == ("exact", n)
        del seen[:]
        ans = order_O_tilde(fixtures.zero_aug(alg), pmap, bounds)
        assert (ans.kind, ans.level) == ("exact", n)
    for n in range(1, 6):
        ladder(n)
        assert all(sorted(l for c in ew.clusters for l in c.letters)
                   == list(range(n)) for ew in seen)
        assert len(seen) == 1 + 2 * bell[n] and len(set(seen)) == bell[n]
    whole = len(seen)
    whole_windows(monkeypatch)
    ladder(5)
    assert len(seen) > 50 * whole


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
    # lettered part, so only the others are evaluated, and of those only
    # the ones where p-hat does not vanish
    words = [ew for ew in window
             if len({bool(c.letters) for c in ew.clusters}) == 1]
    kept = [ew for ew in words if not assembly.vanishes(
        alg.table, tuple([l for c in ew.clusters for l in c.letters]))]
    assert len(kept) < len(words) < len(window)
    # the check evaluates the split words, the search starts from them
    assert sorted(seen, key=repr) == sorted(kept, key=repr)
    # without the memo the nested levels evaluate the smaller bases again
    seen.clear()
    once = invariants._once
    monkeypatch.setattr(invariants, "_once", lambda image: image)
    torsion(alg, default_schedule(L, Bounds(L)))
    assert len(seen) > len(set(seen)) == len(kept)
    # the whole windows evaluate every word of that shape, once each
    seen.clear()
    monkeypatch.setattr(invariants, "_once", once)
    whole_windows(monkeypatch)
    assert torsion(alg, default_schedule(L, Bounds(L))).kind == "not-found"
    assert sorted(seen, key=repr) == sorted(words, key=repr)


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
    kinds = [out[0] for out in memo if out[-1] != "_verify_grid"]
    assert kinds.count("exact") + kinds.count("at-most") >= 10
    assert kinds.count("not-found") >= 5


# ---- one verify for every answer --------------------------------------------

def _searched_answers():
    """Every answer of torsion, order_O, sd_order, the torsion grid and
    derive_flat_torsion, and of both transports: on the corpus, the three
    ladders 1-5 (and exhaust 3-6), _engine_cases on seeds 1-3 (each sd draw
    through sd_order on _sd_maps_of it), the compatible triples and the
    functor-law rescalings."""
    from test_acceptance import _compatible_triples
    calls = list(_ladder_and_exhaust_cases())
    for seed in (1, 2, 3):
        engine, sd = _engine_cases(random.Random(seed))
        calls += [case for case in engine
                  if order_O_tilde not in (case.__defaults__ or ())]
        calls += [lambda args=case.args: sd_order(
            *_sd_maps_of(*args), args[1], Bounds(1)) for case in sd]
    for alg, augs, pmap in fixtures.corpus().values():
        calls += [lambda alg=alg: torsion(alg, default_schedule(3, B3)),
                  lambda alg=alg: torsion_grid(alg, 0, 1, 1, B3)]
        calls += [lambda eps=eps, pmap=pmap: order_O(eps, pmap, B3)
                  for eps in (augs if pmap is not None else ())]
    one, p_one = fixtures.pointed_one()
    for alg, utab, pmap in (fixtures.sd_example(), (one, zero_table(
            one.space, parity=0), p_one)):
        calls.append(lambda alg=alg, utab=utab, pmap=pmap: sd_order(
            fixtures.zero_aug(alg), pmap, UModule(alg.space, utab), B3))
    answers = []
    for call in calls:
        try:
            ans = call()
        except (StructureError, NotNilpotentError, PlanarityNotOneError):
            continue
        answers.append(ans)
        if ans.found() and ans.problem[0] is ibl._verify_grid:
            answers.append(derive_flat_torsion(ans))
    for phi, p, q, _, eps in _compatible_triples():
        ans = order_O(pull_back(eps, phi, B3), p, B3)
        answers.append(ans)
        if ans.found():
            answers.append(transport_order(phi, eps, q, ans))
    rng = random.Random(3535)
    for alg, maps, schedule, bounds in _functor_law_cases(rng):
        b_alg, phi, b_maps = _rescaled(alg, maps, rng)
        c_alg, psi, c_maps = _rescaled(b_alg, b_maps, rng)
        both = compose(psi, phi, bounds)
        ans = torsion(alg, schedule)
        answers.append(ans)
        if ans.found():
            to_b = transport_torsion(phi, ans)
            answers += [to_b, transport_torsion(both, ans),
                        transport_torsion(psi, to_b)]
        for (eps, pmap), (b_eps, b_pmap), (c_eps, c_pmap) in zip(
                maps, b_maps, c_maps):
            ans = order_O(pull_back(b_eps, phi, bounds), pmap, bounds)
            answers.append(ans)
            if ans.found():
                to_b = transport_order(phi, b_eps, b_pmap, ans)
                answers += [to_b, transport_order(both, c_eps, c_pmap, ans),
                            transport_order(psi, c_eps, c_pmap, to_b)]
    return answers


def _flipped(cert):
    """cert with the sign of its first coefficient flipped (of z in sd's
    pair (z, y))."""
    if isinstance(cert, tuple):
        return (_flipped(cert[0]),) + cert[1:]
    (w, c), = itertools.islice(cert.terms.items(), 1)
    return type(cert)({**cert.terms, w: -c})


def _elsewhere(problem):
    """problem on another algebra, the zero structure on the same space:
    torsion and the grid read its p-hat, the orders and semi-dilation its
    zero augmentation and a zero pointed map.  No certificate solves it."""
    case, first, *rest = problem
    sp = (first if isinstance(first, BLAlgebra) else first.source).space
    zero = BLAlgebra(sp, zero_table(sp))
    if isinstance(first, BLAlgebra):
        return (case, zero, *rest)
    return (case, fixtures.zero_aug(zero),
            PointedMap(zero, zero_table(sp, parity=0)), *rest[1:])


def test_every_found_answer_reverifies_through_verify():
    # each found answer names its problem and verify re-checks it by
    # evaluation; flipping one certificate coefficient, or naming another
    # algebra in the problem, fails it.  A found answer with no
    # certificate is the grid's above its truncation, which verify accepts
    # for its n > trunc alone
    found = {}
    for ans in _searched_answers():
        assert ans.problem is not None
        if not ans.found():
            assert verify(ans)
            continue
        name = ans.problem[0].__name__
        found[name] = found.get(name, 0) + 1
        assert verify(ans), (name, ans)
        if ans.certificate is None:
            _, _, n, _, trunc = ans.problem
            assert name == "_verify_grid" and n > trunc
            continue
        for mutant in (
                TorsionAnswer(ans.kind, ans.level, _flipped(ans.certificate),
                              ans.bounds, ans.problem),
                TorsionAnswer(ans.kind, ans.level, ans.certificate,
                              ans.bounds, _elsewhere(ans.problem))):
            assert not verify(mutant), (name, ans)
    assert found["verify_torsion_certificate"] >= 55, found
    assert found["_verify_order"] >= 100, found
    assert found["_verify_sd"] >= 50, found
    assert found["_verify_grid"] >= 30, found


def test_verify_refuses_a_found_answer_with_no_problem():
    # order_O_tilde's answers name no problem: nothing re-checks them
    alg, pmap = fixtures.order_ladder(2)
    ans = order_O_tilde(fixtures.zero_aug(alg), pmap, Bounds(2, word_bound=2))
    assert ans.found() and ans.problem is None
    with pytest.raises(ValueError, match="names no problem"):
        verify(ans)
    assert verify(TorsionAnswer("not-found", bounds=B3))


def test_transport_order_pulls_nothing_back(monkeypatch):
    # the answer names the augmentation it was found at, so a transport
    # runs no pull_back (a compose and an is_augmentation check)
    from test_acceptance import _compatible_triples
    pull, calls = structures.pull_back, []

    def counted(*args):
        calls.append(args)
        return pull(*args)
    monkeypatch.setattr(structures, "pull_back", counted)
    monkeypatch.setattr(invariants, "pull_back", counted, raising=False)
    moved = 0
    for phi, p, q, _, eps in _compatible_triples():
        ans = order_O(pull(eps, phi, B3), p, B3)
        if ans.found():
            assert verify(transport_order(phi, eps, q, ans))
            moved += 1
    assert calls == [] and moved >= 5, (calls, moved)
