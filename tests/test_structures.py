import random
from fractions import Fraction

import pytest

from blinfty import fixtures
from blinfty.errors import (IncompleteTableError, InternalInconsistencyError,
                            StructureError)
from blinfty.structures import (Augmentation, BLAlgebra, BLMorphism, Bounds,
                                OperationTable, PointedMap, TRIVIAL_ALGEBRA,
                                UModule,
                                apply_hat_p, apply_hat_phi, apply_hat_pointed,
                                apply_hat_phi_bullet, check_compatibility,
                                check_morphism, check_pointed, check_structure,
                                compose, ell_table, f_eps, identity_table,
                                is_augmentation, linearize, linearize_pointed,
                                word_to_singletons, zero_table,
                                pi_single_cluster)
from blinfty.words import (EElement, EWord, Element, Generator, GradedSpace,
                           UNIT_EWORD, UNIT_WORD, Word, enumerate_basis)
from blinfty import assembly, structures

from util import (eword, one_letter_structure, oracle_check_compatibility,
                  oracle_check_morphism, oracle_check_pointed,
                  oracle_hat_phi, oracle_is_augmentation, random_space,
                  random_table, space, table, word)

B3 = Bounds(3)
B4 = Bounds(4)


# ---- operation table invariants -------------------------------------------

def test_table_rejects_k_zero():
    sp = space(("a", 0),)
    with pytest.raises(StructureError):
        OperationTable(sp, 0, [(0, 0, UNIT_WORD, Element.monomial(UNIT_WORD))])


def test_table_rejects_duplicate_cell():
    sp = space(("a", 0), ("b", 1))
    w = word(sp, "b")
    e = Element.monomial(word(sp, "a"))
    with pytest.raises(StructureError):
        OperationTable(sp, 1, [(1, 1, w, e), (1, 1, w, e)])


def test_table_rejects_outer_output():
    # outer and inner combinations share one class; the word type decides
    sp = space(("a", 0), ("b", 1))
    out = EElement.monomial(EWord((word(sp, "a"),)))
    with pytest.raises(StructureError):
        OperationTable(sp, 1, [(1, 1, word(sp, "b"), out)])


def test_table_genus_axis():
    sp = space(("q", 1),)
    q = word(sp, "q")
    e0 = Element.monomial(UNIT_WORD)
    e2 = Element.monomial(UNIT_WORD, Fraction(3))
    tab = OperationTable(sp, 1, [(1, 0, 2, q, e2), (1, 0, q, e0)])
    assert list(tab.query_by_genus(1, q)) == [(0, e0), (2, e2)]
    assert tab.query(1, q) == e0
    assert tab.cells == {(1, 0): {q: e0}}
    assert tab.sorted_entries() == [(1, 0, 0, q, e0), (1, 0, 2, q, e2)]
    with pytest.raises(StructureError):
        OperationTable(sp, 1, [(1, 0, 2, q, e2), (1, 0, 2, q, e0)])


def test_table_equality_compares_coverage():
    # a partial table reads arities above max_k as unknown, so it differs
    # from the complete table with the same cells; a complete table's max_k
    # bounds nothing
    sp = space(("a", 0), ("b", 1))
    partial = OperationTable(sp, 1, (), complete=False, max_k=1)
    assert partial != zero_table(sp)
    assert partial != OperationTable(sp, 1, (), complete=False, max_k=2)
    assert partial == OperationTable(sp, 1, (), complete=False, max_k=1)
    assert OperationTable(sp, 1, (), max_k=3) == zero_table(sp)
    x = EElement.monomial(eword(sp, ("a",), ("b",)))
    assert not assembly.apply_coderivation(zero_table(sp), x)
    with pytest.raises(IncompleteTableError):
        assembly.apply_coderivation(partial, x)


def test_table_rejects_unnormalized_input():
    sp = space(("a", 0), ("b", 0))
    with pytest.raises(StructureError):
        OperationTable(sp, 0, [(2, 1, Word((1, 0)),
                                Element.monomial(word(sp, "a")))])


def test_table_action_drop_rejects_raising():
    sp = space(("a", 1, 1), ("b", 0, 5))
    with pytest.raises(StructureError):
        table(sp, 1, [(1, 1, ("a",), [(1, ("b",))])], action_drop=True)


def test_table_refuses_an_output_letter_outside_its_target():
    # an augmentation's table maps into the empty space: a lettered output
    # has no parity there
    sp = space(("a", 0),)
    a = word(sp, "a")
    with pytest.raises(StructureError, match="outside the target"):
        OperationTable(sp, 0, [(1, 1, a, Element.monomial(a))],
                       target=GradedSpace(()))


@pytest.mark.parametrize("letter", [-1, -2, 2, 5])
@pytest.mark.parametrize("side", ["input", "output"])
def test_table_refuses_a_letter_outside_its_space(letter, side):
    # a negative index would read a generator counted from the end, and
    # one past the last has no generator at all
    sp = space(("a", 0), ("b", 0))
    bad, a = Word((letter,)), word(sp, "a")
    w_in, out = (bad, a) if side == "input" else (a, bad)
    with pytest.raises(StructureError, match="outside the"):
        OperationTable(sp, 0, [(1, 1, w_in, Element.monomial(out))])


def test_shape_checks_read_every_genus():
    # the flat operators read genus 0 only, so a cell of another shape at
    # a positive genus would be dropped without a word
    sp = space(("a", 0), ("b", 0))
    alg = BLAlgebra(sp, zero_table(sp))
    a, b, ab = word(sp, "a"), word(sp, "b"), word(sp, "a", "b")
    aug = OperationTable(sp, 0, [(1, 1, 1, a, Element.monomial(b))])
    with pytest.raises(StructureError, match="l = 0"):
        Augmentation(alg, aug)
    for k, l, g, w_in, w_out in ((2, 1, 1, ab, a), (1, 1, 1, a, b)):
        u = OperationTable(sp, 0, [(k, l, g, w_in, Element.monomial(w_out))])
        with pytest.raises(StructureError, match="linear endomorphism"):
            UModule(sp, u)


# ---- morphism checks -------------------------------------------------------

def test_structures_refuse_a_table_over_another_space():
    # an assembled operator reads its words in its table's space, while
    # windows are enumerated over the structure's; a table over another
    # space, even one with the same generators, is refused
    sp, other = space(("a", 0), ("b", 1)), space(("a", 0), ("b", 1))
    alg = BLAlgebra(sp, zero_table(sp))
    for build in (lambda: BLAlgebra(sp, zero_table(other)),
                  lambda: BLMorphism(alg, alg, zero_table(other, 0)),
                  lambda: Augmentation(alg, zero_table(other, 0)),
                  lambda: PointedMap(alg, zero_table(other, 0)),
                  lambda: UModule(sp, zero_table(other, 0))):
        with pytest.raises(StructureError):
            build()


def test_identity_morphism_verifies_on_fixture():
    alg = fixtures.planar_torsion_one()
    mor = fixtures.identity_morphism(alg)
    assert check_morphism(mor, B3).ok


def test_zero_morphism_to_trivial_when_no_constants():
    alg = fixtures.acyclic_pair()
    eps = fixtures.zero_aug(alg)
    assert is_augmentation(eps, B3).ok


def test_zero_aug_fails_on_planar_torsion():
    alg = fixtures.planar_torsion_one()
    eps = fixtures.zero_aug(alg)
    status = is_augmentation(eps, B3)
    assert not status.ok
    # q1*q2 -> 1 is the connected part on the split word (q1)(q2)
    assert status.witness == word(alg.space, "q1", "q2")


def test_all_even_shortcut():
    alg = fixtures.all_even_free(3)
    eps = fixtures.rich_even_aug(alg, [(("e0",), 7), (("e1", "e2"), -3)])
    assert is_augmentation(eps, Bounds(5)).ok


def test_corpus_augmentations_verify():
    for name, (alg, augs, _) in fixtures.corpus().items():
        assert check_structure(alg, B4).ok, name
        for eps in augs:
            assert is_augmentation(eps, B4).ok, name


def test_quadratic_aug_family_verifies():
    alg, mk = fixtures.quadratic_aug_family()
    for s in (0, 1, Fraction(5, 7)):
        assert is_augmentation(mk(s), B4).ok


def test_bounds_compare_by_value():
    assert Bounds(3, max_action=2) == Bounds(3, max_action=Fraction(2))
    assert hash(Bounds(2, word_bound=2)) == hash(Bounds(2, word_bound=2))
    assert Bounds(3) != Bounds(3, word_bound=2)
    assert Bounds(1) != Bounds(3)


@pytest.mark.parametrize("kw", [{"hbar_max": -1}, {"max_action": -1},
                                {"max_action": Fraction(-1, 2)}])
def test_bounds_refuse_a_negative_cap(kw):
    # a negative cap drops every term or word, so nothing would be checked
    with pytest.raises(ValueError, match="must be >= 0"):
        Bounds(3, **kw)


@pytest.mark.parametrize("field", ["max_letters", "word_bound"])
def test_bounds_refuse_a_negative_bound_naming_it(field):
    # no word has fewer than zero letters or clusters: a negative bound is
    # refused for its value, and zero stays accepted
    with pytest.raises(ValueError, match="^%s must be >= 0, got -1$" % field):
        Bounds(**{"max_letters": 3, field: -1})
    assert getattr(Bounds(**{"max_letters": 3, field: 0}), field) == 0


def test_bounds_accept_a_zero_cap():
    b = Bounds(3, max_action=0, hbar_max=0)
    assert (b.max_action, b.hbar_max) == (0, 0)


def test_check_morphism_reads_structure_status_at_its_bounds():
    # the identity commutes with any table, so only the structure check
    # can reject these morphisms
    fresh = one_letter_structure()
    with pytest.raises(StructureError):
        check_morphism(BLMorphism(fresh, fresh, identity_table(fresh.space)),
                       B3)
    checked_small = one_letter_structure()
    assert check_structure(checked_small, Bounds(1)).ok
    with pytest.raises(StructureError):
        check_morphism(BLMorphism(checked_small, checked_small,
                                  identity_table(checked_small.space)), B3)


def _six_checks():
    """(name, the objects a check is given, the call) for each check."""
    from blinfty.ibl import check_ibl
    alg = fixtures.linearizable()
    eps = fixtures.linearizable_aug(alg, 1)
    mor = fixtures.identity_morphism(alg)
    alg2, pmap = fixtures.pointed_two()
    mor2 = fixtures.identity_morphism(alg2)
    ialg = fixtures.planar_torsion_one()
    bullet = zero_table(alg2.space, parity=1)
    return [
        ("check_structure", [alg], lambda: check_structure(alg, B3)),
        ("check_morphism", [mor, alg], lambda: check_morphism(mor, B3)),
        ("is_augmentation", [eps, alg],
         lambda: is_augmentation(eps, B3)),
        ("check_pointed", [pmap, alg2],
         lambda: check_pointed(pmap, B3)),
        ("check_compatibility", [mor2, pmap, alg2],
         lambda: check_compatibility(mor2, pmap, pmap, bullet, B3)),
        ("check_ibl", [ialg], lambda: check_ibl(ialg, 2, B3)),
    ]


@pytest.mark.parametrize("name", [name for name, _, _ in _six_checks()])
def test_checks_do_not_change_their_arguments(name):
    _, objects, call = next(c for c in _six_checks() if c[0] == name)
    before = [dict(vars(obj)) for obj in objects]
    assert call().ok
    assert [vars(obj) for obj in objects] == before


# ---- composition ------------------------------------------------------------

def test_compose_with_identity():
    alg = fixtures.acyclic_pair()
    sp = alg.space
    phi = BLMorphism(alg, alg, table(sp, 0, [
        (1, 1, ("a",), [(2, ("a",))]),
        (1, 1, ("b",), [(2, ("b",))]),
        (2, 1, ("a", "b"), [(1, ("b",))]),
    ], complete=True))
    ident = fixtures.identity_morphism(alg)
    comp = compose(ident, phi, B3)
    for k in phi.table.input_sizes():
        for w in enumerate_basis(sp, 3):
            if len(w) != k:
                continue
            assert comp.table.query(k, w) == phi.table.query(k, w)


def _oracle_morphism(sp, tab, x):
    out = EElement()
    for ew, c in x.terms.items():
        out = out + c * oracle_hat_phi(sp, sp, tab, ew)
    return out


def test_compose_matches_evaluation_oracle():
    # every composed entry is pi_1 of the oracle morphism applied twice
    rng = random.Random(97)
    pairs = 0
    while pairs < 200:
        sp = random_space(rng, n=rng.choice((2, 3)))
        if not any(sp.parities):
            continue
        alg = BLAlgebra(sp, zero_table(sp))
        t1 = random_table(rng, sp, parity=0, n_entries=3, max_k=3, max_l=2)
        t2 = random_table(rng, sp, parity=0, n_entries=3, max_k=3, max_l=2)
        comp = compose(BLMorphism(alg, alg, t2), BLMorphism(alg, alg, t1), B3)
        for w in enumerate_basis(sp, 3):
            if len(w) < 1:
                continue
            x = EElement.monomial(word_to_singletons(w))
            parts = pi_single_cluster(
                _oracle_morphism(sp, t2, _oracle_morphism(sp, t1, x)))
            assert comp.table.query(len(w), w) == \
                sum(parts.values(), Element()), (sp.parities, w)
        pairs += 1


def test_compose_raises_when_phi_misses_the_longest_word():
    alg = fixtures.acyclic_pair()
    sp = alg.space
    phi = BLMorphism(alg, alg, table(sp, 0, [(1, 1, ("a",), [(1, ("a",))]),
                                             (1, 1, ("b",), [(1, ("b",))])],
                                     complete=False, max_k=2))
    ident = fixtures.identity_morphism(alg)
    assert compose(ident, phi, Bounds(2)).table.max_k == 2
    with pytest.raises(IncompleteTableError):
        compose(ident, phi, B3)


def test_composed_augmentation_verifies():
    # eps o phi is an augmentation of the source
    alg = fixtures.all_even_free(2)
    sp = alg.space
    phi = BLMorphism(alg, alg, table(sp, 0, [
        (1, 1, ("e0",), [(2, ("e0",))]),
        (1, 1, ("e1",), [(1, ("e1",))]),
        (2, 1, ("e0", "e1"), [(3, ("e0",))]),
        (1, 0, ("e1",), [(1, ())]),
    ]))
    assert check_morphism(phi, B3).ok
    eps = fixtures.rich_even_aug(alg, [(("e0",), 1), (("e0", "e1"), -1)])
    comp = compose(eps, phi, B3)
    eps2 = Augmentation(alg, comp.table)
    assert is_augmentation(eps2, B3).ok
    # spot value: (eps o phi)^1(e0) = eps^1(2 e0) = 2
    assert comp.table.query(1, word(sp, "e0")) == \
        Element.monomial(UNIT_WORD, Fraction(2))


# ---- F_eps and linearization ------------------------------------------------

def test_f_eps_zero_is_identity():
    alg = fixtures.acyclic_pair()
    eps = fixtures.zero_aug(alg)
    f = f_eps(eps)
    for ew in enumerate_basis(alg.space, 3, outer_components=3):
        x = EElement.monomial(ew)
        assert apply_hat_phi(f, x) == x


@pytest.mark.parametrize("name", ["linearizable", "quadratic-aug", "all-even"])
def test_f_eps_inverse_property(name):
    alg, augs, _ = fixtures.corpus()[name]
    for eps in augs:
        fp = f_eps(eps, +1)
        fm = f_eps(eps, -1)
        for ew in enumerate_basis(alg.space, 3, outer_components=3):
            x = EElement.monomial(ew)
            assert apply_hat_phi(fm, apply_hat_phi(fp, x)) == x
            assert apply_hat_phi(fp, apply_hat_phi(fm, x)) == x


def test_f_eps_shifts_by_constant():
    alg, mk = fixtures.quadratic_aug_family()
    eps = mk(Fraction(3))
    f = f_eps(eps, +1)
    sp = alg.space
    x = EElement.monomial(eword(sp, ("q1",), ("q2",)))
    got = apply_hat_phi(f, x)
    assert got == x + EElement.monomial(UNIT_EWORD, Fraction(3))


def test_linearize_with_zero_aug_returns_table():
    alg = fixtures.acyclic_pair()
    eps = fixtures.zero_aug(alg)
    lin = linearize(eps, B3)
    for k in alg.table.input_sizes():
        for w in enumerate_basis(alg.space, 3):
            if len(w) == k:
                assert lin.query(k, w) == alg.table.query(k, w)


def test_linearize_kills_constants_and_produces_corrections():
    alg = fixtures.linearizable()
    sp = alg.space
    eps = fixtures.linearizable_aug(alg, 1)
    assert is_augmentation(eps, B4).ok
    lin = linearize(eps, B4)
    assert all(l != 0 for (_, l) in lin.cells)
    # frozen by hand: the conjugated differential of t picks up the y term
    lt = ell_table(lin)
    got = lt.query(1, word(sp, "t"))
    assert got == Element.monomial(word(sp, "y"))


def test_linearize_inconsistency_detected():
    # a functional that is not an augmentation leaves constant terms
    alg = fixtures.torsion_zero()
    bad = Augmentation(alg, OperationTable(alg.space, 0, (),
                                           target=fixtures.GradedSpace(())))
    with pytest.raises(InternalInconsistencyError):
        linearize(bad, B3)


def test_linearize_reads_the_genus_zero_augmentation_cells_only():
    # the flat operators glue genus-zero forests only, so a genus-1
    # constant on x is the zero augmentation to linearize as to eps-hat
    alg = fixtures.linearizable()
    sp = alg.space
    eps = Augmentation(alg, OperationTable(
        sp, 0, [(1, 0, 1, word(sp, "x"), Element.monomial(UNIT_WORD))],
        target=GradedSpace(())))
    assert is_augmentation(eps, B3).ok
    assert linearize(eps, B3) == linearize(fixtures.zero_aug(alg), B3)


def quadratic_defect(sp, lt, max_letters):
    """Direct check that the l=1 family satisfies the homotopy Jacobi
    relation: the squared bar differential on inner words."""
    from blinfty.assembly import apply_inner_coderivation
    for w in enumerate_basis(sp, max_letters):
        if len(w) < 1:
            continue
        e = Element.monomial(w)
        dd = apply_inner_coderivation(lt, apply_inner_coderivation(lt, e))
        if dd:
            return w, dd
    return None


@pytest.mark.parametrize("name", ["linearizable", "quadratic-aug",
                                  "acyclic-pair", "zero-mixed"])
def test_linearized_ell_satisfies_quadratic_relation(name):
    alg, augs, _ = fixtures.corpus()[name]
    for eps in augs:
        lin = linearize(eps, B4)
        assert quadratic_defect(alg.space, ell_table(lin), 4) is None


# ---- pointed maps -----------------------------------------------------------

def test_structure_is_pointed_over_itself():
    alg = fixtures.planar_torsion_one()
    pmap = PointedMap(alg, alg.table)
    assert check_pointed(pmap, B3).ok


def test_pointed_one_fixture():
    alg, pmap = fixtures.pointed_one()
    assert check_pointed(pmap, B3).ok
    sp = alg.space
    x = EElement.monomial(eword(sp, ("g",), ("g",)))
    got = apply_hat_pointed(pmap, x)
    assert got == EElement.monomial(eword(sp, (), ("g",)), Fraction(2))


def test_random_pointed_check_matches_direct_evaluation():
    rng = random.Random(113)
    hits = 0
    for _ in range(20):
        sp = random_space(rng, n=2)
        ptab = random_table(rng, sp, parity=rng.randrange(2), n_entries=2,
                            max_k=2, max_l=2)
        alg = BLAlgebra(sp, random_table(rng, sp, n_entries=2, max_k=2,
                                         max_l=2))
        pmap = PointedMap(alg, ptab)
        verdict = check_pointed(pmap, Bounds(2)).ok
        assert verdict == oracle_check_pointed(pmap, alg, Bounds(2))
        hits += verdict
    assert hits < 20  # generic tables do fail


# ---- split-word checks against the full-window oracles ----------------------

def _partial_of(tab, max_k):
    """tab's entries of arity at most max_k, declared incomplete above it."""
    return OperationTable(tab.space, tab.parity,
                          [e for e in tab.sorted_entries() if e[0] <= max_k],
                          complete=False, max_k=max_k, target=tab.target)


def _verdict(ok):
    try:
        return ok()
    except IncompleteTableError:
        return "incomplete"


def _random_window(rng):
    """A space and a window: max_letters 2-4, word_bound None or 1-3, and
    in one round of three a max_action over generators of action 1 or 2."""
    n = rng.randint(2, 3)
    acted = rng.randrange(3) == 0
    sp = GradedSpace([Generator("g%d" % i, 1 if i == 0 else rng.randrange(2),
                                action=rng.randint(1, 2) if acted else None)
                      for i in range(n)])
    return sp, Bounds(rng.randint(2, 4),
                      word_bound=rng.choice([None, 1, 2, 3]),
                      max_action=rng.randint(2, 4) if acted else None)


def _longest_split_word(sp, bounds):
    return max(len(w) for w in enumerate_basis(
        sp, min(bounds.max_letters, bounds.outer()), bounds.max_action))


def test_split_word_checks_match_full_window_oracles():
    # is_augmentation, check_pointed and check_morphism test the connected
    # part of their identity on the split words of at most bounds.outer()
    # letters; the oracles test the identity on every outer word of the
    # window.  They must give the same ok.  With partial tables the split
    # check must answer, and alike, wherever the oracle answers.  Where only
    # the split check answers, the split words are cut short by odd
    # letters, which a split word cannot repeat, while the window's outer
    # words may repeat an even cluster such as (g0 g1) and so have more
    # lettered clusters than the tables cover
    rng = random.Random(1212)
    seen = {}  # (check, oracle verdict, split verdict) -> count
    acted = 0

    def compare(name, oracle, check, sp, bounds):
        want = _verdict(oracle)
        got = _verdict(lambda: check().ok)
        key = (name, want, got)
        seen[key] = seen.get(key, 0) + 1
        if want == "incomplete" and got != "incomplete":
            assert _longest_split_word(sp, bounds) < min(
                bounds.max_letters, bounds.outer()), key
        else:
            assert got == want, key

    for _ in range(70):
        sp, bounds = _random_window(rng)
        acted += bounds.max_action is not None
        p = random_table(rng, sp, max_k=3, max_l=2,
                         n_entries=rng.randint(1, 3))
        e = random_table(rng, sp, max_k=3, max_l=0, parity=0,
                         n_entries=rng.randint(1, 3))
        q = random_table(rng, sp, max_k=3, max_l=2, parity=rng.randrange(2),
                         n_entries=rng.randint(1, 3))
        for pk in (None, 1, 2):
            alg = BLAlgebra(sp, p if pk is None else _partial_of(p, pk))
            for ek in (None, 1, 2):
                eps = Augmentation(alg,
                                   e if ek is None else _partial_of(e, ek))
                compare("augmentation",
                        lambda: oracle_is_augmentation(eps, alg, bounds),
                        lambda: is_augmentation(eps, bounds), sp, bounds)
            for qk in (None, 1, 2):
                pmap = PointedMap(alg, q if qk is None else _partial_of(q, qk))
                compare("pointed",
                        lambda: oracle_check_pointed(pmap, alg, bounds),
                        lambda: check_pointed(pmap, bounds), sp, bounds)
    morphisms = 0
    while morphisms < 40:
        # random structures that pass check_structure, and a morphism that
        # is the identity on most generators plus a few random entries
        sp, bounds = _random_window(rng)
        src, tgt = [BLAlgebra(sp, random_table(rng, sp, max_k=3, max_l=2,
                                               n_entries=rng.randint(1, 3)))
                    for _ in range(2)]
        if rng.randrange(2):
            tgt = src
        if not (check_structure(src, bounds).ok
                and check_structure(tgt, bounds).ok):
            continue
        morphisms += 1
        acted += bounds.max_action is not None
        cells = {(k, l, w): elem for (k, l, _, w, elem) in random_table(
            rng, sp, max_k=3, max_l=2, parity=0,
            n_entries=rng.randint(0, 2)).sorted_entries()}
        for i in range(len(sp)):
            if rng.randrange(5):
                w = Word((i,))
                cells[1, 1, w] = (cells.get((1, 1, w), Element())
                                  + Element.monomial(w))
        phi = OperationTable(sp, 0, [(k, l, w, elem) for (k, l, w), elem
                                     in cells.items() if elem])
        for fk in (None, 1, 2):
            mor = BLMorphism(src, tgt,
                             phi if fk is None else _partial_of(phi, fk))
            compare("morphism", lambda: oracle_check_morphism(mor, bounds),
                    lambda: check_morphism(mor, bounds), sp, bounds)
    for name in ("augmentation", "pointed", "morphism"):
        counts = {(want, got): n for (check, want, got), n in seen.items()
                  if check == name}
        assert counts.get((True, True), 0) >= 20, (name, counts)
        assert counts.get((False, False), 0) >= 20, (name, counts)
        assert counts.get(("incomplete", "incomplete"), 0) >= 5, (name, counts)
    assert acted >= 20


def test_outer_cap_keeps_word_bounded_windows():
    # with word_bound 1 only one-cluster outer words are in the window, and
    # on a one-cluster word p-hat applies only one-input operations, so the
    # zero augmentation of the q1*q2 -> 1 structure passes.  The split
    # words of at most outer() = 1 letter agree; the split word (q1)(q2),
    # outside that cap, would fail
    alg = fixtures.planar_torsion_one()
    eps = fixtures.zero_aug(alg)
    bounds = Bounds(3, word_bound=1)
    assert oracle_is_augmentation(eps, alg, bounds)
    assert is_augmentation(eps, bounds).ok
    assert not oracle_is_augmentation(eps, alg, Bounds(3, word_bound=2))
    uncapped = structures._check_split_words(
        alg, bounds, None, lambda image, x: assembly.apply_morphism(
            eps.table, image(alg.table, x), single_cluster=True))
    assert uncapped.witness == word(alg.space, "q1", "q2")


# ---- pointed morphism assembly / compatibility ------------------------------

def test_phi_bullet_vanishes_on_pure_units():
    alg = fixtures.zero_structure((1,))
    sp = alg.space
    phi = fixtures.identity_morphism(alg)
    pb = table(sp, 1, [(1, 0, ("z0",), [(1, ())])])
    x = EElement.monomial(EWord((UNIT_WORD, UNIT_WORD)))
    assert not apply_hat_phi_bullet(phi, pb, x, 1)


def test_compat_trivial_data():
    alg, pmap = fixtures.pointed_one()
    phi = fixtures.identity_morphism(alg)
    zero_bullet = zero_table(alg.space, parity=1)
    status = check_compatibility(phi, pmap, pmap, zero_bullet, B3)
    assert status.ok


def test_compat_p0_vs_zero_pointed_fails():
    # with both structures zero and phi = id, the four-term identity forces
    # the two pointed maps to be equal: over the one-even-generator space
    # every parity-1 homotopy table vanishes, so q_bullet = 0 cannot work
    alg, pmap = fixtures.pointed_one()
    phi = fixtures.identity_morphism(alg)
    qmap = PointedMap(alg, zero_table(alg.space, parity=0))
    pb = zero_table(alg.space, parity=1)
    status = check_compatibility(phi, pmap, qmap, pb, B3)
    assert not status.ok


def commutator_pointed(alg, phi_bullet, parity_bullet):
    """q = p_bullet + [p, phi_bullet]-type corrections, built by evaluation:
    the graded commutator of a coderivation with the structure is again
    assembled from its single-cluster components."""
    sp = alg.space
    sgn = -1 if parity_bullet % 2 else 1
    entries = {}
    for w in enumerate_basis(sp, 3):
        if len(w) < 1:
            continue
        x = EElement.monomial(word_to_singletons(w))
        com = (apply_hat_p(alg, assembly.apply_coderivation(phi_bullet, x))
               - sgn * assembly.apply_coderivation(
                   phi_bullet, apply_hat_p(alg, x)))
        for (l, _), e in pi_single_cluster(com).items():
            entries[(len(w), l, w)] = e
    rows = [(k, l, w, e) for (k, l, w), e in entries.items()]
    return OperationTable(sp, (parity_bullet + 1) % 2, rows, complete=False,
                          max_k=3)


def test_compat_commutator_construction():
    rng = random.Random(131)
    built = 0
    for _ in range(12):
        sp = random_space(rng, n=2)
        # a random differential-only structure: odd -> even, squares to zero
        rows = []
        odd = [i for i in range(len(sp)) if sp.parities[i]]
        even = [i for i in range(len(sp)) if not sp.parities[i]]
        if odd and even:
            rows.append((1, 1, Word((odd[0],)),
                         Element.monomial(Word((even[0],)),
                                          Fraction(rng.randint(1, 3)))))
        alg = BLAlgebra(sp, OperationTable(sp, 1, rows))
        assert check_structure(alg, B3).ok
        ptab = random_table(rng, sp, parity=0, n_entries=2, max_k=2, max_l=1)
        pmap = PointedMap(alg, ptab)
        if not check_pointed(pmap, B3).ok:
            continue
        fb = random_table(rng, sp, parity=1, n_entries=2, max_k=2, max_l=1)
        qtab_corr = commutator_pointed(alg, fb, 1)
        merged = {}
        for (k, l, _, w, e) in ptab.sorted_entries():
            merged[(k, l, w)] = e
        for (k, l, _, w, e) in qtab_corr.sorted_entries():
            merged[(k, l, w)] = merged.get((k, l, w), Element()) + e
        qtab = OperationTable(sp, 0,
                              [(k, l, w, e) for (k, l, w), e in merged.items()
                               if e], complete=False, max_k=3)
        qmap = PointedMap(alg, qtab)
        phi = fixtures.identity_morphism(alg)
        status = check_compatibility(phi, pmap, qmap, fb, Bounds(2))
        assert status.ok, (sp.parities, ptab.cells, fb.cells)
        built += 1
    assert built >= 5


def _scaled(tab, lam):
    """The table transported along the scaling g_i -> lam[i] g_i: each
    entry w -> c u becomes w -> c lam^u / lam^w."""
    def weight(word):
        out = Fraction(1)
        for i in word.letters:
            out *= lam[i]
        return out
    return OperationTable(tab.space, tab.parity, [
        (k, l, g, w, Element({u: c * weight(u) / weight(w)
                              for u, c in e.terms.items()}))
        for (k, l, g, w, e) in tab.sorted_entries()])


def _diagonal(sp, lam):
    return OperationTable(sp, 0, [(1, 1, Word((i,)),
                                   Element.monomial(Word((i,)), lam[i]))
                                  for i in range(len(sp))])


def _random_compatibility_case(rng):
    """(phi, p_bullet, q_bullet, phi_bullet table, bounds, kind), or None
    when a drawn structure fails its check.

    phi starts from a random structure p on 2-3 generators.  In kinds
    'solved' and 'perturbed' it is the scaling by random nonzero rationals
    onto the transported structure, q_bullet is solved from the identity
    by evaluation on split words through the inverse scaling, and
    'perturbed' adds one random entry of arity at most 3 to it.  In kind 'unrelated' the
    target is another random structure, so the scaling is seldom a
    morphism, with q_bullet solved the same way.  In kind 'random', phi is
    the identity plus a random entry and q_bullet is random."""
    sp = random_space(rng, n=rng.randint(2, 3))
    bounds = rng.choice([Bounds(2), Bounds(3), Bounds(3, word_bound=2)])
    src = BLAlgebra(sp, random_table(rng, sp, max_k=2, max_l=2,
                                     n_entries=rng.randint(1, 2)))
    if not check_structure(src, bounds).ok:
        return None
    d = rng.randrange(2)
    bp = (d + 1) % 2
    kind = rng.choice(["solved", "solved", "perturbed", "perturbed",
                       "unrelated", "random"])
    p_bullet = PointedMap(src, random_table(rng, sp, max_k=2, max_l=1,
                                            parity=d,
                                            n_entries=rng.randint(1, 2)))
    fb = random_table(rng, sp, max_k=2, max_l=1, parity=bp,
                      n_entries=rng.randint(0, 2))
    lam = [Fraction(rng.choice([1, 2, -1, 3, Fraction(1, 2)]))
           for _ in range(len(sp))]
    tgt = BLAlgebra(sp, _scaled(src.table, lam))
    if kind == "unrelated":
        tgt = BLAlgebra(sp, random_table(rng, sp, max_k=2, max_l=2,
                                         n_entries=rng.randint(1, 2)))
        if not check_structure(tgt, bounds).ok:
            return None
    phi = BLMorphism(src, tgt, _diagonal(sp, lam))
    if kind == "random":
        cells = {(k, l, w): e for (k, l, _, w, e) in random_table(
            rng, sp, max_k=2, max_l=2, parity=0,
            n_entries=rng.randint(1, 2)).sorted_entries()}
        for i in range(len(sp)):
            w = Word((i,))
            cells[1, 1, w] = cells.get((1, 1, w), Element()) + \
                Element.monomial(w)
        phi = BLMorphism(src, tgt, OperationTable(
            sp, 0, [(k, l, w, e) for (k, l, w), e in cells.items() if e]))
        q_table = random_table(rng, sp, max_k=2, max_l=1, parity=d,
                               n_entries=rng.randint(1, 2))
    else:
        inverse = _diagonal(sp, [1 / c for c in lam])

        def solved(x):
            y = assembly.apply_morphism(inverse, x)
            return ((-1) ** d * apply_hat_phi(
                        phi, apply_hat_pointed(p_bullet, y))
                    + apply_hat_p(tgt, apply_hat_phi_bullet(phi, fb, y, bp))
                    - (-1) ** bp * apply_hat_phi_bullet(
                        phi, fb, apply_hat_p(src, y), bp))
        q_table = structures._split_word_table(sp, solved, d, bounds)
        if kind == "perturbed":
            cells = {(k, l, w): e
                     for (k, l, _, w, e) in q_table.sorted_entries()}
            for (k, l, _, w, e) in random_table(
                    rng, sp, max_k=3, max_l=1, parity=d,
                    n_entries=1).sorted_entries():
                cells[k, l, w] = cells.get((k, l, w), Element()) + e
            q_table = OperationTable(
                sp, d, [(k, l, w, e) for (k, l, w), e in cells.items() if e],
                complete=False, max_k=bounds.max_letters)
    return (phi, p_bullet, PointedMap(tgt, q_table), fb, bounds, kind)


def test_compatibility_check_matches_full_window_oracle():
    # check_compatibility tests the connected part of the four-term
    # identity on the split words of at most bounds.outer() letters; the
    # oracle tests the identity on every outer word of the window.  The
    # connected part decides only when phi is a morphism: with 'unrelated'
    # targets the solved q_bullet makes it vanish while the identity
    # fails, so the check must refuse such a phi
    rng = random.Random(1414)
    seen = {}  # (verdict, kind, parity d, phi the identity) -> count
    compared = 0
    while compared < 300:
        case = _random_compatibility_case(rng)
        if case is None:
            continue
        phi, p_bullet, q_bullet, fb, bounds, kind = case
        if check_morphism(phi, bounds).ok:
            compared += 1
            want = oracle_check_compatibility(phi, p_bullet, q_bullet, fb,
                                              bounds)
            assert check_compatibility(phi, p_bullet, q_bullet, fb,
                                       bounds).ok == want, (kind, bounds)
        else:
            want = "refused"
            with pytest.raises(StructureError, match="^morphism fails"):
                check_compatibility(phi, p_bullet, q_bullet, fb, bounds)
            if kind == "unrelated" and not oracle_check_compatibility(
                    phi, p_bullet, q_bullet, fb, bounds):
                want = "refused, identity fails"
        key = (want, kind, p_bullet.parity,
               phi.table == identity_table(phi.source.space))
        seen[key] = seen.get(key, 0) + 1

    def count(**where):
        names = ("want", "kind", "d", "identity")
        return sum(n for key, n in seen.items()
                   if all(dict(zip(names, key))[k] == v
                          for k, v in where.items()))
    assert count(want=True) >= 100 and count(want=False) >= 100, seen
    for want in (True, False):
        for d in (0, 1):
            assert count(want=want, d=d, identity=False) >= 20, seen
    assert count(want="refused, identity fails") >= 10, seen
    assert count(kind="solved", want=False) == 0, seen


def test_composition_coherence_on_outer_words():
    # the composed table assembles to the composite on every basis word
    rng = random.Random(171)
    for _ in range(6):
        sp = random_space(rng, n=2)
        alg = BLAlgebra(sp, zero_table(sp))
        t1 = random_table(rng, sp, parity=0, n_entries=3, max_k=2, max_l=2)
        t2 = random_table(rng, sp, parity=0, n_entries=3, max_k=2, max_l=2)
        phi = BLMorphism(alg, alg, t1)
        psi = BLMorphism(alg, alg, t2)
        comp = compose(psi, phi, Bounds(4))
        for ew in enumerate_basis(sp, 3, outer_components=2):
            x = EElement.monomial(ew)
            assert apply_hat_phi(comp, x) == \
                apply_hat_phi(psi, apply_hat_phi(phi, x)), (ew,)


def _oracle_twice(sp, first, second, x):
    """second-hat after first-hat on x, each by oracle_hat_phi."""
    out = EElement()
    for ew, c in x.terms.items():
        for ew1, c1 in oracle_hat_phi(sp, sp, first, ew).terms.items():
            out = out + (c * c1) * oracle_hat_phi(sp, sp, second, ew1)
    return out


def test_composition_coherence_against_the_oracle():
    # compose(psi, phi) applied once and phi then psi, each against
    # oracle_hat_phi applied twice: a sign error that both sides share
    # through the gluing step fails here, where the two sides compared
    # with each other agree.  Spaces with odd generators; outer words of at
    # most 4 letters in up to 3 clusters, where the blocks of one
    # component are regrouped past those of another
    rng = random.Random(2929)
    seen = {"nonzero": 0, "odd terms": 0}
    for _ in range(12):
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(rng.randint(2, 3))])
        alg = BLAlgebra(sp, zero_table(sp))
        phi, psi = (BLMorphism(alg, alg, random_table(
            rng, sp, parity=0, n_entries=4, max_k=2, max_l=2))
            for _ in range(2))
        comp = compose(psi, phi, B4)
        words = enumerate_basis(sp, 4, outer_components=3)
        for ew in rng.sample(words, min(len(words), 40)):
            x = EElement.monomial(ew)
            want = _oracle_twice(sp, phi.table, psi.table, x)
            assert apply_hat_phi(comp, x) == want, ew
            assert apply_hat_phi(psi, apply_hat_phi(phi, x)) == want, ew
            seen["nonzero"] += bool(want)
            seen["odd terms"] += any(sp.word_parity(c.letters)
                                     for ew2 in want.terms
                                     for c in ew2.clusters)
    assert min(seen.values()) >= 40, seen


def test_check_morphism_checks_an_endomorphisms_algebra_once(monkeypatch):
    from blinfty import structures
    calls = []
    check = structures.check_structure

    def counted(alg, bounds, images=None):
        calls.append(alg)
        return check(alg, bounds, images)
    monkeypatch.setattr(structures, "check_structure", counted)
    alg = fixtures.planar_torsion_one()
    assert check_morphism(fixtures.identity_morphism(alg), B3).ok
    assert len(calls) == 1 and calls[0] is alg
    # two equal algebras are still two algebras
    twin = fixtures.planar_torsion_one()
    calls.clear()
    assert check_morphism(BLMorphism(alg, twin, identity_table(alg.space)),
                          B3).ok
    assert [a is b for a, b in zip(calls, (alg, twin))] == [True, True]
