import random
from fractions import Fraction

import pytest

from blinfty.errors import IncompleteTableError, InternalInconsistencyError
from blinfty.ibl import apply_hat_p_ibl, check_ibl
from blinfty.structures import (Augmentation, Bounds, apply_hat_p,
                                apply_hat_phi, apply_hat_pointed,
                                check_structure, compose, linearize,
                                linearize_pointed, pi_single_cluster,
                                _check_split_words,
                                two_level, BLAlgebra, BLMorphism,
                                OperationTable, PointedMap, identity_table,
                                word_to_singletons)
from blinfty.words import (EElement, EWord, Element, UNIT_EWORD, UNIT_WORD,
                           Word, enumerate_basis, normalize_clusters,
                           normalize_word)
from blinfty import assembly
from blinfty import io as bio

from util import (algebra, bubble_normalize, eword, eword_action,
                  eword_parity, components, forest_check, oracle_check_ibl,
                  oracle_hat_p, oracle_hat_phi,
                  oracle_two_level, random_space, random_table, space, table,
                  unpruned_morphism_blocks, word)


def fixture_a():
    # the q1*q2 -> 1 cell needs |q1|+|q2| odd for a parity-1 table
    sp = space(("q1", 1), ("q2", 0))
    return algebra(sp, [(2, 0, ("q1", "q2"), [(1, ())])])


def test_fixture_a_two_clusters_gives_unit():
    alg = fixture_a()
    sp = alg.space
    x = EElement.monomial(eword(sp, ("q1",), ("q2",)))
    assert apply_hat_p(alg, x) == EElement.monomial(UNIT_EWORD)


def test_fixture_a_single_cluster_acyclicity():
    alg = fixture_a()
    sp = alg.space
    x = EElement.monomial(eword(sp, ("q1", "q2")))
    assert not apply_hat_p(alg, x)


def test_unit_cluster_passes_through():
    alg = fixture_a()
    sp = alg.space
    x = EElement.monomial(eword(sp, ("q1",), ("q2",), ()))
    got = apply_hat_p(alg, x)
    assert got == EElement.monomial(EWord((UNIT_WORD, UNIT_WORD)))


def test_pure_units_killed():
    alg = fixture_a()
    x = EElement.monomial(EWord((UNIT_WORD, UNIT_WORD)))
    assert not apply_hat_p(alg, x)


def test_hat_p_parity_shift():
    rng = random.Random(101)
    for _ in range(15):
        sp = random_space(rng)
        tab = random_table(rng, sp)
        alg = BLAlgebra(sp, tab)
        for ew in enumerate_basis(sp, 3, outer_components=2):
            out = apply_hat_p(alg, EElement.monomial(ew))
            for ew2 in out.terms:
                assert eword_parity(sp, ew2) == (eword_parity(sp, ew) + 1) % 2


def test_hat_p_matches_exhaustive_gluing_oracle():
    rng = random.Random(17)
    for _ in range(25):
        sp = random_space(rng)
        tab = random_table(rng, sp, n_entries=rng.randint(1, 5))
        alg = BLAlgebra(sp, tab)
        ewords = [e for e in enumerate_basis(sp, 4, outer_components=3)]
        rng.shuffle(ewords)
        for ew in ewords[:12]:
            got = apply_hat_p(alg, EElement.monomial(ew))
            want = oracle_hat_p(sp, tab, ew)
            assert got == want, (ew, tab.cells)


def test_two_level_fixture_a_vanishes():
    alg = fixture_a()
    w = word(alg.space, "q1", "q2")
    assert not two_level(alg, 2, 0, w)


def test_two_level_differential_square():
    # lone p^{1,1} = D with D^2 != 0 on a two-step even/odd ladder
    sp = space(("x", 0), ("y", 1), ("z", 0))
    alg = algebra(sp, [(1, 1, ("x",), [(1, ("y",))]),
                       (1, 1, ("y",), [(1, ("z",))])])
    got = two_level(alg, 1, 1, word(sp, "x"))
    assert got == Element.monomial(word(sp, "z"))


def test_two_level_matches_two_vertex_oracle():
    rng = random.Random(29)
    for _ in range(25):
        sp = random_space(rng)
        tab = random_table(rng, sp, n_entries=rng.randint(1, 5))
        alg = BLAlgebra(sp, tab)
        for w in enumerate_basis(sp, 3):
            if len(w) == 0:
                continue
            full = {}
            for l in range(0, 8):
                e = two_level(alg, len(w), l, w)
                for ww, c in e.terms.items():
                    full[ww] = c
            want = oracle_two_level(sp, tab, w)
            assert Element(full) == want


def test_check_structure_fixture_a_verified():
    alg = fixture_a()
    status = check_structure(alg, Bounds(4))
    assert status.ok


def test_check_structure_failure_witness():
    sp = space(("x", 0), ("y", 1), ("z", 0))
    alg = algebra(sp, [(1, 1, ("x",), [(1, ("y",))]),
                       (1, 1, ("y",), [(1, ("z",))])])
    status = check_structure(alg, Bounds(3))
    assert not status.ok
    k, l, w = status.witness
    assert (k, l) == (1, 1) and w == word(sp, "x")


def test_check_structure_agrees_with_hat_p_squared():
    rng = random.Random(41)
    for _ in range(30):
        sp = random_space(rng)
        tab = random_table(rng, sp, n_entries=rng.randint(1, 4))
        alg = BLAlgebra(sp, tab)
        verdict = check_structure(alg, Bounds(3)).ok
        direct = True
        for ew in enumerate_basis(sp, 3, outer_components=3):
            if apply_hat_p(alg, apply_hat_p(alg, EElement.monomial(ew))):
                direct = False
                break
        assert verdict == direct


def test_l0_only_tables_are_structures():
    # tables whose every cell has l = 0 cannot form two-level gluings
    rng = random.Random(53)
    for _ in range(10):
        sp = random_space(rng)
        tab = random_table(rng, sp, max_l=0, n_entries=3)
        alg = BLAlgebra(sp, tab)
        assert check_structure(alg, Bounds(4)).ok


def test_incomplete_table_reports():
    sp = space(("q1", 1), ("q2", 0))
    tab = table(sp, 1, [(2, 0, ("q1", "q2"), [(1, ())])], complete=False)
    alg = BLAlgebra(sp, tab)
    x = EElement.monomial(eword(sp, ("q1",), ("q2",), ("q1", "q2")))
    with pytest.raises(IncompleteTableError):
        apply_hat_p(alg, x)


def test_partial_morphism_evaluates_one_cluster_of_two_letters():
    # a block takes at most one letter of a cluster, so a max_k = 1 table
    # determines the morphism on (a.b): only the blocks {a}, {b} glue
    sp = space(("a", 0), ("b", 1))
    ident = OperationTable(sp, 0, identity_table(sp).sorted_entries(),
                           complete=False, max_k=1)
    alg = algebra(sp, [])
    x = EElement.monomial(eword(sp, ("a", "b")))
    assert apply_hat_phi(BLMorphism(alg, alg, ident), x) == x


def test_action_drop_propagates():
    sp = space(("q1", 1, 1), ("q2", 0, 2))
    tab = table(sp, 1, [(2, 0, ("q1", "q2"), [(1, ())]),
                        (1, 1, ("q2",), [(1, ("q1",))])], action_drop=True)
    alg = BLAlgebra(sp, tab)
    for ew in enumerate_basis(sp, 3, outer_components=2):
        got = apply_hat_p(alg, EElement.monomial(ew))
        for out in got.terms:
            assert eword_action(sp, out) <= eword_action(sp, ew)


def test_identity_morphism_is_identity():
    sp = space(("a", 0), ("b", 1))
    alg = algebra(sp, [])
    mor = BLMorphism(alg, alg, identity_table(sp))
    for ew in enumerate_basis(sp, 3, outer_components=3):
        x = EElement.monomial(ew)
        assert apply_hat_phi(mor, x) == x


def test_phi_hat_fixes_pure_units():
    sp = space(("a", 0),)
    alg = algebra(sp, [])
    mor = BLMorphism(alg, alg, table(sp, 0, [(1, 1, ("a",), [(2, ("a",))])]))
    units = EElement.monomial(EWord((UNIT_WORD, UNIT_WORD, UNIT_WORD)))
    assert apply_hat_phi(mor, units) == units


def test_phi_hat_matches_bipartite_oracle():
    rng = random.Random(61)
    for _ in range(20):
        sp = random_space(rng, n=rng.randint(1, 3))
        tab = random_table(rng, sp, parity=0, n_entries=rng.randint(1, 4),
                           max_k=2, max_l=2)
        alg = algebra(sp, [])
        mor = BLMorphism(alg, alg, tab)
        ewords = enumerate_basis(sp, 4, outer_components=2)
        rng.shuffle(ewords)
        for ew in ewords[:8]:
            got = apply_hat_phi(mor, EElement.monomial(ew))
            want = oracle_hat_phi(sp, sp, tab, ew)
            assert got == want, (ew, tab.cells)


def test_phi_hat_regroups_blocks_by_component():
    # blocks {a,d}, {b}, {c,e} on clusters a | b | c | d.e: the union-find
    # roots put the {b} component first, so the odd outputs of the first
    # two blocks cross, which the random sweeps above never reach
    sp = space(("a", 1), ("b", 1), ("c", 0), ("d", 0), ("e", 1),
               ("u", 1), ("v", 1), ("w", 1))
    tab = table(sp, 0, [(2, 1, ("a", "d"), [(1, ("u",))]),
                        (1, 1, ("b",), [(1, ("v",))]),
                        (2, 1, ("c", "e"), [(1, ("w",))])])
    alg = algebra(sp, [])
    ew = eword(sp, ("a",), ("b",), ("c",), ("d", "e"))
    got = apply_hat_phi(BLMorphism(alg, alg, tab), EElement.monomial(ew))
    assert got == oracle_hat_phi(sp, sp, tab, ew)
    assert got == EElement.monomial(eword(sp, ("v",), ("u", "w")), -1)


def test_phi_hat_preserves_outer_length():
    rng = random.Random(71)
    for _ in range(10):
        sp = random_space(rng)
        tab = random_table(rng, sp, parity=0, n_entries=3)
        alg = algebra(sp, [])
        mor = BLMorphism(alg, alg, tab)
        for ew in enumerate_basis(sp, 3, outer_components=3):
            got = apply_hat_phi(mor, EElement.monomial(ew))
            for out in got.terms:
                assert len(out.clusters) <= len(ew.clusters)


def test_pointed_leibniz_on_squares():
    # one even generator, p_bullet^{1,0}(g) = 1: hat on g (.) g doubles
    sp = space(("g", 0),)
    pb = table(sp, 0, [(1, 0, ("g",), [(1, ())])])
    alg = algebra(sp, [])
    pmap = PointedMap(alg, pb)
    x = EElement.monomial(eword(sp, ("g",), ("g",)))
    got = apply_hat_pointed(pmap, x)
    assert got == EElement.monomial(eword(sp, (), ("g",)), Fraction(2))
    y = EElement.monomial(eword(sp, ("g", "g")))
    got2 = apply_hat_pointed(pmap, y)
    assert got2 == EElement.monomial(eword(sp, ("g",)), Fraction(2))


def test_multi_pointed_shares_cluster():
    # two distinct one-letter functionals may hit the same cluster
    sp = space(("g", 0),)
    t1 = table(sp, 0, [(1, 0, ("g",), [(1, ())])])
    t2 = table(sp, 0, [(1, 0, ("g",), [(1, ())])])
    x = EElement.monomial(eword(sp, ("g", "g")))
    got = assembly.apply_multi_pointed([(t1, 0), (t2, 0)], x)
    assert got == EElement.monomial(UNIT_EWORD, Fraction(2))


def test_multi_pointed_one_op_equals_coderivation():
    rng = random.Random(83)
    for _ in range(12):
        sp = random_space(rng)
        tab = random_table(rng, sp, parity=rng.randrange(2),
                           n_entries=rng.randint(1, 4))
        for ew in enumerate_basis(sp, 3, outer_components=2)[:10]:
            x = EElement.monomial(ew)
            a = assembly.apply_multi_pointed([(tab, tab.parity)], x)
            b = assembly.apply_coderivation(tab, x)
            assert a == b


def test_unit_factor_rule_general():
    # appending a unit cluster commutes with the assembled operator
    rng = random.Random(211)
    for _ in range(10):
        sp = random_space(rng)
        tab = random_table(rng, sp, n_entries=3)
        alg = BLAlgebra(sp, tab)
        for ew in enumerate_basis(sp, 3, outer_components=2):
            x = EElement.monomial(ew)
            padded = EElement.monomial(
                EWord(tuple(sorted(ew.clusters + (UNIT_WORD,),
                                   key=lambda c: c.key()))))
            lhs = apply_hat_p(alg, padded)
            rhs = apply_hat_p(alg, x)
            rhs_padded = EElement(
                {EWord(tuple(sorted(e.clusters + (UNIT_WORD,),
                                    key=lambda c: c.key())), e.hbar): c
                 for e, c in rhs.terms.items()})
            assert lhs == rhs_padded


def test_worked_example_sign_all_parities():
    """The displayed evaluation rule, for every parity assignment: gluing a
    two-input three-output operation to the third letter of one cluster and
    the first letter of the next costs exactly the operator-passing sign
    over the letters before them."""
    import itertools as it
    from blinfty.words import (Generator, GradedSpace, normalize_word,
                               normalize_clusters)
    from blinfty.structures import OperationTable

    for pars in it.product((0, 1), repeat=8):
        z_par = (pars[2] + pars[3] + 1) % 2
        gens = [Generator("v%d" % (i + 1), pars[i]) for i in range(8)]
        gens += [Generator("x", 0), Generator("y", 0), Generator("z", z_par)]
        sp = GradedSpace(gens)
        w_in, s_in_word = normalize_word(sp, [2, 3])
        assert s_in_word == 1
        out_word, s_out = normalize_word(sp, [8, 9, 10])
        assert s_out == 1
        tab = OperationTable(sp, 1, [(2, 3, w_in,
                                      Element.monomial(out_word))])
        alg = BLAlgebra(sp, tab)
        c1, s1 = normalize_word(sp, [0, 1, 2])
        c2, s2 = normalize_word(sp, [3, 4, 5])
        c3, s3 = normalize_word(sp, [6, 7])
        assert s1 == s2 == s3 == 1
        ew_in, s_in = normalize_clusters(sp, (c1, c2, c3))
        if s_in == 0:
            continue  # coinciding odd clusters cannot occur here
        got = s_in * apply_hat_p(alg, EElement.monomial(ew_in))
        # expected: (-1)^(|v1|+|v2|) (v1 v2 x y z v5 v6) (.) (v7 v8)
        sign = -1 if (pars[0] + pars[1]) % 2 else 1
        merged, sm = normalize_word(sp, [0, 1, 8, 9, 10, 4, 5])
        assert sm != 0
        ew_out, sc = normalize_clusters(sp, (merged, c3))
        assert sc != 0
        want = EElement.monomial(ew_out, Fraction(sign * sm * sc))
        assert got == want, pars


def test_hat_p_oracle_larger_windows():
    # heavier seeded sweep over deeper interleavings of odd letters
    rng = random.Random(5150)
    for _ in range(8):
        sp = random_space(rng, n=3)
        tab = random_table(rng, sp, n_entries=rng.randint(2, 6))
        alg = BLAlgebra(sp, tab)
        ewords = enumerate_basis(sp, 5, outer_components=3)
        rng.shuffle(ewords)
        for ew in ewords[:15]:
            got = apply_hat_p(alg, EElement.monomial(ew))
            want = oracle_hat_p(sp, tab, ew)
            assert got == want, (ew, tab.cells)


def test_phi_oracle_larger_windows():
    rng = random.Random(6160)
    for _ in range(6):
        sp = random_space(rng, n=3)
        tab = random_table(rng, sp, parity=0, n_entries=rng.randint(2, 4),
                           max_k=3, max_l=2)
        alg = algebra(sp, [])
        mor = BLMorphism(alg, alg, tab)
        ewords = enumerate_basis(sp, 4, outer_components=3)
        rng.shuffle(ewords)
        for ew in ewords[:10]:
            got = apply_hat_phi(mor, EElement.monomial(ew))
            want = oracle_hat_phi(sp, sp, tab, ew)
            assert got == want, (ew, tab.cells)


def test_multi_pointed_matches_independent_oracle():
    from util import oracle_multi
    rng = random.Random(7170)
    for _ in range(15):
        sp = random_space(rng, n=2)
        t1 = random_table(rng, sp, parity=rng.randrange(2), n_entries=2,
                          max_k=2, max_l=1)
        t2 = random_table(rng, sp, parity=rng.randrange(2), n_entries=2,
                          max_k=2, max_l=1)
        tabs = [(t1, t1.parity), (t2, t2.parity)]
        for ew in enumerate_basis(sp, 4, outer_components=2)[:14]:
            x = EElement.monomial(ew)
            got = assembly.apply_multi_pointed(tabs, x)
            want = oracle_multi(sp, tabs, ew)
            assert got == want, (ew, t1.cells, t2.cells)


def test_phi_bullet_matches_oracle():
    # the marked-component assembly with an odd homotopy table agrees with
    # the independent bipartite oracle, pinning the passing-sign convention
    rng = random.Random(8180)
    checked = 0
    for _ in range(20):
        sp = random_space(rng, n=2)
        tab = random_table(rng, sp, parity=0, n_entries=2, max_k=2, max_l=2)
        fb = random_table(rng, sp, parity=1, n_entries=2, max_k=2, max_l=1)
        alg = algebra(sp, [])
        mor = BLMorphism(alg, alg, tab)
        from blinfty.structures import apply_hat_phi_bullet
        for ew in enumerate_basis(sp, 3, outer_components=2)[:10]:
            x = EElement.monomial(ew)
            got = apply_hat_phi_bullet(mor, fb, x, 1)
            want = oracle_hat_phi(sp, sp, tab, ew, bullet_table=fb,
                                  bullet_parity=1)
            assert got == want, (ew, tab.cells, fb.cells)
            checked += 1
    assert checked > 100


def test_gluing_step_matches_oracles_seeded_sweep():
    # every assembly against its independent oracle over seeded random
    # tables on three kinds of space: an odd first generator beside mixed
    # ones, all even (no sign moves; no odd table has an entry there, so
    # every table is even) and all odd; each entry point agrees nonzero a
    # floor of times on each kind.  Then a draw of three odd tables, where
    # the output parities of a term without odd letters move a sign
    from blinfty.structures import OperationTable
    from util import oracle_ibl, oracle_inner, oracle_multi
    floors = {"mixed": 100, "even": 50, "odd": 50}
    for kind, seed, cases in (("mixed", 4040, 150), ("even", 4041, 80),
                              ("odd", 4042, 80)):
        rng = random.Random(seed)
        nonzero = dict.fromkeys(
            ["coderivation", "multi", "morphism", "bullet", "ibl", "inner"], 0)

        def agree(name, got, want):
            assert got == want, (kind, name, got, want)
            nonzero[name] += bool(got)

        def parity(odd=None):  # a table's parity: even on all-even spaces
            if kind == "even":
                return 0
            return rng.randrange(2) if odd is None else odd

        for _ in range(cases):
            n = rng.randint(1, 3)
            sp = space(*[("g%d" % i, rng.randrange(2) if kind == "mixed"
                          and i else int(kind != "even")) for i in range(n)])
            tab = random_table(rng, sp, parity=parity(), n_entries=3,
                               max_k=2, max_l=2)
            tab2 = random_table(rng, sp, parity=parity(), n_entries=2,
                                max_k=2, max_l=1)
            mor = random_table(rng, sp, parity=0, n_entries=3, max_k=2,
                               max_l=2)
            bullet = random_table(rng, sp, parity=parity(1), n_entries=2,
                                  max_k=2, max_l=1)
            itab = OperationTable(sp, parity(1), [
                (k, l, rng.randrange(3), w, e) for (k, l, _, w, e)
                in random_table(rng, sp, parity=parity(1), n_entries=3,
                                max_k=3, max_l=2).sorted_entries()])
            tabs = [(tab, tab.parity), (tab2, tab2.parity)]
            ewords = enumerate_basis(sp, 3, outer_components=2)
            for ew in rng.sample(ewords, 3):
                x = EElement.monomial(ew)
                agree("coderivation", assembly.apply_coderivation(tab, x),
                      oracle_hat_p(sp, tab, ew))
                agree("multi", assembly.apply_multi_pointed(tabs, x),
                      oracle_multi(sp, tabs, ew))
                agree("morphism", assembly.apply_morphism(mor, x),
                      oracle_hat_phi(sp, sp, mor, ew))
                agree("bullet", assembly.apply_morphism(
                    mor, x, bullet_table=bullet, bullet_parity=1),
                    oracle_hat_phi(sp, sp, mor, ew, bullet_table=bullet,
                                   bullet_parity=1))
                ew_h = EWord(ew.clusters, hbar=rng.randrange(2))
                agree("ibl", assembly.apply_ibl(
                    itab, EElement.monomial(ew_h), 2),
                    oracle_ibl(sp, itab, ew_h, 2))
            words = enumerate_basis(sp, 3)[1:]
            for w in [UNIT_WORD] + rng.sample(words, min(3, len(words))):
                agree("inner", assembly.apply_inner_coderivation(
                    tab, Element.monomial(w)), oracle_inner(sp, tab, w))
        assert min(nonzero.values()) >= floors[kind], (kind, nonzero)
    # three odd tables of one-letter inputs over two odd generators and an
    # even one: block outputs of two components cross in the regrouping,
    # and move its sign, even where no input letter is odd
    rng = random.Random(4043)
    sp = space(("g0", 1), ("g1", 1), ("g2", 0))
    ewords = [ew for ew in enumerate_basis(sp, 4, outer_components=3)
              if len(ew.clusters) > 1]
    nonzero = 0
    for _ in range(150):
        tabs = [(random_table(rng, sp, parity=1, n_entries=3, max_k=1,
                              max_l=2), 1) for _ in range(3)]
        for ew in rng.sample(ewords, 3):
            got = assembly.apply_multi_pointed(tabs, EElement.monomial(ew))
            assert got == oracle_multi(sp, tabs, ew), ("three tables", ew)
            nonzero += bool(got)
    assert nonzero >= 150


_DENOMINATORS = {"integral": None, "non-integral": (2, 3, 7),
                 "mixed": (1, 2, 3, 7)}


def _coefficient(rng, kind):
    """A nonzero input coefficient: an int or an integral Fraction, a
    non-integral Fraction, or either."""
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == "mixed":
        kind = rng.choice(["integral", "non-integral"])
    if kind == "integral":
        return rng.choice([num, Fraction(num)])
    return Fraction(num, rng.choice([2, 7]))


def _summed(x, oracle):
    """The oracle of one outer word, extended linearly to x."""
    total = Element()
    for ew, c in x.terms.items():
        total = total + c * oracle(ew)
    return total


@pytest.mark.parametrize("kind", sorted(_DENOMINATORS))
def test_gluing_step_coefficient_types_match_oracles_seeded_sweep(kind):
    # integral coefficients are multiplied as ints inside the gluing step;
    # on integral, non-integral and mixed tables and inputs every assembly
    # still agrees with its oracle and returns only Fraction coefficients
    from util import oracle_ibl
    rng = random.Random("coefficients:" + kind)
    dens = _DENOMINATORS[kind]
    nonzero = dict.fromkeys(["coderivation", "morphism", "bullet", "ibl"], 0)
    fractional = 0

    def agree(name, got, want):
        nonlocal fractional
        assert got == want, (name, got, want)
        assert all(type(c) is Fraction for c in got.terms.values()), got
        nonzero[name] += bool(got)
        fractional += any(c.denominator != 1 for c in got.terms.values())

    for _ in range(40):
        n = rng.randint(1, 3)
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(n)])
        tab = random_table(rng, sp, parity=rng.randrange(2), n_entries=3,
                           max_k=2, max_l=2, denominators=dens)
        mor = random_table(rng, sp, parity=0, n_entries=3, max_k=2, max_l=2,
                           denominators=dens)
        bullet = random_table(rng, sp, parity=1, n_entries=2, max_k=2,
                              max_l=1, denominators=dens)
        itab = OperationTable(sp, 1, [
            (k, l, rng.randrange(3), w, e) for (k, l, _, w, e)
            in random_table(rng, sp, n_entries=3, max_k=3, max_l=2,
                            denominators=dens).sorted_entries()])
        ewords = rng.sample(enumerate_basis(sp, 3, outer_components=2), 3)
        x = EElement({ew: _coefficient(rng, kind) for ew in ewords})
        agree("coderivation", assembly.apply_coderivation(tab, x),
              _summed(x, lambda ew: oracle_hat_p(sp, tab, ew)))
        agree("morphism", assembly.apply_morphism(mor, x),
              _summed(x, lambda ew: oracle_hat_phi(sp, sp, mor, ew)))
        agree("bullet", assembly.apply_morphism(
            mor, x, bullet_table=bullet, bullet_parity=1),
            _summed(x, lambda ew: oracle_hat_phi(
                sp, sp, mor, ew, bullet_table=bullet, bullet_parity=1)))
        x_h = EElement({EWord(ew.clusters, hbar=rng.randrange(2)): c
                        for ew, c in x.terms.items()})
        agree("ibl", assembly.apply_ibl(itab, x_h, 2),
              _summed(x_h, lambda ew: oracle_ibl(sp, itab, ew, 2)))
    assert min(nonzero.values()) >= 15, nonzero
    assert (fractional > 0) == (kind != "integral"), fractional


def test_symbolic_coefficients_pass_through_the_gluing_step():
    # the generic-augmentation probe's SymPoly coefficients pass through
    # the step unchanged: the symbolic linearization, evaluated at random
    # values, is the linearization at the augmentation with those values
    from blinfty.invariants import _symbolic_generic_aug
    from blinfty.symbolic import SymPoly
    sp = space(("a", 0), ("b", 0))
    alg = algebra(sp, [])
    pmap = PointedMap(alg, table(sp, 0, [(1, 1, ("a",), [(1, ("b",))]),
                                         (2, 0, ("a", "b"), [(1, ())])]))
    bounds = Bounds(3)
    eps_sym = _symbolic_generic_aug(alg, bounds)
    rng = random.Random(1508)
    values, entries = {}, []
    for k, l, g, w, elem in eps_sym.table.sorted_entries():
        ((name,),) = elem.terms[UNIT_WORD].terms  # one variable each
        values[name] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        entries.append((k, l, g, w, Element.monomial(UNIT_WORD,
                                                     values[name])))
    eps = Augmentation(alg, OperationTable(
        sp, 0, entries, complete=False, max_k=bounds.max_letters,
        target=eps_sym.table.target))

    def evaluated(c):
        if not isinstance(c, SymPoly):
            return c
        total = Fraction(0)
        for mono, coeff in c.terms.items():
            for v in mono:
                coeff *= values[v]
            total += coeff
        return total

    sym = linearize_pointed(pmap, eps_sym, bounds)
    coeffs = [c for *_, elem in sym.sorted_entries()
              for c in elem.terms.values()]
    assert any(isinstance(c, SymPoly) and not c.is_constant() for c in coeffs)
    assert all(type(c) in (Fraction, SymPoly) for c in coeffs), coeffs
    got = {(k, l, g, w): Element({o: evaluated(c)
                                  for o, c in elem.terms.items()})
           for k, l, g, w, elem in sym.sorted_entries()}
    want = {(k, l, g, w): elem for k, l, g, w, elem
            in linearize_pointed(pmap, eps, bounds).sorted_entries()}
    assert {key: e for key, e in got.items() if e} == want


def _outcome(evaluate):
    try:
        return evaluate()
    except IncompleteTableError:
        return "incomplete"


def _random_outer_word(rng, sp):
    """At most 6 letters over 1-3 clusters, unit clusters allowed."""
    while True:
        sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        if sum(sizes) > 6:
            continue
        clusters = [normalize_word(sp, [rng.randrange(len(sp))
                                        for _ in range(size)])
                    for size in sizes]
        if all(s for _, s in clusters):
            ew, s = normalize_clusters(sp, tuple(w for w, _ in clusters))
            if s:
                return ew


def _nonzero_word(rng, sp, top=3):
    """A random nonzero normalized word of 1..top letters."""
    while True:
        w, sign = normalize_word(sp, [rng.randrange(len(sp))
                                      for _ in range(rng.randint(1, top))])
        if sign:
            return w


def _owner_and_letters(ew):
    return ([ci for ci, c in enumerate(ew.clusters) for _ in c.letters],
            [l for c in ew.clusters for l in c.letters], len(ew.clusters))


def _signed_entry(sp, tab, letters):
    """The terms (genus, signed coefficient, output Word) a block of these
    letters glues in, by bubble sort and query_by_genus."""
    srt, s = bubble_normalize(sp, letters)
    if not s:
        return []
    return [(g, s * c, w) for g, e in tab.query_by_genus(
        len(letters), Word(tuple(srt))) for w, c in e.terms.items()]


def _can_contribute(sp, ew, block_list):
    """Acyclic, and every block before the first one of a size its table
    does not cover has a nonzero entry (the unpruned sum's own filter)."""
    owner, letters, n = _owner_and_letters(ew)
    blocks, _, _ = block_list
    edges = [(owner[p], bi) for bi, (b, _, _, _) in enumerate(blocks)
             for p in b]
    if not forest_check(n, len(blocks), edges):
        return False
    for positions, tab, _, _ in blocks:
        if not tab.covers(len(positions)):
            return True
        if not _signed_entry(sp, tab, [letters[p] for p in positions]):
            return False
    return True


def _handed_over(sp, search, block_list):
    """What an admissible block list hands the gluing step: no cycle, each
    cluster's label that of its component (by DFS), and each block its
    signed entry terms, or None from the first block of a size its table
    does not cover on."""
    owner, letters, n = search[:3]
    blocks, comp, cycles = block_list
    edges = [(owner[p], bi) for bi, (b, _, _, _) in enumerate(blocks)
             for p in b]
    dfs = components(n, len(blocks), edges)
    assert cycles == 0
    assert len(comp) == n
    assert all((comp[i] == comp[j]) == (dfs[("c", i)] == dfs[("c", j)])
               for i in range(n) for j in range(n))
    untested = False
    for positions, tab, _, terms in blocks:
        untested = untested or not tab.covers(len(positions))
        if untested:
            assert terms is None
        else:
            assert list(terms) == _signed_entry(
                sp, tab, [letters[p] for p in positions])


def _block_key(block_list):
    return tuple((tuple(b), id(tab), parity)
                 for b, tab, parity, _ in block_list[0])


def test_morphism_enumeration_matches_unpruned_sweep(monkeypatch):
    # apply_morphism against the gluing step fed every set partition of the
    # letters: equal outputs, IncompleteTableError in the same cases, and
    # the step receives exactly the block lists that can contribute, each
    # with its entry terms and component labels as an independent count
    # finds them
    made = []
    enumerate_blocks = assembly._set_partitions
    sp = None

    def recording(search):
        for block_list in enumerate_blocks(search):
            _handed_over(sp, search, block_list)
            made.append(_block_key(block_list))
            yield block_list
    monkeypatch.setattr(assembly, "_set_partitions", recording)
    rng = random.Random(7070)
    seen = dict.fromkeys(["plain", "bullet", "incomplete", "raised"], 0)
    for _ in range(100):
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(rng.randint(2, 3))])
        mor = random_table(rng, sp, parity=0, n_entries=5, max_k=3, max_l=2)
        bullet = random_table(rng, sp, parity=1, n_entries=3, max_k=3,
                              max_l=1)
        inc = OperationTable(sp, 0, [(k, l, w, e) for (k, l, _, w, e)
                                     in mor.sorted_entries() if k <= 2],
                             complete=False, max_k=2)
        cases = [("plain", mor, None), ("bullet", mor, bullet),
                 ("incomplete", inc, None), ("incomplete", inc, bullet)]
        inputs = [EElement.monomial(_random_outer_word(rng, sp))
                  for _ in range(3)]
        inputs.append(EElement({_random_outer_word(rng, sp):
                                Fraction(rng.choice([-2, -1, 1, 3]))
                                for _ in range(3)}))
        for name, tab, btab in cases:
            for x in inputs:
                want = _outcome(lambda: assembly._glue(
                    sp, sp, x, unpruned_morphism_blocks(tab, btab, 1)))
                made.clear()
                got = _outcome(lambda: assembly.apply_morphism(
                    tab, x, bullet_table=btab, bullet_parity=1))
                assert got == want, (name, x, got, want)
                if got == "incomplete":
                    seen["raised"] += 1
                    continue
                seen[name] += bool(got)
                admissible = [
                    _block_key(block_list) for ew in x.terms
                    for block_list in unpruned_morphism_blocks(tab, btab, 1)(
                        *_owner_and_letters(ew))
                    if _can_contribute(sp, ew, block_list)]
                assert sorted(made) == sorted(admissible), (name, x)
    assert min(seen.values()) >= 40, seen


def test_unsorted_entry_outputs_glue_as_their_normal_form():
    # a table may list an output word out of order; the gluing step reads
    # it in normal form, its Koszul sign in the coefficient, also where a
    # component is that one block's output alone
    sp = space(("q0", 1), ("q1", 1), ("a", 0), ("b", 0))
    q0, q1, a, b = 0, 1, 2, 3
    fixed = [(1, 1, Word((q0,)), Element.monomial(Word((q0,)))),
             (1, 1, Word((b,)), Element.monomial(Word((b,))))]
    raw = OperationTable(sp, 0, fixed + [
        (1, 2, Word((a,)), Element({Word((q1, q0)): Fraction(3)}))])
    normal = OperationTable(sp, 0, fixed + [
        (1, 2, Word((a,)), Element({Word((q0, q1)): Fraction(-3)}))])
    for clusters in ([(a,)], [(a,), (q0,)], [(a, b)], [(), (a,)]):
        x = EElement.monomial(EWord(tuple(Word(c) for c in clusters)))
        got = assembly.apply_morphism(raw, x)
        assert got and got == assembly.apply_morphism(normal, x), clusters
    # the table keeps the normal form too: the two are one table, and
    # write one document that parses back to it
    assert raw == normal
    assert raw.query(1, Word((a,))) == Element({Word((q0, q1)): -3})
    text = bio.serialize(bio.document_of_table("morphism", "phi", raw))
    assert text == bio.serialize(bio.document_of_table("morphism", "phi",
                                                       normal))
    assert bio.table_from_block(sp, bio.parse(text).table("morphism")) == raw


def _partial(rng, sp, parity, max_k, genus=False, min_l=0, max_l=2):
    """A random table with entries of arity at most max_k, declared
    incomplete above it, and a function that makes a random completion of
    it: entries of arity max_k+1..max_k+2 added, complete=True."""
    def entries(top, n):
        return [(k, l, rng.randrange(2) if genus else 0, w, e)
                for (k, l, _, w, e) in random_table(
                    rng, sp, parity=parity, max_k=top, max_l=max_l,
                    n_entries=n).sorted_entries() if l >= min_l]
    base = entries(max_k, 3)

    def completion():
        extra = [e for e in entries(max_k + 2, 8) if e[0] > max_k]
        return OperationTable(sp, parity, base + extra)
    return (OperationTable(sp, parity, base, complete=False, max_k=max_k),
            completion)


def test_partial_tables_never_read_a_missing_arity_as_zero():
    # every entry point on random incomplete tables either raises
    # IncompleteTableError or equals its value under random completions
    rng = random.Random(9191)
    seen = {}  # entry point -> [raised, returned nonzero]

    def check(name, evaluate, tables):
        got = _outcome(lambda: evaluate(*[t for t, _ in tables]))
        counts = seen.setdefault(name, [0, 0])
        if got == "incomplete":
            counts[0] += 1
            return
        counts[1] += bool(got) and not isinstance(got, str)
        for _ in range(2):
            want = _outcome(lambda: evaluate(*[complete()
                                               for _, complete in tables]))
            assert got == want, (name, got, want)

    def linearized(t, u, bounds):
        # the entries, or the constant term that linearize rejects
        alg = BLAlgebra(sp, t)
        try:
            return linearize(Augmentation(alg, u), bounds).sorted_entries()
        except InternalInconsistencyError as e:
            return str(e)

    def linearized_pointed(t, u, bounds):
        alg = algebra(sp, [])
        return linearize_pointed(PointedMap(alg, t), Augmentation(alg, u),
                                 bounds).sorted_entries()

    for _ in range(100):
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(rng.randint(2, 3))])
        p = _partial(rng, sp, 1, rng.choice((1, 2)))
        q = _partial(rng, sp, rng.randrange(2), rng.choice((1, 2)))
        m = _partial(rng, sp, 0, rng.choice((1, 2)))
        b = _partial(rng, sp, 1, rng.choice((1, 2)), max_l=1)
        g = _partial(rng, sp, 1, rng.choice((1, 2)), genus=True)
        e = _partial(rng, sp, 0, rng.choice((1, 2)), max_l=0)
        alg = algebra(sp, [])
        x = EElement.monomial(_random_outer_word(rng, sp))
        xh = EElement.monomial(EWord(_random_outer_word(rng, sp).clusters,
                                     hbar=rng.randrange(2)))
        w = Element.monomial(normalize_word(sp, [
            rng.randrange(len(sp)) for _ in range(rng.randint(1, 3))])[0])
        check("coderivation",
              lambda t: assembly.apply_coderivation(t, x), [p])
        check("inner",
              lambda t: assembly.apply_inner_coderivation(t, w), [p])
        check("multi", lambda t, u: assembly.apply_multi_pointed(
            [(t, t.parity), (u, u.parity)], x), [p, q])
        check("ibl", lambda t: assembly.apply_ibl(t, xh, 2), [g])
        check("morphism", lambda t: assembly.apply_morphism(t, x), [m])
        check("bullet", lambda t, u: assembly.apply_morphism(
            t, x, bullet_table=u, bullet_parity=1), [m, b])
        check("hat_p", lambda t: apply_hat_p(BLAlgebra(sp, t), x), [p])
        check("hat_phi",
              lambda t: apply_hat_phi(BLMorphism(alg, alg, t), x), [m])
        check("hat_p_ibl",
              lambda t: apply_hat_p_ibl(BLAlgebra(sp, t), xh, 2), [g])
        bounds = Bounds(rng.randint(1, 3))
        check("linearize", lambda t, u: linearized(t, u, bounds),
              [_partial(rng, sp, 1, rng.choice((1, 2)), min_l=1), e])
        check("linearize_pointed",
              lambda t, u: linearized_pointed(t, u, bounds), [q, e])
        check("compose", lambda t, u: compose(
            BLMorphism(alg, alg, t), BLMorphism(alg, alg, u),
            bounds).table.sorted_entries(),
              [m, _partial(rng, sp, 0, rng.choice((1, 2)))])
        w_in = _nonzero_word(rng, sp)
        check("two_level", lambda t: [
            (l, cell) for l in range(5)
            for cell in [two_level(BLAlgebra(sp, t), len(w_in), l, w_in)]
            if cell], [p])
    assert all(raised >= 5 and nonzero >= 5
               for raised, nonzero in seen.values()), seen


def test_single_cluster_enumeration_matches_projected_full_sweep():
    # with single_cluster the enumerations make only connected block lists:
    # the single-cluster part must equal that of the full evaluation and of
    # the oracles.  On partial tables the coderivation and the morphism
    # raise exactly where the full ones do (both raise when the lettered
    # clusters outnumber the covered arities); with a bullet table the
    # morphism raises on a subset
    rng = random.Random(6161)
    seen = dict.fromkeys(["coderivation", "morphism", "bullet",
                          "coderivation raised", "morphism raised",
                          "bullet raised"], 0)

    def projected(evaluate):
        got = _outcome(evaluate)
        return got if got == "incomplete" else pi_single_cluster(got)

    for _ in range(150):
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(rng.randint(2, 3))])
        p = random_table(rng, sp, parity=1, n_entries=4, max_k=3, max_l=2)
        m = random_table(rng, sp, parity=0, n_entries=5, max_k=3, max_l=2)
        bullet = random_table(rng, sp, parity=1, n_entries=3, max_k=3,
                              max_l=1)
        p_inc, _ = _partial(rng, sp, 1, rng.choice((1, 2)))
        m_inc, _ = _partial(rng, sp, 0, rng.choice((1, 2)))
        b_inc, _ = _partial(rng, sp, 1, rng.choice((1, 2)), max_l=1)
        ews = [_random_outer_word(rng, sp) for _ in range(3)]
        if rng.randrange(2):  # a split word, as the callers feed
            ews[0] = word_to_singletons(_nonzero_word(rng, sp, 4))
        for ew in ews:
            x = EElement.monomial(ew)
            sc = pi_single_cluster(assembly.apply_coderivation(
                p, x, single_cluster=True))
            assert sc == pi_single_cluster(
                assembly.apply_coderivation(p, x)), ew
            assert sc == pi_single_cluster(oracle_hat_p(sp, p, ew)), ew
            seen["coderivation"] += bool(sc)
            sc = pi_single_cluster(assembly.apply_morphism(
                m, x, single_cluster=True))
            assert sc == pi_single_cluster(assembly.apply_morphism(m, x))
            assert sc == pi_single_cluster(oracle_hat_phi(sp, sp, m, ew)), ew
            seen["morphism"] += bool(sc)
            sc = pi_single_cluster(assembly.apply_morphism(
                m, x, bullet_table=bullet, bullet_parity=1,
                single_cluster=True))
            assert sc == pi_single_cluster(oracle_hat_phi(
                sp, sp, m, ew, bullet_table=bullet, bullet_parity=1)), ew
            seen["bullet"] += bool(sc)

            for name, evaluate in [
                    ("coderivation", lambda **kw: assembly.apply_coderivation(
                        p_inc, x, **kw)),
                    ("morphism", lambda **kw: assembly.apply_morphism(
                        m_inc, x, **kw))]:
                sc = projected(lambda: evaluate(single_cluster=True))
                assert sc == projected(evaluate), (name, ew)
                seen[name + " raised"] += sc == "incomplete"
            sc = projected(lambda: assembly.apply_morphism(
                m_inc, x, bullet_table=b_inc, bullet_parity=1,
                single_cluster=True))
            full = projected(lambda: assembly.apply_morphism(
                m_inc, x, bullet_table=b_inc, bullet_parity=1))
            if sc == "incomplete":
                assert full == "incomplete", ew
                seen["bullet raised"] += 1
            elif full != "incomplete":
                assert sc == full, ew
    assert min(seen.values()) >= 10, seen


def test_single_cluster_bullet_morphism_need_not_raise():
    # on (a)(b)(c) the full pointed morphism makes the list bullet{a},
    # main{b, c}, whose main block is beyond max_k = 1, and raises; the one
    # connected list is a single bullet block, which has no entry.  Every
    # completion adds only arities 2-3 to main, so its single-cluster part
    # is 0, which the single-cluster evaluation returns
    sp = space(("a", 1), ("b", 0), ("c", 0))
    main = table(sp, 0, [(1, 1, (g,), [(1, (g,))]) for g in "abc"],
                 complete=False, max_k=1)
    bullet = table(sp, 1, [(1, 1, ("a",), [(1, ("b",))])],
                   complete=False, max_k=3)
    x = EElement.monomial(eword(sp, ("a",), ("b",), ("c",)))
    with pytest.raises(IncompleteTableError):
        assembly.apply_morphism(main, x, bullet_table=bullet,
                                bullet_parity=1)
    got = assembly.apply_morphism(main, x, bullet_table=bullet,
                                  bullet_parity=1, single_cluster=True)
    assert pi_single_cluster(got) == {}
    full = table(sp, 0, [(1, 1, (g,), [(1, (g,))]) for g in "abc"]
                 + [(2, 1, ("b", "c"), [(1, ("b",))])])
    assert pi_single_cluster(assembly.apply_morphism(
        full, x, bullet_table=bullet, bullet_parity=1)) == {}


# ---- unit clusters pass through ---------------------------------------------

def _units_and_lettered(ew):
    """The unit clusters of ew, and its others."""
    return (tuple(c for c in ew.clusters if not c.letters),
            tuple(c for c in ew.clusters if c.letters))


def _units_put_back(sp, units, x):
    """x with the unit clusters units put beside every term's clusters."""
    out = {}
    for ew, c in x.terms.items():
        back, sign = normalize_clusters(sp, ew.clusters + units, hbar=ew.hbar)
        assert sign == 1 and back not in out, ew
        out[back] = c
    return EElement(out)


def test_unit_clusters_pass_through_every_image_seeded():
    # no operation takes a letter from a unit cluster, so the image of an
    # outer word with n units beside lettered clusters is the image of its
    # lettered part with the n units put back: on complete and partial
    # tables, and cycle-permitting at a cap of 0-2 per table, each word at
    # an hbar exponent of up to one above the cap.  A partial table raises
    # on exactly the same words
    rng = random.Random(2828)
    seen = dict.fromkeys(["coderivation", "partial", "ibl", "raised"], 0)
    words = 0
    for _ in range(300):
        sp = random_space(rng, n=rng.randint(1, 3))
        p = random_table(rng, sp, max_k=3, max_l=2, n_entries=4)
        p_inc, _ = _partial(rng, sp, 1, rng.choice((1, 2)))
        g = OperationTable(sp, 1, [(k, l, rng.randrange(2), w, e) for
                                   (k, l, _, w, e) in p.sorted_entries()])
        cap = rng.randrange(3)
        images = [("coderivation", 0,
                   lambda x: assembly.apply_coderivation(p, x)),
                  ("partial", 0,
                   lambda x: assembly.apply_coderivation(p_inc, x)),
                  ("ibl", cap + 1, lambda x: assembly.apply_ibl(g, x, cap))]
        lettered_images = {}
        for ew in enumerate_basis(sp, 4, outer_components=4):
            units, lettered = _units_and_lettered(ew)
            if not units or not lettered:
                continue
            words += 1
            for name, top, image in images:
                h = rng.randint(0, top)
                got = _outcome(lambda: image(EElement.monomial(
                    EWord(ew.clusters, h))))
                key = (name, lettered, h)
                if key not in lettered_images:
                    lettered_images[key] = _outcome(lambda: image(
                        EElement.monomial(EWord(lettered, h))))
                want = lettered_images[key]
                if want == "incomplete":
                    assert got == want, (name, ew)
                    seen["raised"] += 1
                    continue
                assert got == _units_put_back(sp, units, want), (name, ew)
                seen[name] += bool(got)
    assert words >= 10000 and min(seen.values()) >= 300, (words, seen)


def _unskipped_single_cluster_morphism(tab, x, bullet=None):
    """apply_morphism(tab, x, bullet, 1, single_cluster=True) with every
    term glued, unit clusters beside the others included."""
    tables = [(tab, 0)] + ([(bullet, 1)] if bullet is not None else [])
    return assembly._glue(
        tab.space, tab.target, x, lambda owner, letters, n: (
            assembly._set_partitions((owner, letters, n, tables, True))))


def test_single_cluster_stage_skips_unit_terms_only_where_none_raises():
    # a term with a unit cluster beside lettered ones has no single-cluster
    # output; the single-cluster stage glues none of its block lists where
    # that skips no raise.  Projected to one cluster, outputs and
    # IncompleteTableError equal those of the unskipped evaluation: the
    # full coderivation (which raises where the single-cluster one does)
    # and the single-cluster morphism glued term by term, with and without
    # a bullet table, on complete and partial tables.  The coderivation's
    # outputs are one cluster each
    rng = random.Random(4343)
    seen = dict.fromkeys(["coderivation", "morphism", "bullet", "skipped",
                          "coderivation raised", "morphism raised",
                          "bullet raised"], 0)

    def projected(evaluate):
        got = _outcome(evaluate)
        return got if got == "incomplete" else pi_single_cluster(got)

    for _ in range(150):
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(rng.randint(2, 3))])
        complete = rng.randrange(2)
        if complete:
            p = random_table(rng, sp, parity=1, n_entries=4, max_k=3,
                             max_l=2)
            m = random_table(rng, sp, parity=0, n_entries=5, max_k=3,
                             max_l=2)
            bullet = random_table(rng, sp, parity=1, n_entries=3, max_k=3,
                                  max_l=1)
        else:
            p, _ = _partial(rng, sp, 1, rng.choice((1, 2)))
            m, _ = _partial(rng, sp, 0, rng.choice((1, 2)))
            bullet, _ = _partial(rng, sp, 1, rng.choice((1, 2, 3)), max_l=1)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            ew = _random_outer_word(rng, sp)
            if rng.randrange(2):
                ew = EWord((UNIT_WORD,) * rng.randint(1, 2) + ew.clusters)
                ew, _ = normalize_clusters(sp, ew.clusters)
            terms[ew] = Fraction(rng.choice([-2, -1, 1, 3]))
        x = EElement(terms)
        cases = [("coderivation",
                  lambda **kw: assembly.apply_coderivation(p, x, **kw),
                  lambda: assembly.apply_coderivation(p, x)),
                 ("morphism",
                  lambda **kw: assembly.apply_morphism(m, x, **kw),
                  lambda: _unskipped_single_cluster_morphism(m, x)),
                 ("bullet",
                  lambda **kw: assembly.apply_morphism(
                      m, x, bullet_table=bullet, bullet_parity=1, **kw),
                  lambda: _unskipped_single_cluster_morphism(m, x, bullet))]
        for name, evaluate, unskipped in cases:
            got = _outcome(lambda: evaluate(single_cluster=True))
            want = _outcome(unskipped)
            if want == "incomplete":
                assert got == want, (name, x)
                seen[name + " raised"] += 1
                continue
            assert got != "incomplete", (name, x)
            assert pi_single_cluster(got) == pi_single_cluster(want), (
                name, x)
            seen[name] += bool(pi_single_cluster(got))
            if name == "coderivation":  # no term is glued to be dropped
                assert all(len(ew.clusters) == 1 for ew in got.terms), x
            else:
                seen["skipped"] += len(got.terms) < len(want.terms)
    assert min(seen.values()) >= 10, seen


def test_ibl_single_cluster_stage_equals_the_projected_full_stage():
    # apply_ibl with single_cluster glues only the blocks that touch every
    # lettered cluster, and nothing on a term with a unit cluster beside
    # lettered ones.  On hbar-graded random tables, complete and partial,
    # at caps 0-2: projected to one cluster, its output equals the full
    # stage's, it raises IncompleteTableError exactly where the full stage
    # does, and every term it makes is one cluster.  check_ibl, whose
    # second stage it is, equals oracle_check_ibl on complete tables and
    # the same check with the full second stage on every table
    rng = random.Random(5151)
    seen = dict.fromkeys(["complete", "partial", "raised", "dropped",
                          "dropped apart", "check passed", "check failed",
                          "check raised"], 0)

    def status(evaluate):
        got = _outcome(evaluate)
        return got if got == "incomplete" else (got.ok, got.witness)

    for _ in range(300):
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(rng.randint(1, 3))])
        complete = rng.randrange(2)
        if complete:
            base = random_table(rng, sp, n_entries=rng.randint(2, 6),
                                max_k=3, max_l=rng.choice((0, 1, 2)))
            p = OperationTable(sp, 1, [
                (k, l, rng.randrange(3), w, e)
                for (k, l, _, w, e) in base.sorted_entries()])
        else:
            p, _ = _partial(rng, sp, 1, rng.choice((1, 2)), genus=True)
        cap = rng.randrange(3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            ew = _random_outer_word(rng, sp)
            if rng.randrange(2):
                ew, _ = normalize_clusters(
                    sp, (UNIT_WORD,) * rng.randint(1, 2) + ew.clusters)
            terms[EWord(ew.clusters, rng.randrange(cap + 2))] = Fraction(
                rng.choice([-2, -1, 1, 3]))
        inputs = [EElement(terms)]
        entries = p.sorted_entries()
        if entries:  # an entry's input beside another cluster: a block on
            # the first alone leaves the second apart
            w_in = rng.choice(entries)[3]
            ew, sign = normalize_clusters(sp, (w_in, _nonzero_word(rng, sp)))
            if sign:
                inputs.append(EElement.monomial(EWord(ew.clusters,
                                                      rng.randrange(2))))
        split = _outcome(lambda: assembly.apply_ibl(p, EElement.monomial(
            word_to_singletons(_nonzero_word(rng, sp))), cap))
        if split != "incomplete":
            inputs.append(split)  # a first stage, as check_ibl feeds it
        for x in inputs:
            got = _outcome(lambda: assembly.apply_ibl(
                p, x, cap, single_cluster=True))
            want = _outcome(lambda: assembly.apply_ibl(p, x, cap))
            if want == "incomplete":
                assert got == want, x
                seen["raised"] += 1
                continue
            assert got != "incomplete", x
            assert pi_single_cluster(got) == pi_single_cluster(want), x
            assert all(len(ew.clusters) == 1 for ew in got.terms), x
            seen["complete" if complete else "partial"] += bool(got)
            seen["dropped"] += len(got.terms) < len(want.terms)
            seen["dropped apart"] += any(
                len(ew.clusters) > 1 and UNIT_WORD not in ew.clusters
                for ew in want.terms)
        ialg, bounds = BLAlgebra(sp, p), Bounds(rng.choice((2, 3)))
        verdict = status(lambda: check_ibl(ialg, cap, bounds))
        assert verdict == status(lambda: _check_split_words(
            ialg, bounds, None, lambda image, x: assembly.apply_ibl(
                p, assembly.apply_ibl(p, x, cap), cap),
            witness=lambda word, bad: (len(word), *min(bad), word))), p
        if complete:
            assert verdict == oracle_check_ibl(sp, p, cap, bounds), p
        seen["check raised" if verdict == "incomplete" else
             "check passed" if verdict[0] else "check failed"] += 1
    assert min(seen.values()) >= 20, seen
