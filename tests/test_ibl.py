import itertools
import random

import pytest

from blinfty import fixtures, invariants
from blinfty.invariants import verify
from blinfty.errors import IncompleteTableError, StructureError
from blinfty.ibl import (apply_hat_p_ibl, c_map,
                         check_ibl, derive_flat_torsion, genus0,
                         torsion_grid, verify_grid_certificate)
from blinfty.structures import (Augmentation, BLAlgebra, Bounds,
                                OperationTable, PointedMap, VerifyStatus,
                                apply_hat_p, check_pointed, check_structure,
                                is_augmentation)
from blinfty.words import (EElement, EWord, Element, UNIT_EWORD, UNIT_WORD,
                           enumerate_basis, normalize_word)

from util import (eword, oracle_check_ibl, oracle_ibl, random_space,
                  random_table, space, word)

B3 = Bounds(3)


def ibl_fixture_a():
    return fixtures.planar_torsion_one()


def genus_one_loop():
    """One odd generator with a genus-one constant cell: p(q) = hbar."""
    sp = space(("q", 1),)
    w = word(sp, "q")
    tab = OperationTable(sp, 1, [(1, 0, 1, w, Element.monomial(UNIT_WORD))])
    return BLAlgebra(sp, tab)


def test_genus0_only_matches_plain_assembly_at_exponent_zero():
    # the cycle-free part of the graded gluing is the plain assembly;
    # cycle gluings of a genus-0 table land at positive exponents
    rng = random.Random(7)
    for _ in range(10):
        sp = random_space(rng)
        tab = random_table(rng, sp, n_entries=3)
        alg = BLAlgebra(sp, tab)
        ialg = alg
        for ew in enumerate_basis(sp, 3, outer_components=2):
            x = EElement.monomial(ew)
            got = apply_hat_p_ibl(ialg, x, 0)
            want = apply_hat_p(alg, x)
            assert got == want


def test_cycle_creation_on_one_cluster():
    # gluing the two-input constant cell to both letters of one cluster
    # closes one cycle: output hbar * 1
    ialg = ibl_fixture_a()
    sp = ialg.space
    x = EElement.monomial(eword(sp, ("q1", "q2")))
    got = apply_hat_p_ibl(ialg, x, 3)
    assert got == EElement.monomial(EWord((UNIT_WORD,), hbar=1))


def test_truncation_drops_high_exponents():
    ialg = ibl_fixture_a()
    sp = ialg.space
    x = EElement.monomial(eword(sp, ("q1", "q2")))
    assert not apply_hat_p_ibl(ialg, x, 0)


def independent_cycle_count(n_clusters, selections):
    """edges - vertices + components for one operation gluing, where
    selections[i] = number of letters taken from cluster i (0 allowed)."""
    touched = [i for i, j in enumerate(selections) if j > 0]
    edges = sum(selections)
    vertices = len(touched) + 1  # touched clusters + the operation vertex
    components = 1
    return edges - vertices + components


def test_cycle_count_matches_graph_formula():
    # Sum over j letters from r clusters: exponent gain g + j - r equals
    # edges - vertices + components of the glued graph.
    for r in range(1, 4):
        for js in itertools.product(range(1, 4), repeat=r):
            gain = sum(js) - r
            assert gain == independent_cycle_count(
                r, list(js) + [0] * 2)


def test_ibl_oracle_random_tables():
    """hbar bookkeeping against an independent exhaustive oracle."""
    rng = random.Random(19)
    for _ in range(10):
        sp = random_space(rng, n=2)
        base = random_table(rng, sp, n_entries=2, max_k=2, max_l=2)
        extra = []
        for (k, l, _, w, e) in base.sorted_entries():
            extra.append((k, l, rng.randrange(2), w, e))
        tab = OperationTable(sp, 1, extra)
        ialg = BLAlgebra(sp, tab)
        for ew in enumerate_basis(sp, 3, outer_components=2):
            x = EElement.monomial(ew)
            got = apply_hat_p_ibl(ialg, x, 5)
            want = oracle_ibl(sp, tab, ew, 5)
            assert got == want, (ew, tab.cells)


def test_check_ibl_fixture_a_lift():
    ialg = ibl_fixture_a()
    assert check_ibl(ialg, 2, B3).ok


def test_check_ibl_fails_on_bad_differential():
    sp = space(("x", 0), ("y", 1), ("z", 0))
    tab = OperationTable(sp, 1, [
        (1, 1, 0, word(sp, "x"), Element.monomial(word(sp, "y"))),
        (1, 1, 0, word(sp, "y"), Element.monomial(word(sp, "z"))),
    ])
    ialg = BLAlgebra(sp, tab)
    assert not check_ibl(ialg, 1, B3).ok


def test_check_ibl_agrees_with_hat_squared():
    rng = random.Random(23)
    for _ in range(12):
        sp = random_space(rng, n=2)
        base = random_table(rng, sp, n_entries=2, max_k=2, max_l=2)
        entries = [(k, l, rng.randrange(2), w, e)
                   for (k, l, _, w, e) in base.sorted_entries()]
        ialg = BLAlgebra(sp, OperationTable(sp, 1, entries))
        verdict = check_ibl(ialg, 2, Bounds(2)).ok
        direct = True
        for ew in enumerate_basis(sp, 2, outer_components=2):
            for h in (0, 1):
                x = EElement.monomial(EWord(ew.clusters, hbar=h))
                if apply_hat_p_ibl(ialg, apply_hat_p_ibl(ialg, x, 2), 2):
                    direct = False
                    break
            if not direct:
                break
        assert verdict == direct


def test_check_ibl_agrees_with_oracle():
    # verdict and witness (k, l, g, word) against oracle_ibl squared on
    # split words, over random tables of genera 0-1 at caps 0-2
    rng = random.Random(41)
    seen = {"passed": 0, "passed with genus 1": 0, "failed": 0,
            "failed at hbar > 0": 0}
    for _ in range(60):
        sp = random_space(rng, n=rng.randint(1, 3))
        base = random_table(rng, sp, n_entries=rng.randint(1, 4), max_k=3,
                            max_l=rng.choice((0, 1, 2)))
        entries = [(k, l, rng.randrange(2), w, e)
                   for (k, l, _, w, e) in base.sorted_entries()]
        tab = OperationTable(sp, 1, entries)
        cap, bounds = rng.randrange(3), Bounds(rng.choice((2, 3)))
        status = check_ibl(BLAlgebra(sp, tab), cap, bounds)
        assert (status.ok, status.witness) == \
            oracle_check_ibl(sp, tab, cap, bounds), entries
        if status.ok:
            seen["passed"] += 1
            seen["passed with genus 1"] += any(e[2] for e in entries)
        else:
            seen["failed"] += 1
            seen["failed at hbar > 0"] += status.witness[2] > 0
    assert min(seen.values()) >= 5, seen


def test_genus0_of_lift_recovers_algebra():
    alg = fixtures.planar_torsion_one()
    assert genus0(alg).table == alg.table


def _outcome(call):
    """A check's (ok, witness), an evaluation's value, or the error type."""
    try:
        out = call()
    except IncompleteTableError as e:
        return type(e)
    return (out.ok, out.witness) if isinstance(out, VerifyStatus) else out


def test_flat_operators_equal_on_genus0():
    # the flat operators glue genus-zero forests only, so an algebra whose
    # table carries genera and its genus0 truncation agree on each of them;
    # verify reads an ibl document's flat checks this way
    rng = random.Random(41)
    for _ in range(40):
        sp = random_space(rng)
        base = random_table(rng, sp, n_entries=4)
        entries = [(k, l, rng.choice((0, 0, 1, 2)), w, e)
                   for (k, l, _, w, e) in base.sorted_entries()]
        complete = rng.random() < 0.7
        alg = BLAlgebra(sp, OperationTable(
            sp, 1, entries, complete=complete,
            max_k=None if complete else rng.randint(1, 3)))
        flat = genus0(alg)
        eps = Augmentation(alg, random_table(rng, sp, parity=0, max_l=0,
                                             n_entries=3))
        pmap = PointedMap(alg, random_table(rng, sp, parity=rng.randrange(2),
                                            n_entries=2))
        for ew in enumerate_basis(sp, 3, outer_components=3):
            x = EElement.monomial(ew)
            assert _outcome(lambda: apply_hat_p(alg, x)) == \
                _outcome(lambda: apply_hat_p(flat, x)), ew
        for b in (Bounds(2), B3, Bounds(3, word_bound=2)):
            for check in (check_structure,
                          lambda a, b: is_augmentation(
                              Augmentation(a, eps.table), b),
                          lambda a, b: check_pointed(
                              PointedMap(a, pmap.table), b)):
                assert _outcome(lambda: check(alg, b)) == \
                    _outcome(lambda: check(flat, b))


def test_genus0_verifies_for_random_ibl():
    rng = random.Random(31)
    for _ in range(8):
        sp = random_space(rng)
        base = random_table(rng, sp, max_l=0, n_entries=2)
        entries = [(k, l, rng.randrange(3), w, e)
                   for (k, l, _, w, e) in base.sorted_entries()]
        ialg = BLAlgebra(sp, OperationTable(sp, 1, entries))
        if check_ibl(ialg, 2, Bounds(3)).ok:
            assert check_structure(genus0(ialg), Bounds(3)).ok


def test_genus_one_only_gives_zero_genus0():
    ialg = genus_one_loop()
    back = genus0(ialg)
    assert not back.table.sorted_entries()
    assert check_structure(back, B3).ok


def test_hbar_width_monotone():
    ialg = ibl_fixture_a()
    sp = ialg.space
    for ew in enumerate_basis(sp, 3, outer_components=2):
        for h in (0, 1):
            x = EWord(ew.clusters, hbar=h)
            out = apply_hat_p_ibl(ialg, EElement.monomial(x), 4)
            for ew2 in out.terms:
                assert ew2.hbar >= x.hbar


# ---- the torsion grid --------------------------------------------------------

def test_grid_fixture_a_01():
    ialg = ibl_fixture_a()
    for trunc in (0, 1, 2):
        ans = torsion_grid(ialg, 0, 1, trunc, Bounds(2))
        assert ans.found() and ans.level == 1
        assert verify_grid_certificate(ialg, ans.certificate, 0, 1, trunc)
        assert verify(ans)
        assert ans.certificate == EElement.monomial(
            eword(ialg.space, ("q1",), ("q2",)))


def test_grid_enumerates_its_window_once(monkeypatch):
    # the window tags one enumeration of outer words with every exponent
    # up to the truncation, rather than enumerating once per exponent
    calls = []
    enumerate_basis_ = invariants.enumerate_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_basis_(*args, **kwargs)
    monkeypatch.setattr(invariants, "enumerate_basis", counted)
    ans = torsion_grid(ibl_fixture_a(), 0, 1, 2, Bounds(2))
    assert ans.found() and len(calls) == 1
    assert {ew.hbar for ew in ans.certificate.terms} == {0}


def test_grid_trivial_above_truncation():
    ialg = ibl_fixture_a()
    ans = torsion_grid(ialg, 3, 0, 2, Bounds(2))
    assert ans.found() and ans.certificate is None and verify(ans)


def test_grid_zero_structure_not_found():
    sp = space(("q", 1),)
    ialg = BLAlgebra(sp, OperationTable(sp, 1, []))
    for trunc in (0, 1):
        assert not torsion_grid(ialg, 0, 1, trunc, Bounds(2)).found()


def test_grid_rejects_a_non_structure():
    # a random lift that fails check_ibl has a "solution" to p-hat(x) = 1,
    # which the grid must not report as torsion
    rng = random.Random(99)
    for _ in range(4):
        sp = random_space(rng)
        tab = random_table(rng, sp)
    ialg = BLAlgebra(sp, tab)
    assert not check_ibl(ialg, 2, B3).ok
    with pytest.raises(StructureError, match="witness"):
        torsion_grid(ialg, 0, 1, 2, B3)


def test_grid_genus_one_flat_torsion():
    ialg = genus_one_loop()
    ans = torsion_grid(ialg, 1, 0, 2, Bounds(2))
    assert ans.found()
    assert verify_grid_certificate(ialg, ans.certificate, 1, 0, 2)


def test_c_map_formula():
    ialg = ibl_fixture_a()
    sp = ialg.space
    x = EElement.monomial(eword(sp, ("q1",), ("q2",)))
    # hbar^1 C_2 (q1 (.) q2) = q1*q2 at exponent 1 + (-2 + 1) = 0
    moved = c_map(sp, x, 1)
    assert moved == EElement.monomial(eword(sp, ("q1", "q2")))


def test_c_map_single_cluster_is_inclusion():
    sp = space(("q", 1), ("r", 0))
    x = EElement.monomial(eword(sp, ("q", "r")))
    assert c_map(sp, x, 0) == x


def test_derive_flat_torsion_fixture_a():
    ialg = ibl_fixture_a()
    for trunc in (1, 2, 3):
        ans = torsion_grid(ialg, 0, 1, trunc, Bounds(2))
        assert ans.found()
        moved = derive_flat_torsion(ans)
        assert (moved.kind, moved.level) == ("exact", 0) and verify(moved)
        # the connected q1*q2 term feeds the one-cycle gluing
        assert moved.certificate == EElement.monomial(
            eword(ialg.space, ("q1", "q2")))


def test_grid_monotonicity_transports():
    ialg = ibl_fixture_a()
    trunc = 2
    ans = torsion_grid(ialg, 0, 1, trunc, Bounds(2))
    assert ans.found()
    cert = ans.certificate
    # truncation: drop exponents above trunc - 1
    low = EElement({ew: c for ew, c in cert.terms.items()
                    if ew.hbar <= trunc - 1})
    assert verify_grid_certificate(ialg, low, 0, 1, trunc - 1)
    # multiply by hbar: (n+1, m) at the same truncation
    up = EElement({EWord(ew.clusters, hbar=ew.hbar + 1): c
                   for ew, c in cert.terms.items()
                   if ew.hbar + 1 <= trunc})
    assert verify_grid_certificate(ialg, up, 1, 1, trunc)
    # inclusion: (n, m+1)
    assert verify_grid_certificate(ialg, cert, 0, 2, trunc)


def test_c_map_chain_property():
    # c-compensated connecting map commutes with the structure on <= m
    # clusters: hbar^(m-1) C_m o p = p o hbar^(m-1) C_m
    rng = random.Random(41)
    ialgs = [ibl_fixture_a(), genus_one_loop()]
    for _ in range(6):
        sp = random_space(rng, n=2)
        base = random_table(rng, sp, n_entries=2, max_k=2, max_l=2)
        entries = [(k, l, rng.randrange(2), w, e)
                   for (k, l, _, w, e) in base.sorted_entries()]
        ialgs.append(BLAlgebra(sp, OperationTable(sp, 1, entries)))
    for ialg in ialgs:
        sp = ialg.space
        m = 2
        cap = 6
        for ew in enumerate_basis(sp, 3, outer_components=m):
            x = EElement.monomial(ew)
            lhs = c_map(sp, apply_hat_p_ibl(ialg, x, cap), m - 1)
            rhs = apply_hat_p_ibl(ialg, c_map(sp, x, m - 1), cap)
            lhs = EElement({e: c for e, c in lhs.terms.items() if e.hbar <= cap})
            rhs = EElement({e: c for e, c in rhs.terms.items() if e.hbar <= cap})
            assert lhs == rhs, (ialg, ew)
