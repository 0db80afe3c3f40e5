"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance here is exact: all arithmetic is rational.
"""

import io as pyio
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from blinfty import fixtures
from blinfty import io as bio
from blinfty.assembly import apply_coderivation, apply_inner_coderivation
from blinfty.cli import main as cli_main
from blinfty.hierarchy import (HierarchyValue, hierarchy_combine,
                               hierarchy_compare)
from blinfty.ibl import (apply_hat_p_ibl, c_map,
                         check_ibl, derive_flat_torsion,
                         torsion_grid, verify_grid_certificate)
from blinfty.invariants import (default_schedule, order_O, order_O_tilde,
                                order_multi, order_multi_tilde, torsion,
                                transport_order, verify, width)
from blinfty.structures import (Augmentation, BLAlgebra, BLMorphism, Bounds,
                                OperationTable, PointedMap, apply_hat_p,
                                apply_hat_phi, check_compatibility,
                                check_pointed, check_structure, ell_table,
                                f_eps, identity_table, is_augmentation,
                                linearize, linearize_pointed,
                                pi_single_cluster, pull_back,
                                word_to_singletons, zero_table)
from blinfty.words import (EElement, EWord, Element, GradedSpace, UNIT_EWORD,
                           UNIT_WORD, Word, enumerate_basis, normalize_word)

from util import (combine_components_oracle, random_space, random_table,
                  space, table, word)


def report(criterion, detail):
    print("ACCEPTANCE %s: PASS — %s" % (criterion, detail))


def test_criterion_1_two_level_equivalence():
    """check_structure's verdict equals direct p-hat squared evaluation on
    >= 100 random tables; exact agreement under 60 s."""
    rng = random.Random(20240809)
    t0 = time.monotonic()
    n_tables = 0
    n_verified = 0
    while n_tables < 100:
        sp = random_space(rng, n=rng.randint(1, 4))
        if n_tables % 5 == 0:
            tab = random_table(rng, sp, max_l=0, n_entries=rng.randint(1, 3))
        else:
            tab = random_table(rng, sp, max_k=3, max_l=3,
                               n_entries=rng.randint(1, 5))
        alg = BLAlgebra(sp, tab)
        verdict = check_structure(alg, Bounds(4)).ok
        direct = True
        for ew in enumerate_basis(sp, 4, outer_components=4,
                                  allow_units=False):
            if apply_hat_p(alg, apply_hat_p(alg, EElement.monomial(ew))):
                direct = False
                break
        assert verdict == direct, (sp.parities, tab.cells)
        n_tables += 1
        n_verified += verdict
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "took %.1f s" % elapsed
    assert n_verified >= 10  # the l=0-only family always verifies
    report("1", "two-level equivalence on %d random tables (%d structures) "
                "in %.1f s" % (n_tables, n_verified, elapsed))


def test_criterion_2_torsion_fixtures():
    t0 = time.monotonic()
    alg = fixtures.planar_torsion_one()
    ans = torsion(alg, default_schedule(3, Bounds(2, max_action=2)))
    assert ans.kind == "exact" and ans.level == 1
    t1 = time.monotonic()
    assert t1 - t0 < 1.0

    alg0 = fixtures.torsion_zero()
    ans0 = torsion(alg0, default_schedule(2, Bounds(2)))
    assert ans0.kind == "exact" and ans0.level == 0
    t2 = time.monotonic()
    assert t2 - t1 < 1.0

    algz = fixtures.zero_structure()
    for k in (1, 2, 3):
        assert torsion(algz, default_schedule(k, Bounds(3))).kind == \
            "not-found"
    t3 = time.monotonic()
    assert t3 - t2 < 1.0
    report("2", "torsion exact 1 / exact 0 / not-found in %.2f s" % (t3 - t0))


def _corpus_pairs():
    for name, (alg, augs, _) in fixtures.corpus().items():
        for i, eps in enumerate(augs):
            yield "%s[%d]" % (name, i), alg, eps


def test_criterion_3_f_eps_inverse_and_no_constants():
    bounds = Bounds(3, word_bound=3)
    n_pairs = 0
    for name, alg, eps in _corpus_pairs():
        assert is_augmentation(eps, bounds).ok, name
        fp, fm = f_eps(eps, +1), f_eps(eps, -1)
        for ew in enumerate_basis(alg.space, 3, outer_components=3):
            x = EElement.monomial(ew)
            assert apply_hat_phi(fm, apply_hat_phi(fp, x)) == x, name
            assert apply_hat_phi(fp, apply_hat_phi(fm, x)) == x, name
        lin = linearize(eps, bounds)  # raises if a constant survives
        assert all(l != 0 for (_, l) in lin.cells), name
        n_pairs += 1
    assert n_pairs >= 10
    report("3", "coordinate-change inverse and constant-term vanishing on "
                "%d algebra/augmentation pairs" % n_pairs)


def test_criterion_4_linearized_quadratic_relation():
    bounds = Bounds(4, word_bound=4)
    n_pairs = 0
    for name, alg, eps in _corpus_pairs():
        lin = linearize(eps, bounds)
        lt = ell_table(lin)
        for w in enumerate_basis(alg.space, 4):
            if len(w) < 1:
                continue
            e = Element.monomial(w)
            dd = apply_inner_coderivation(lt, apply_inner_coderivation(lt, e))
            assert not dd, (name, w)
        n_pairs += 1
    report("4", "bar differential squares to zero on words of <= 4 letters "
                "for %d linearized pairs" % n_pairs)


def _compatible_triples():
    """(phi, p_bullet, q_bullet, eps_target) quadruples, compatibility
    verified with an explicit homotopy table."""
    triples = []
    # identity data on the pointed fixtures, several augmentations
    for fix in (fixtures.pointed_one, fixtures.pointed_two):
        alg, pmap = fix()
        phi = fixtures.identity_morphism(alg)
        zb = zero_table(alg.space, parity=1)
        triples.append((phi, pmap, pmap, zb, fixtures.zero_aug(alg)))
    alg2, pmap2 = fixtures.pointed_two()
    phi2 = fixtures.identity_morphism(alg2)
    eps_rich = fixtures.rich_even_aug(alg2, [(("a",), 1), (("a", "b"), -2)])
    triples.append((phi2, pmap2, pmap2, zero_table(alg2.space, parity=1),
                    eps_rich))
    # rescaling morphisms on all-even spaces: p is the pullback of q
    for (ca, cb) in ((2, 3), (1, -1), (Fraction(1, 2), 5)):
        sp = space(("a", 0), ("b", 0))
        alg = BLAlgebra(sp, zero_table(sp))
        phi = BLMorphism(alg, alg, table(sp, 0, [
            (1, 1, ("a",), [(ca, ("a",))]),
            (1, 1, ("b",), [(cb, ("b",))])]))
        q = PointedMap(alg, table(sp, 0, [(2, 0, ("a", "b"), [(1, ())])]))
        p = PointedMap(alg, table(sp, 0, [(2, 0, ("a", "b"),
                                           [(ca * cb, ())])]))
        triples.append((phi, p, q, zero_table(sp, parity=1),
                        fixtures.zero_aug(alg)))
    # commutator-corrected pointed maps over small differential algebras
    rng = random.Random(515)
    while len(triples) < 12:
        sp = random_space(rng, n=2)
        odd = [i for i in range(2) if sp.parities[i]]
        even = [i for i in range(2) if not sp.parities[i]]
        rows = []
        if odd and even:
            rows.append((1, 1, Word((odd[0],)),
                         Element.monomial(Word((even[0],)),
                                          Fraction(rng.randint(1, 3)))))
        alg = BLAlgebra(sp, OperationTable(sp, 1, rows))
        ptab = random_table(rng, sp, parity=0, n_entries=2, max_k=2, max_l=1)
        pmap = PointedMap(alg, ptab)
        if not check_pointed(pmap, Bounds(3)).ok:
            continue
        fb = random_table(rng, sp, parity=1, n_entries=2, max_k=2, max_l=1)
        qtab = _commutator_corrected(alg, ptab, fb)
        qmap = PointedMap(alg, qtab)
        phi = fixtures.identity_morphism(alg)
        triples.append((phi, pmap, qmap, fb, fixtures.zero_aug(alg)))
    return triples


def _commutator_corrected(alg, ptab, fb):
    sp = alg.space
    entries = {}
    for (k, l, _, w, e) in ptab.sorted_entries():
        entries[(k, l, w)] = e
    for w in enumerate_basis(sp, 3):
        if len(w) < 1:
            continue
        x = EElement.monomial(word_to_singletons(w))
        com = (apply_hat_p(alg, apply_coderivation(fb, x))
               + apply_coderivation(fb, apply_hat_p(alg, x)))
        for (l, _), e in pi_single_cluster(com).items():
            key = (len(w), l, w)
            entries[key] = entries.get(key, Element()) + e
    rows = [(k, l, w, e) for (k, l, w), e in entries.items() if e]
    return OperationTable(sp, 0, rows, complete=False, max_k=3)


def test_criterion_5_order_inequalities_and_functoriality():
    bounds = Bounds(3, word_bound=3)
    # O <= O-tilde and the multi-point analogue wherever both are certified
    pairs = 0
    for fix in (fixtures.pointed_one, fixtures.pointed_two):
        alg, pmap = fix()
        eps = fixtures.zero_aug(alg)
        o = order_O(eps, pmap, bounds)
        ot = order_O_tilde(eps, pmap, bounds)
        assert o.found() and ot.found() and o.level <= ot.level
        pairs += 1
    alg1, pmap1 = fixtures.pointed_one()
    eps1 = fixtures.zero_aug(alg1)
    fam = {frozenset({1}): pmap1.table, frozenset({2}): pmap1.table,
           frozenset({1, 2}): zero_table(alg1.space, parity=0)}
    om = order_multi(eps1, fam, 2, bounds)
    omt = order_multi_tilde(eps1, fam, 2, bounds)
    assert om.found() and omt.found() and om.level <= omt.level
    pairs += 1
    # certificate transport across >= 10 verified-compatible triples
    n_triples = 0
    n_transported = 0
    for (phi, p, q, fb, eps) in _compatible_triples():
        assert check_compatibility(phi, p, q, fb, Bounds(2)).ok
        ans = order_O(pull_back(eps, phi, bounds), p, bounds)
        n_triples += 1
        if ans.found():
            moved = transport_order(phi, eps, q, ans)
            assert moved.level == ans.level
            assert moved.problem[1:] == (eps, q) and verify(moved)
            n_transported += 1
    assert n_triples >= 10
    assert n_transported >= 5
    report("5", "order inequalities on %d fixture pairs; functoriality "
                "transport on %d compatible triples (%d with certificates)"
           % (pairs, n_triples, n_transported))


def test_criterion_6_width_monotonicity():
    bounds = Bounds(3, word_bound=3)
    checked = 0
    for name, alg, eps in _corpus_pairs():
        lin = linearize(eps, bounds)
        for ew in enumerate_basis(alg.space, 3, outer_components=3,
                                  allow_units=False):
            out = apply_coderivation(lin, EElement.monomial(ew))
            for ew2 in out.terms:
                assert width(ew2) >= width(ew), (name, ew, ew2)
                checked += 1
    ialgs = [fixtures.planar_torsion_one(), fixtures.ibl_genus_one()]
    rng = random.Random(99)
    for _ in range(6):
        sp = random_space(rng, n=2)
        base = random_table(rng, sp, n_entries=2, max_k=2, max_l=2)
        entries = [(k, l, rng.randrange(2), w, e)
                   for (k, l, _, w, e) in base.sorted_entries()]
        ialgs.append(BLAlgebra(sp, OperationTable(sp, 1, entries)))
    hchecked = 0
    for ialg in ialgs:
        for ew in enumerate_basis(ialg.space, 3, outer_components=2):
            for h in (0, 1):
                x = EWord(ew.clusters, hbar=h)
                out = apply_hat_p_ibl(ialg, EElement.monomial(x), 5)
                for ew2 in out.terms:
                    assert ew2.hbar >= x.hbar, (ialg, x, ew2)
                    hchecked += 1
    report("6", "width monotone on %d images, hbar-width monotone on %d "
                "images" % (checked, hchecked))


def test_criterion_7_grid_transport_and_chain_map():
    t0 = time.monotonic()
    grid_cases = []
    ia = fixtures.planar_torsion_one()
    for trunc in (1, 2, 3):
        grid_cases.append((ia, 0, 1, trunc))
    ig = fixtures.ibl_genus_one()
    grid_cases.append((ig, 1, 0, 2))
    n_transported = 0
    for (ialg, n, m, trunc) in grid_cases:
        assert check_ibl(ialg, trunc, Bounds(3)).ok
        ans = torsion_grid(ialg, n, m, trunc, Bounds(3))
        assert ans.found()
        assert verify_grid_certificate(ialg, ans.certificate, n, m, trunc)
        moved = derive_flat_torsion(ans)
        assert verify(moved), (n, m, trunc)
        if moved.certificate is not None:
            assert verify_grid_certificate(ialg, moved.certificate, n + m, 0,
                                           trunc)
        n_transported += 1
    # the connecting map commutes with the structure on basis rows
    rng = random.Random(77)
    ialgs = [ia, ig]
    for _ in range(4):
        sp = random_space(rng, n=2)
        base = random_table(rng, sp, n_entries=2, max_k=2, max_l=2)
        entries = [(k, l, rng.randrange(2), w, e)
                   for (k, l, _, w, e) in base.sorted_entries()]
        ialgs.append(BLAlgebra(sp, OperationTable(sp, 1, entries)))
    n_chain = 0
    for ialg in ialgs:
        sp = ialg.space
        m = 2
        cap = 6
        for ew in enumerate_basis(sp, 3, outer_components=m):
            x = EElement.monomial(ew)
            lhs = c_map(sp, apply_hat_p_ibl(ialg, x, cap), m - 1)
            rhs = apply_hat_p_ibl(ialg, c_map(sp, x, m - 1), cap)
            lhs = EElement({e: c for e, c in lhs.terms.items()
                            if e.hbar <= cap})
            rhs = EElement({e: c for e, c in rhs.terms.items()
                            if e.hbar <= cap})
            assert lhs == rhs
            n_chain += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("7", "%d grid certificates transported to flat torsion; chain "
                "property on %d rows in %.1f s"
           % (n_transported, n_chain, elapsed))


def test_criterion_8_hierarchy_algebra():
    t0 = time.monotonic()
    levels = [0, 1, 2, 3, 4, 5, math.inf]
    vals = [HierarchyValue("PT", l) for l in levels]
    vals += [HierarchyValue("SD", l) for l in levels]
    vals += [HierarchyValue("Pl", l) for l in levels if l >= 2]
    for a, b in itertools.product(vals, vals):
        c = hierarchy_compare(a, b)
        assert c == -hierarchy_compare(b, a)
        assert (c == 0) == (a == b)
        ab = hierarchy_combine(a, b)
        assert ab == hierarchy_combine(b, a)
        assert ab == combine_components_oracle(a, b)
    for a, b, c in itertools.product(vals, vals, vals):
        if hierarchy_compare(a, b) <= 0 and hierarchy_compare(b, c) <= 0:
            assert hierarchy_compare(a, c) <= 0
        assert hierarchy_combine(hierarchy_combine(a, b), c) == \
            hierarchy_combine(a, hierarchy_combine(b, c))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("8", "total order and monoidal combination on the %d-point grid "
                "in %.1f s" % (len(vals), elapsed))


def _run_cli(*argv):
    buf = pyio.StringIO()
    code = cli_main(list(argv), stream=buf)
    return code, buf.getvalue()


def _report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


def test_criterion_9_serialization_and_cli(tmp_path):
    # byte-identical round trips: fixture corpus plus 1000 random documents
    corpus = fixtures.document_corpus()
    for name, text in corpus.items():
        assert bio.serialize(bio.parse(text)) == text, name
    from test_io import random_document
    rng = random.Random(424242)
    for _ in range(1000):
        doc = random_document(rng)
        text = bio.serialize(doc)
        assert bio.serialize(bio.parse(text)) == text
    # CLI answers equal library answers on the corpus
    for name, text in corpus.items():
        (tmp_path / (name + ".blf")).write_text(text, encoding="utf-8")
    checks = 0
    for name, (alg, augs, pmap) in fixtures.corpus().items():
        f = str(tmp_path / (name + ".blf"))
        doc = bio.parse(corpus[name])
        bounds = doc.bounds
        lib = torsion(alg, default_schedule(bounds.outer(), bounds))
        code, out = _run_cli("torsion", f)
        got = _report_value(out, "torsion")
        if lib.found():
            assert got == "%s %d" % (lib.kind, lib.level), name
            assert code == 0
        else:
            assert got == "not-found-within-bounds" and code == 3, name
        checks += 1
        if pmap is not None and augs:
            lib_o = order_O(augs[0], pmap, bounds)
            code, out = _run_cli(
                "order", f, "--aug", str(tmp_path / (name + ".aug0.blf")),
                "--pointed", str(tmp_path / (name + ".pointed.blf")))
            assert _report_value(out, "order") == \
                "%s %d" % (lib_o.kind, lib_o.level), name
            checks += 1
    code, out = _run_cli("combine", "2^SD", "3^SD")
    assert _report_value(out, "combine") == repr(
        hierarchy_combine(HierarchyValue("SD", 2), HierarchyValue("SD", 3)))
    checks += 1
    report("9", "round-trip identity on %d corpus + 1000 random documents; "
                "%d CLI/library agreements" % (len(corpus), checks))
