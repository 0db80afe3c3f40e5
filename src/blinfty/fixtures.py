"""The fixture corpus: small verified structures exercising every invariant.

Each fixture is built programmatically; serialize_corpus() renders the text
documents used by the command-line round-trip tests.  Run as a module to
dump the corpus into a directory:  python -m blinfty.fixtures OUT_DIR
"""

from __future__ import annotations

from fractions import Fraction

from .structures import (Augmentation, BLAlgebra, BLMorphism, Bounds,
                         OperationTable, PointedMap, identity_table,
                         zero_table)
from .words import (Element, Generator, GradedSpace, UNIT_WORD, Word,
                    normalize_word)


def _table(space, parity, rows, **kw):
    entries = []
    for (k, l, in_names, outs) in rows:
        w_in, s = normalize_word(space, in_names)
        assert s == 1
        elem = Element()
        for coeff, out_names in outs:
            w_out, s2 = normalize_word(space, out_names)
            assert s2 != 0
            elem = elem + Element.monomial(w_out, Fraction(coeff) * s2)
        entries.append((k, l, w_in, elem))
    return OperationTable(space, parity, entries, **kw)


def torsion_ladder(n):
    """The rung of torsion exactly n - 1: generators q1..qn of action 1,
    q1 odd and the rest even, with the single n-input constant operation
    q1*...*qn -> 1.  Rung 1 is torsion_zero up to the generator's name,
    rung 2 is planar_torsion_one.
    """
    if n < 1:
        raise ValueError("torsion_ladder needs n >= 1, got %r" % (n,))
    names = ["q%d" % i for i in range(1, n + 1)]
    sp = GradedSpace([Generator(q, 1 if i == 0 else 0, action=Fraction(1))
                      for i, q in enumerate(names)])
    tab = _table(sp, 1, [(n, 0, names, [(1, ())])], action_drop=True)
    return BLAlgebra(sp, tab)


def planar_torsion_one():
    """Two generators with a single two-input constant operation.

    The outer word q1 (.) q2 maps to 1, no other cell is nonzero; torsion
    is exactly 1 and no augmentation exists.  The parity-1 constraint
    forces the generators to carry opposite parities.
    """
    return torsion_ladder(2)


def torsion_zero():
    """One odd generator killed into the unit: torsion exactly 0."""
    sp = GradedSpace([Generator("q", 1, action=Fraction(1))])
    tab = _table(sp, 1, [(1, 0, ("q",), [(1, ())])], action_drop=True)
    return BLAlgebra(sp, tab)


def zero_structure(parities=(1, 0)):
    sp = GradedSpace([Generator("z%d" % i, p) for i, p in enumerate(parities)])
    return BLAlgebra(sp, zero_table(sp))


def acyclic_pair():
    """d(b) = a on one even and one odd generator."""
    sp = GradedSpace([Generator("a", 0), Generator("b", 1)])
    tab = _table(sp, 1, [(1, 1, ("b",), [(1, ("a",))])])
    return BLAlgebra(sp, tab)


def linearizable():
    """d(t) = x*y with x, y even; the augmentation x -> 1 has a nonzero
    linear part, so linearization produces genuine correction terms."""
    sp = GradedSpace([Generator("x", 0), Generator("y", 0), Generator("t", 1)])
    tab = _table(sp, 1, [(1, 2, ("t",), [(1, ("x", "y"))])])
    return BLAlgebra(sp, tab)


def linearizable_aug(alg, x_val=1):
    sp = alg.space
    tab = _table(sp, 0, [(1, 0, ("x",), [(x_val, ())])],
                 target=GradedSpace(()))
    return Augmentation(alg, tab)


def quadratic_aug_family():
    """q1*q2 -> c with everything odd: the two-input augmentation value is
    free, so the linearizing coordinate change acts nontrivially."""
    sp = GradedSpace([Generator("q1", 1), Generator("q2", 1),
                      Generator("c", 1)])
    tab = _table(sp, 1, [(2, 1, ("q1", "q2"), [(1, ("c",))])])
    alg = BLAlgebra(sp, tab)

    def aug(s):
        rows = []
        if s:
            rows.append((2, 0, ("q1", "q2"), [(s, ())]))
        t = _table(sp, 0, rows, target=GradedSpace(()))
        return Augmentation(alg, t)

    return alg, aug


def mixed_no_aug(sign=1):
    """d(b) = a together with a two-input constant on a*b.

    The outer condition would want eps(a)^2 = -sign while the inner
    Leibniz condition forces eps(a) = 0, so no augmentation exists over
    the rationals, yet the unit never becomes a boundary: unbounded
    torsion without an augmentation.
    """
    sp = GradedSpace([Generator("a", 0), Generator("b", 1)])
    tab = _table(sp, 1, [(1, 1, ("b",), [(1, ("a",))]),
                         (2, 0, ("a", "b"), [(sign, ())])])
    return BLAlgebra(sp, tab)


def all_even_free(n=2):
    """An all-even space: the structure is forced to vanish and every
    functional family is an augmentation."""
    sp = GradedSpace([Generator("e%d" % i, 0) for i in range(n)])
    return BLAlgebra(sp, zero_table(sp))


def rich_even_aug(alg, values):
    """values: list of (input names, rational)."""
    sp = alg.space
    rows = [(len(names), 0, names, [(v, ())]) for names, v in values]
    t = _table(sp, 0, rows, target=GradedSpace(()))
    return Augmentation(alg, t)


def pointed_one(alg=None):
    """One even generator, structure zero, the one-letter functional 1."""
    if alg is None:
        sp = GradedSpace([Generator("g", 0)])
        alg = BLAlgebra(sp, zero_table(sp))
    tab = _table(alg.space, 0, [(1, 0, ("g",), [(1, ())])])
    return alg, PointedMap(alg, tab)


def pointed_two():
    """Two even generators, structure zero, the two-letter functional 1:
    the order jumps to 2."""
    sp = GradedSpace([Generator("a", 0), Generator("b", 0)])
    alg = BLAlgebra(sp, zero_table(sp))
    tab = _table(sp, 0, [(2, 0, ("a", "b"), [(1, ())])])
    return alg, PointedMap(alg, tab)


def order_ladder(n):
    """The rung of order exactly n: even generators g1..gn, structure zero,
    the n-letter functional g1*...*gn -> 1 as the pointed map.  Rungs 1
    and 2 are pointed_one and pointed_two up to the generators' names.
    """
    if n < 1:
        raise ValueError("order_ladder needs n >= 1, got %r" % (n,))
    names = ["g%d" % i for i in range(1, n + 1)]
    sp = GradedSpace([Generator(g, 0) for g in names])
    alg = BLAlgebra(sp, zero_table(sp))
    return alg, PointedMap(alg, _table(sp, 0, [(n, 0, names, [(1, ())])]))


def zero_aug(alg):
    return Augmentation(alg, OperationTable(alg.space, 0, (),
                                            target=GradedSpace(())))


def identity_morphism(alg):
    return BLMorphism(alg, alg, identity_table(alg.space))


def sd_example():
    """U(x) = y on two even generators with the functional hitting x."""
    sp = GradedSpace([Generator("x", 0), Generator("y", 0)])
    alg = BLAlgebra(sp, zero_table(sp))
    w_x, _ = normalize_word(sp, ("x",))
    w_y, _ = normalize_word(sp, ("y",))
    utab = OperationTable(sp, 0, [(1, 1, w_x, Element.monomial(w_y))],
                          complete=True)
    ptab = _table(sp, 0, [(1, 0, ("x",), [(1, ())])])
    return alg, utab, PointedMap(alg, ptab)


def sd_ladder(n):
    """The rung of semi-dilation exactly n - 1: even generators x1..xn,
    structure zero, U(xi) = x(i+1) (an n-step nilpotent Jordan block) and
    the functional x1 -> 1.  Rungs 1 and 2 are pointed_one (with U = 0)
    and sd_example up to the generators' names.
    """
    if n < 1:
        raise ValueError("sd_ladder needs n >= 1, got %r" % (n,))
    names = ["x%d" % i for i in range(1, n + 1)]
    sp = GradedSpace([Generator(x, 0) for x in names])
    alg = BLAlgebra(sp, zero_table(sp))
    utab = _table(sp, 0, [(1, 1, (a,), [(1, (b,))])
                          for a, b in zip(names, names[1:])])
    ptab = _table(sp, 0, [(1, 0, ("x1",), [(1, ())])])
    return alg, utab, PointedMap(alg, ptab)


def disjoint_union(a, b):
    """The disjoint union of two algebras: a's generators then b's, named
    with the prefixes a_ and b_, and the two tables side by side.  No
    operation mixes the two components, since a connected curve lies in
    one of them.  The union's table is complete when both are, and
    otherwise covers the arities both cover.
    """
    def shifted(word, offset):
        # letters keep their order, so a normal-form word stays one
        return Word(tuple(i + offset for i in word.letters))

    gens, entries = [], []
    for prefix, alg in (("a_", a), ("b_", b)):
        offset = len(gens)
        gens += [Generator(prefix + g.name, g.parity, g.zgrade, g.action)
                 for g in alg.space.generators]
        entries += [(k, l, g, shifted(w, offset), Element(
                         {shifted(out, offset): c
                          for out, c in elem.terms.items()}))
                    for k, l, g, w, elem in alg.table.sorted_entries()]
    complete = a.table.complete and b.table.complete
    max_k = None if complete else min(t.max_k for t in (a.table, b.table)
                                      if not t.complete)
    sp = GradedSpace(gens)
    return BLAlgebra(sp, OperationTable(
        sp, 1, entries, complete=complete, max_k=max_k,
        action_drop=a.table.action_drop and b.table.action_drop))


def ibl_genus_one():
    sp = GradedSpace([Generator("q", 1)])
    w, _ = normalize_word(sp, ("q",))
    tab = OperationTable(sp, 1, [(1, 0, 1, w, Element.monomial(UNIT_WORD))])
    return BLAlgebra(sp, tab)


def corpus():
    """name -> (algebra, list of augmentations, optional pointed map)."""
    out = {}
    fa = planar_torsion_one()
    out["planar-torsion-one"] = (fa, [], None)
    t0 = torsion_zero()
    out["torsion-zero"] = (t0, [], None)
    z = zero_structure()
    out["zero-mixed"] = (z, [zero_aug(z)], None)
    ac = acyclic_pair()
    out["acyclic-pair"] = (ac, [zero_aug(ac)], None)
    lin = linearizable()
    out["linearizable"] = (lin, [zero_aug(lin), linearizable_aug(lin, 1),
                                 linearizable_aug(lin, -2)], None)
    qa, qaug = quadratic_aug_family()
    out["quadratic-aug"] = (qa, [qaug(0), qaug(1), qaug(Fraction(-1, 2))], None)
    ev = all_even_free(2)
    evaug = rich_even_aug(ev, [(("e0",), 1), (("e1",), Fraction(1, 3)),
                               (("e0", "e1"), -2)])
    p0alg, p0 = pointed_one(None)
    out["all-even"] = (ev, [zero_aug(ev), evaug], None)
    out["pointed-one"] = (p0alg, [zero_aug(p0alg)], p0)
    p2alg, p2 = pointed_two()
    out["pointed-two"] = (p2alg, [zero_aug(p2alg)], p2)
    out["mixed-no-aug"] = (mixed_no_aug(), [], None)
    return out


def document_corpus():
    """name -> canonical document text, for round-trip and CLI testing."""
    from . import io as bio
    docs = {}
    for name, (alg, augs, pmap) in corpus().items():
        bounds = Bounds(3, word_bound=3, max_action=(
            2 if name == "planar-torsion-one" else None))
        docs[name] = bio.serialize(
            bio.document_of_algebra(alg, bounds=bounds))
        for i, eps in enumerate(augs):
            docs["%s.aug%d" % (name, i)] = bio.serialize(bio.document_of_table(
                "augmentation", "eps%d" % i, eps.table))
        if pmap is not None:
            docs["%s.pointed" % name] = bio.serialize(bio.document_of_table(
                "pointed", "S1", pmap.table))
    alg, utab, pmap = sd_example()
    docs["sd-example"] = bio.serialize(bio.document_of_algebra(
        alg, bounds=Bounds(2, word_bound=2)))
    docs["sd-example.aug0"] = bio.serialize(bio.document_of_table(
        "augmentation", "eps0", zero_table(alg.space, 0)))
    docs["sd-example.umap"] = bio.serialize(bio.document_of_table(
        "umodule", "U", utab))
    docs["sd-example.pointed"] = bio.serialize(bio.document_of_table(
        "pointed", "S1", pmap.table))
    p0alg, _ = pointed_one()
    docs["pointed-one.umap"] = bio.serialize(bio.document_of_table(
        "umodule", "U", zero_table(p0alg.space, 0)))
    # a flat algebra is its own hbar-graded lift
    docs["ibl-planar"] = bio.serialize(bio.document_of_ibl(
        planar_torsion_one(), bounds=Bounds(3, hbar_max=2)))
    docs["ibl-genus-one"] = bio.serialize(bio.document_of_ibl(
        ibl_genus_one(), bounds=Bounds(2, hbar_max=2)))
    return docs


def main(argv=None):
    import pathlib
    import sys
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m blinfty.fixtures OUT_DIR", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    corpus = document_corpus()
    for name, text in corpus.items():
        (out / ("%s.blf" % name)).write_text(text, encoding="utf-8")
    print("wrote %d fixture documents to %s" % (len(corpus), out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
