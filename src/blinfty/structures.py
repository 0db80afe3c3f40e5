"""Operation tables, algebras with a squared-zero coderivation, morphisms,
augmentations, linearization, pointed maps and U-module endomorphisms.

The structure, hbar-graded structure (ibl.check_ibl), augmentation,
pointed-map, morphism and compatibility checks test their identity by its
connected part: pi_1 of the composite on split words (one letter per
cluster), in word order, keyed by (inner length, hbar exponent).  The
assembled maps are exponentials of their connected parts, as in the
exponential form of morphisms in Cieliebak-Fukaya-Latschev
(arXiv:1508.02741), so the identity holds on the outer words of at most c
clusters exactly when its connected part vanishes on the split words of at
most c letters.  The augmentation, pointed-map, morphism and compatibility
checks take c = bounds.outer(); the two structure checks take every split
word within max_letters.  Flat gluing never raises the exponent of a split
word, so the flat checks see only exponent 0.

The first stage of each check, p-hat (or a pointed map's P-hat) on the
split words, is what the later steps of the same computation evaluate
again: linearization glues F_eps onto the same images, and the torsion
search starts from them.  The one check loop, _check_split_words, reads
and records those images, and the checks return them as a SplitImages
value, which the caller hands down to the next step.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from . import assembly
from .errors import (IncompleteTableError, InternalInconsistencyError,
                     StructureError)
from .words import (EElement, Element, GradedSpace, UNIT_WORD, Word,
                    _normalize_indices, enumerate_basis, word_to_singletons)


class Bounds:
    """A finite search window: letter count, action, outer word length.
    A negative action or hbar cap would drop every word or term, so it
    raises ValueError; zero is accepted."""

    def __init__(self, max_letters, max_action=None, word_bound=None,
                 hbar_max=None):
        self.max_letters = int(max_letters)
        self.max_action = Fraction(max_action) if max_action is not None else None
        self.word_bound = int(word_bound) if word_bound is not None else None
        self.hbar_max = int(hbar_max) if hbar_max is not None else None
        for name in ("max_action", "hbar_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError("%s must be >= 0, got %s" % (name, value))

    def outer(self):
        return self.word_bound if self.word_bound is not None else self.max_letters

    def _key(self):
        return (self.max_letters, self.max_action, self.word_bound,
                self.hbar_max)

    def __eq__(self, other):
        return isinstance(other, Bounds) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = ["max_letters=%d" % self.max_letters]
        if self.max_action is not None:
            parts.append("max_action=%s" % self.max_action)
        if self.word_bound is not None:
            parts.append("word_bound=%d" % self.word_bound)
        if self.hbar_max is not None:
            parts.append("hbar_max=%d" % self.hbar_max)
        return "Bounds(%s)" % ", ".join(parts)


class OperationTable:
    """A sparse family of maps S^k(source) -> S^l(target), fixed parity,
    with a genus axis.

    entries: iterable of (k, l, input Word, output Element supported in
    length l) at genus 0, or (k, l, genus, input Word, output Element),
    every letter in its space (else StructureError), inputs normalized.
    Outputs are kept in normal form in the target: a word listed out of
    order is sorted, its sign in the coefficient, a vanishing word dropped
    and equal words merged; an entry left zero is not stored, but its
    arity counts toward input_sizes() and max_k.  complete=True means
    absent cells are zero everywhere; otherwise cells with k <= max_k are
    zero when absent and queries beyond max_k raise IncompleteTableError.
    Whether such a partial table determines an assembled operator is
    decided in assembly's enumerations only.
    """

    def __init__(self, space, parity, entries=(), complete=True, max_k=None,
                 target=None, action_drop=False):
        self.space = space
        self.target = tgt = target if target is not None else space
        self.parity = parity % 2
        self.complete = bool(complete)
        self.action_drop = bool(action_drop)
        # one pass builds both stores, nothing fills them later: the cells
        # every reader of the entries reads, and the gluing step's index
        self._cells = {}  # input Word -> {(l, genus): Element}, entry order
        self.cells = {}  # (k, l) -> {input Word: Element} at genus 0
        self._index = {}  # input letters -> [(genus, coefficient, Word)]
        letters_in = frozenset(range(len(space)))
        letters_out = frozenset(range(len(tgt)))
        listed = set()  # every (input, l, genus) given, vanished ones too
        sizes = set()
        for entry in entries:
            k, l, g, w_in, elem = (entry if len(entry) == 5
                                   else (*entry[:2], 0, *entry[2:]))
            if k < 1:
                raise StructureError("operation arity k must be >= 1")
            if l < 0 or g < 0:
                raise StructureError("bad cell (%d,%d,%d)" % (k, l, g))
            if not isinstance(elem, Element):
                raise StructureError("entry output must be an Element")
            if len(w_in) != k:
                raise StructureError("input %r has length != k=%d" % (w_in, k))
            if not letters_in.issuperset(w_in.letters):
                raise StructureError("input %r outside the space" % (w_in,))
            if _normalize_indices(space, list(w_in.letters)) != (w_in, 1):
                raise StructureError("input %r is not normalized" % (w_in,))
            if not elem:
                continue
            sizes.add(k)
            in_par = space.word_parity(w_in.letters)
            terms, rebuild = [], False
            for w_out, c in elem.terms.items():
                if not isinstance(w_out, Word):
                    raise StructureError(
                        "entry (%d,%d) %r: output %r is not an inner word"
                        % (k, l, w_in, w_out))
                if len(w_out) != l:
                    raise StructureError(
                        "output %r not of declared length l=%d" % (w_out, l))
                if not letters_out.issuperset(w_out.letters):
                    raise StructureError(
                        "entry (%d,%d) %r: output %r outside the target"
                        % (k, l, w_in, w_out))
                if tgt.word_parity(w_out.letters) != (in_par + self.parity) % 2:
                    raise StructureError(
                        "entry (%d,%d) %r violates parity" % (k, l, w_in))
                if self.action_drop and tgt.word_action(w_out.letters) > \
                        space.word_action(w_in.letters):
                    raise StructureError(
                        "entry (%d,%d) %r raises action" % (k, l, w_in))
                word, sign = _normalize_indices(tgt, list(w_out.letters))
                rebuild = rebuild or sign != 1 or word != w_out
                terms.append((word, sign, c))
            if (w_in.letters, l, g) in listed:
                raise StructureError("duplicate entry (%d,%d,%d) %r"
                                     % (k, l, g, w_in))
            listed.add((w_in.letters, l, g))
            if rebuild:
                elem = Element((w, s * c) for w, s, c in terms)
                if not elem:
                    continue
            self._cells.setdefault(w_in, {})[l, g] = elem
            if g == 0:
                self.cells.setdefault((k, l), {})[w_in] = elem
            indexed = self._index.setdefault(w_in.letters, [])
            resort = indexed and g < indexed[-1][0]
            indexed += [(g, assembly._exact(c), w)
                        for w, c in elem.terms.items()]
            if resort:  # stable: entry order within a genus
                indexed.sort(key=lambda t: t[0])
        self._input_sizes = tuple(sorted(sizes))
        self.max_k = max([int(max_k or 0), *sizes])

    def input_sizes(self):
        return self._input_sizes

    def covers(self, k):
        return self.complete or k <= self.max_k

    def query_by_genus(self, k, word):
        """(genus, Element summed over l) pairs for the input word of
        length k, in the index's order: by genus, then entry order."""
        if not self.covers(k):
            raise IncompleteTableError(k, word)
        cells = self._cells.get(word, {})
        return [(g, sum((e for (_, h), e in cells.items() if h == g),
                        Element())) for g in sorted({g for _, g in cells})]

    def query(self, k, word):
        """The genus-0 output on the input word, summed over l."""
        pairs = self.query_by_genus(k, word)
        return pairs[0][1] if pairs and pairs[0][0] == 0 else Element()

    def sub_table(self, keep):
        """A new table of the genus-0 cells (k, l) that keep selects."""
        entries = [(k, l, w, e) for (k, l), cell in self.cells.items()
                   if keep(k, l) for w, e in cell.items()]
        return OperationTable(self.space, self.parity, entries,
                              complete=self.complete, max_k=self.max_k,
                              target=self.target, action_drop=self.action_drop)

    def sorted_entries(self):
        """Every entry as (k, l, genus, input Word, Element), sorted by
        (k, l, genus, input)."""
        return sorted(((len(w), l, g, w, e) for w, cells in self._cells.items()
                       for (l, g), e in cells.items()),
                      key=lambda entry: (entry[:3], entry[3].key()))

    def _coverage(self):
        """What the table says about arities it has no entry for: max_k
        bounds the zero cells of a partial table only."""
        return (self.complete, None if self.complete else self.max_k)

    def __eq__(self, other):
        return (isinstance(other, OperationTable) and self.parity == other.parity
                and self._coverage() == other._coverage()
                and self.action_drop == other.action_drop
                and self._cells == other._cells)


def identity_table(space):
    entries = [(1, 1, Word((i,)), Element.monomial(Word((i,))))
               for i in range(len(space))]
    return OperationTable(space, 0, entries, complete=True)


TRIVIAL_SPACE = GradedSpace(())


def zero_table(space, parity=1):
    return OperationTable(space, parity, (), complete=True)


class VerifyStatus:
    """The value a check returns: verified to its bounds, or failed with a
    witness.  Nothing records it on the checked object."""

    def __init__(self, ok, bounds=None, witness=None, images=None):
        self.ok = ok
        self.bounds = bounds
        self.witness = witness
        self.images = images  # the check's SplitImages, where it makes one

    def __bool__(self):
        return bool(self.ok)

    def __repr__(self):
        if self.ok:
            return "VerifyStatus(verified, %r)" % (self.bounds,)
        return "VerifyStatus(failed, witness=%r)" % (self.witness,)


class BLAlgebra:
    """A space with a parity-1 operation table assembling to a coderivation;
    an hbar-graded structure is one whose table carries genera (see ibl)."""

    def __init__(self, space, table):
        if table.parity != 1:
            raise StructureError("structure table must have parity 1")
        if table.space is not space:
            raise StructureError("structure table is over another space")
        self.space = space
        self.table = table

    def __repr__(self):
        return "BLAlgebra(%d generators, %d cells)" % (
            len(self.space), len(self.table.cells))


TRIVIAL_ALGEBRA = BLAlgebra(TRIVIAL_SPACE, zero_table(TRIVIAL_SPACE))


class BLMorphism:
    def __init__(self, source, target, table):
        if table.parity != 0:
            raise StructureError("morphism table must have parity 0")
        if table.space is not source.space:
            raise StructureError("morphism table is over another space")
        self.source = source
        self.target = target
        self.table = table


class Augmentation(BLMorphism):
    """A morphism to the trivial algebra, stored as (k,0) functionals."""

    def __init__(self, algebra, table):
        if any(l != 0 for _, l, *_ in table.sorted_entries()):
            raise StructureError("augmentation entries must have l = 0")
        super().__init__(algebra, TRIVIAL_ALGEBRA, table)


class PointedMap:
    def __init__(self, algebra, table):
        if table.space is not algebra.space:
            raise StructureError("pointed table is over another space")
        self.algebra = algebra
        self.table = table
        self.parity = table.parity


class UModule:
    """A parity-0 endomorphism of the generator space, nilpotent on the
    linearized homology; grade -2 when integer grades are present."""

    def __init__(self, space, table):
        if table.parity != 0:
            raise StructureError("U must have parity 0")
        if table.space is not space:
            raise StructureError("U table is over another space")
        if any(entry[:3] != (1, 1, 0) for entry in table.sorted_entries()):
            raise StructureError("U must be a linear endomorphism")
        if all(g.zgrade is not None for g in space.generators):
            for _, _, _, w_in, elem in table.sorted_entries():
                zin = space.generators[w_in.letters[0]].zgrade
                for w_out in elem.terms:
                    zout = space.generators[w_out.letters[0]].zgrade
                    if zout != zin - 2:
                        raise StructureError(
                            "U entry %r does not have degree -2" % (w_in,))
        self.space = space
        self.table = table


_NO_IMAGES = MappingProxyType({})


class SplitImages:
    """Assembled coderivations on split words, handed down one call chain.

    For one algebra: the images of p-hat (alg.table), and of the P-hat of
    any pointed map over it, on split words (one letter per cluster), keyed
    by their EWord.  Every check that runs through _check_split_words
    returns one in its VerifyStatus: the value it was given plus the images
    it evaluated.  The caller hands it to the next step on the same
    algebra, and no step changes it; nothing stores it on an algebra, a
    table or a module.  An image does not depend on bounds, so a step
    evaluates the words of its own window that the value lacks.  A value
    for another algebra raises ValueError.
    """

    def __init__(self, alg, held=()):
        self.algebra = alg
        self._held = tuple(held)  # (table, read-only {EWord: EElement})

    def held(self, table):
        """The images held for table, read only: {split EWord: image}."""
        for t, images in self._held:
            if t is table:
                return images
        return _NO_IMAGES

    def image(self, table, x, new=None):
        """table's assembled coderivation on the outer element x: the held
        image when x is one word with coefficient 1, else evaluated; such
        a word's evaluated image goes into new when it is given."""
        key = None
        if len(x.terms) == 1:
            (ew, c), = x.terms.items()
            if c == 1:
                key = ew
        out = self.held(table).get(key)
        if out is None:
            out = assembly.apply_coderivation(table, x)
            if new is not None and key is not None:
                new[key] = out
        return out

    def _with(self, table, new):
        """This value with new's images of table added."""
        if not new:
            return self
        held = [(t, m) for t, m in self._held if t is not table]
        held.append((table, MappingProxyType({**self.held(table), **new})))
        return SplitImages(self.algebra, held)


def _images_for(alg, images):
    """images, checked to be alg's; a new empty value for alg when None."""
    if images is None:
        return SplitImages(alg)
    if images.algebra is not alg:
        raise ValueError("split-word images of %r handed to %r"
                         % (images.algebra, alg))
    return images


def apply_hat_p(alg, x):
    """Evaluate the assembled coderivation on an outer element."""
    return assembly.apply_coderivation(alg.table, x)


def apply_hat_phi(mor, x):
    """Evaluate the assembled morphism on an outer element."""
    return assembly.apply_morphism(mor.table, x)


def pi_single_cluster(x):
    """All single-cluster parts, keyed by (inner length, hbar exponent)."""
    out = {}
    for ew, c in x.terms.items():
        if len(ew.clusters) == 1:
            out.setdefault((len(ew.clusters[0]), ew.hbar), {})[
                ew.clusters[0]] = c
    return {key: Element(terms) for key, terms in out.items()}


def two_level(alg, k, l, word):
    """Sum of all connected two-level gluings: pi_{1,l} of p-hat squared."""
    if len(word) != k:
        raise ValueError("input word has length %d, expected k=%d" % (len(word), k))
    return _connected_part(lambda x: _p_squared(alg, apply_hat_p(alg, x)),
                           word).get((l, 0), Element())


def _p_squared(alg, y):
    """The second p-hat of p-hat squared on y, the first p-hat's image,
    gluing only the arity that merges every cluster (single_cluster), so
    no term is made only to be projected away.  A partial table raises
    exactly where the full square does: the coderivation's coverage check
    looks at the clusters, not at the arities it enumerates."""
    return assembly.apply_coderivation(alg.table, y, single_cluster=True)


def _connected_part(image, word):
    """pi_1 of image on the word split one letter per cluster, keyed by
    (l, hbar exponent): the part of image that glues all of the word's
    letters into one connected graph."""
    x = EElement.monomial(word_to_singletons(word))
    return pi_single_cluster(image(x))


def _require(status, what):
    """Raise StructureError, naming what failed and its witness, when the
    status of a check that must pass is a failure."""
    if not status.ok:
        raise StructureError("%s fails: witness %r" % (what, status.witness))


def _split_words(space, bounds, max_letters=None):
    """The nonempty basis words within bounds, in word order, with at most
    max_letters letters when it is given: the basis less its first word,
    the empty one."""
    top = bounds.max_letters
    if max_letters is not None:
        top = min(top, max_letters)
    return enumerate_basis(space, top, bounds.max_action)[1:]


def _check_split_words(alg, bounds, images, defect, max_letters=None,
                       witness=lambda word, bad: word):
    """The one check loop: an identity on alg checked by its connected
    part, failed at the first split word where the connected part of the
    defect, defect(image, x), is nonzero, with witness(word, part), else
    verified.  A first stage image(table, x), table's coderivation on x, is
    read from images (alg's, see SplitImages) where held; the status's
    images add those evaluated.

    The defect of each identity checked here is built from its connected
    part (see the module docstring): on an outer word it is a sum of
    products of connected parts on split words, each taking at most one
    letter of every cluster.  So it vanishes on the outer words of at most
    c clusters exactly when its connected part vanishes on the split words
    of at most c letters.  The max_letters argument is that c."""
    images = _images_for(alg, images)
    new = {}  # id(table) -> (table, {split EWord: image evaluated here})

    def image(table, x):
        entry = new.get(id(table))
        if entry is None:
            entry = new[id(table)] = (table, {})
        return images.image(table, x, entry[1])

    for word in _split_words(alg.space, bounds, max_letters):
        bad = _connected_part(lambda x: defect(image, x), word)
        if bad:
            status = VerifyStatus(False, bounds, witness(word, bad))
            break
    else:
        status = VerifyStatus(True, bounds)
    for table, evaluated in new.values():
        images = images._with(table, evaluated)
    status.images = images
    return status


def check_structure(alg, bounds, images=None):
    """Verify every two-level cell within bounds vanishes.

    On failure returns the first witness cell (k, l, word) in word order.
    The status's images hold p-hat on every split word it reached (see
    SplitImages); images, if given, are used as held.
    """
    return _check_split_words(
        alg, bounds, images,
        lambda image, x: _p_squared(alg, image(alg.table, x)),
        witness=lambda word, bad: (len(word), min(bad)[0], word))


def check_morphism(mor, bounds):
    """Verify phi-hat o p-hat = p'-hat o phi-hat by its connected part on
    the split words of at most bounds.outer() letters; on failure the
    witness is the first failing split Word.

    Source and target must be structures within the same bounds; a failing
    one raises StructureError.  The status's images are the source's (see
    SplitImages).
    """
    src, tgt = mor.source, mor.target
    status = check_structure(src, bounds)  # empty for the trivial algebra
    _require(status, "source structure")
    if tgt is not src and tgt is not TRIVIAL_ALGEBRA:
        _require(check_structure(tgt, bounds), "target structure")

    def defect(image, x):
        return (assembly.apply_morphism(
                    mor.table, image(src.table, x), single_cluster=True)
                - assembly.apply_coderivation(
                    tgt.table, apply_hat_phi(mor, x), single_cluster=True))
    return _check_split_words(src, bounds, status.images, defect,
                              bounds.outer())


def _split_word_table(space, image, parity, bounds, target=None,
                      constants=True):
    """The table of pi_{1,l} o image on split words: for each basis word,
    the single-cluster parts of image on its letters taken one per
    cluster, at their genus (hbar exponent).  With constants=False a
    nonzero l = 0 part raises InternalInconsistencyError.

    Every caller's image ends in apply_morphism(..., single_cluster=True),
    which makes only the connected block lists of its last stage.  That is
    a subset of the full block lists, so a partial table raises
    IncompleteTableError on at most the inputs where the full image
    raises; with no bullet table, as here, on exactly those (see
    assembly).  The image is still projected here, since a term with a
    unit cluster beside the others passes through where a table does not
    cover its letters."""
    entries = []
    for word in _split_words(space, bounds):
        for (l, g), elem in sorted(_connected_part(image, word).items()):
            if l == 0 and not constants:
                raise InternalInconsistencyError(
                    "nonzero constant term at input %r: %r" % (word, elem))
            entries.append((len(word), l, g, word, elem))
    return OperationTable(space, parity, entries, complete=False,
                          max_k=bounds.max_letters, target=target)


def compose(psi, phi, bounds):
    """The composed morphism table: pi_{1,l} of psi-hat o phi-hat on split
    words, constant parts (l = 0) included.

    phi-hat sums over unordered partitions of the letters, which realizes
    the 1/a! factor without denominators.
    """
    if phi.target is not psi.source:
        raise StructureError("composition type mismatch")
    table = _split_word_table(
        phi.source.space, lambda x: assembly.apply_morphism(
            psi.table, apply_hat_phi(phi, x), single_cluster=True),
        0, bounds, target=psi.target.space)
    return BLMorphism(phi.source, psi.target, table)


def is_augmentation(eps, bounds, images=None):
    """Check the morphism condition into the trivial algebra, eps-hat o
    p-hat = 0 on eps's source, by its connected part on the split words of
    at most bounds.outer() letters; on failure the witness is the first
    failing split Word.  p-hat is read from images, and the status's images
    add what was evaluated (see SplitImages).

    Parity shortcut: over an all-even space any parity-1 table vanishes,
    so every functional family verifies.
    """
    alg = eps.source
    if alg.space.all_even():
        return VerifyStatus(True, bounds, images=_images_for(alg, images))
    return _check_split_words(
        alg, bounds, images, lambda image, x: assembly.apply_morphism(
            eps.table, image(alg.table, x), single_cluster=True),
        bounds.outer())


def f_eps(eps, sign=+1):
    """The linearizing change of coordinates: identity plus +-eps constants,
    eps's genus-0 cells (the flat operators glue genus-0 forests only)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    space = eps.source.space
    entries = [(1, 1, Word((i,)), Element.monomial(Word((i,))))
               for i in range(len(space))]
    entries += [(k, 0, w, sign * e) for (k, _), cell in eps.table.cells.items()
                for w, e in cell.items()]
    table = OperationTable(space, 0, entries, complete=eps.table.complete,
                           max_k=max(eps.table.max_k, 1))
    return BLMorphism(eps.source, eps.source, table)


def _linearize_table(images, optable, eps, bounds, parity, constants):
    """pi_{1,l} o F_eps-hat o (the coderivation of optable) on split words,
    the coderivation read from images."""
    f_mor = f_eps(eps, +1)
    return _split_word_table(
        images.algebra.space, lambda x: assembly.apply_morphism(
            f_mor.table, images.image(optable, x), single_cluster=True),
        parity, bounds, constants=constants)


def linearize(eps, bounds, images=None):
    """The conjugated table of eps's source with all constant terms killed.

    Computes pi_{1,l} o F_eps-hat o p-hat on split words, p-hat read from
    images (see SplitImages), and asserts that the l=0 components vanish;
    a nonzero constant term signals a bad augmentation or a bounds leak.
    """
    return _linearize_table(_images_for(eps.source, images), eps.source.table,
                            eps, bounds, parity=1, constants=False)


def linearize_pointed(pmap, eps, bounds, images=None):
    """Linearize a pointed family at an augmentation of its algebra (else
    StructureError); constant terms survive by design.  P-hat is read from
    images (see SplitImages)."""
    if pmap.algebra is not eps.source:
        raise StructureError("pointed map over another algebra than eps's")
    return _linearize_table(_images_for(eps.source, images), pmap.table, eps,
                            bounds, parity=pmap.parity, constants=True)


def ell_table(lin_table):
    """The l=1 part of a linearized table: the induced L-infinity structure."""
    return lin_table.sub_table(lambda k, l: l == 1)


def apply_hat_pointed(pmap, x):
    return assembly.apply_coderivation(pmap.table, x)


def check_pointed(pmap, bounds, images=None):
    """Verify the graded commutation of the pointed map with its structure,
    P-hat o p-hat = +-p-hat o P-hat, by its connected part on the split
    words of at most bounds.outer() letters; on failure the witness is the
    first failing split Word.  p-hat and P-hat are read from images, and
    the status's images add the ones evaluated (see SplitImages)."""
    alg = pmap.algebra
    sgn = -1 if pmap.parity % 2 else 1

    def defect(image, x):
        return (assembly.apply_coderivation(
                    pmap.table, image(alg.table, x), single_cluster=True)
                - sgn * assembly.apply_coderivation(
                    alg.table, image(pmap.table, x), single_cluster=True))
    return _check_split_words(alg, bounds, images, defect, bounds.outer())


def apply_hat_phi_bullet(mor, phi_bullet_table, x, bullet_parity):
    """The pointed-morphism assembly: exactly one marked component."""
    return assembly.apply_morphism(mor.table, x, bullet_table=phi_bullet_table,
                                   bullet_parity=bullet_parity)


def check_compatibility(phi, p_bullet, q_bullet, phi_bullet_table, bounds):
    """Verify q-hat o phi-hat - s phi-hat o p-hat = p'-hat o phi-bullet-hat
    - s' phi-bullet-hat o p-hat by its connected part on the split words of
    at most bounds.outer() letters; on failure the witness is the first
    failing split Word.

    phi: morphism between the two algebras; p_bullet / q_bullet pointed
    maps on source / target of equal parity d, s = (-1)^d; phi_bullet has
    parity d+1, s' = -s; one over another algebra raises StructureError.
    The defect is made of connected parts only when phi-hat o p-hat =
    p'-hat o phi-hat, so phi must pass check_morphism within the same
    bounds; otherwise StructureError.
    """
    d = p_bullet.parity
    if p_bullet.algebra is not phi.source or \
            q_bullet.algebra is not phi.target:
        raise StructureError("pointed map over another algebra than phi's")
    if q_bullet.parity != d:
        raise StructureError("pointed maps must share parity")
    status = check_morphism(phi, bounds)
    _require(status, "morphism")
    bp, sq = 1 - d, (-1) ** d
    src, tgt = phi.source, phi.target

    def defect(image, x):
        return (assembly.apply_coderivation(
                    q_bullet.table, apply_hat_phi(phi, x), single_cluster=True)
                - sq * assembly.apply_morphism(
                    phi.table, apply_hat_pointed(p_bullet, x),
                    single_cluster=True)
                - assembly.apply_coderivation(tgt.table, apply_hat_phi_bullet(
                    phi, phi_bullet_table, x, bp), single_cluster=True)
                - sq * assembly.apply_morphism(
                    phi.table, image(src.table, x),
                    bullet_table=phi_bullet_table, bullet_parity=bp,
                    single_cluster=True))
    return _check_split_words(src, bounds, status.images, defect,
                              bounds.outer())
