"""Curved hbar-graded structures: cycle-permitting gluing, relation checks,
the genus-zero truncation, the torsion grid, and the cluster-connecting
chain map."""

from __future__ import annotations

from . import assembly
from .errors import IncompleteTableError, StructureError
from .invariants import _columns, _solve
from .structures import (BLAlgebra, OperationTable, VerifyStatus,
                         word_to_singletons)
from .words import (EElement, EWord, Element, UNIT_WORD,
                    enumerate_basis, normalize_word)


class IBLTable:
    """Sparse maps indexed by (k >= 1, l >= 0, genus g >= 0), parity 1."""

    def __init__(self, space, entries=(), complete=True, max_k=None):
        self.space = space
        self.parity = 1
        self.complete = bool(complete)
        self.cells = {}
        by_kg = {}
        top_k = 0
        for (k, l, g, w_in, elem) in entries:
            if k < 1 or l < 0 or g < 0:
                raise StructureError("bad cell (%d,%d,%d)" % (k, l, g))
            chk, sgn = normalize_word(space, w_in.letters)
            if sgn != 1 or chk != w_in:
                raise StructureError("input %r is not normalized" % (w_in,))
            if not elem:
                continue
            in_par = space.word_parity(w_in.letters)
            for w_out, c in elem.terms.items():
                if len(w_out) != l:
                    raise StructureError("output length != l in %r" % (w_in,))
                if space.word_parity(w_out.letters) != (in_par + 1) % 2:
                    raise StructureError(
                        "cell (%d,%d,%d) %r violates parity" % (k, l, g, w_in))
            if (k, l, g) in self.cells and w_in in self.cells[(k, l, g)]:
                raise StructureError("duplicate cell (%d,%d,%d) %r"
                                     % (k, l, g, w_in))
            self.cells.setdefault((k, l, g), {})[w_in] = elem
            cur = by_kg.setdefault(k, {}).setdefault(g, {}).get(w_in, Element())
            by_kg[k][g][w_in] = cur + elem
            top_k = max(top_k, k)
        self._by_kg = by_kg
        self.max_k = top_k if max_k is None else max(int(max_k), top_k)
        self.max_genus = max((g for (_, _, g) in self.cells), default=0)

    def input_sizes(self):
        return sorted(self._by_kg)

    def covers(self, k):
        return self.complete or k <= self.max_k

    def query_by_genus(self, k, word):
        """Yield (g, Element) pairs for the input word."""
        if not self.covers(k):
            raise IncompleteTableError(k, word)
        for g, cell in sorted(self._by_kg.get(k, {}).items()):
            elem = cell.get(word)
            if elem:
                yield g, elem

    def genus_slice(self, genus):
        entries = []
        for (k, l, g), cell in self.cells.items():
            if g == genus:
                for w, e in cell.items():
                    entries.append((k, l, w, e))
        return OperationTable(self.space, 1, entries, complete=self.complete,
                              max_k=self.max_k)

    def sorted_entries(self):
        out = []
        for (k, l, g) in sorted(self.cells):
            for w in sorted(self.cells[(k, l, g)], key=lambda w: w.key()):
                out.append((k, l, g, w, self.cells[(k, l, g)][w]))
        return out


class IBLAlgebra:
    def __init__(self, space, table):
        self.space = space
        self.table = table

    def __repr__(self):
        return "IBLAlgebra(%d generators, %d cells)" % (
            len(self.space), len(self.table.cells))


def from_bl(alg, extra_entries=()):
    """Lift a genus-zero structure, optionally adding higher-genus cells."""
    entries = [(k, l, 0, w, e) for (k, l, w, e) in alg.table.sorted_entries()]
    entries += list(extra_entries)
    return IBLAlgebra(alg.space, IBLTable(alg.space, entries,
                                          complete=alg.table.complete,
                                          max_k=alg.table.max_k))


def apply_hat_p_ibl(ialg, x, hbar_cap):
    """The cycle-permitting coderivation, truncated above hbar_cap."""
    for ew in x.terms:
        if not ialg.table.complete and ew.letter_count() > ialg.table.max_k:
            raise IncompleteTableError(ew.letter_count())
    return assembly.apply_ibl(ialg.space, ialg.table, x, hbar_cap)


def two_level_ibl(ialg, word, hbar_cap):
    """Single-cluster components of p-hat squared on split words, keyed by
    (output length, hbar exponent)."""
    x = EElement.monomial(word_to_singletons(word))
    z = apply_hat_p_ibl(ialg, apply_hat_p_ibl(ialg, x, hbar_cap), hbar_cap)
    out = {}
    for ew, c in z.terms.items():
        if len(ew.clusters) == 1:
            out.setdefault((len(ew.clusters[0]), ew.hbar), {})[
                ew.clusters[0]] = c
    return {key: Element(terms) for key, terms in out.items()}


def check_ibl(ialg, hbar_cap, bounds):
    """All two-level sums vanish up to the truncation; cross-checked by the
    caller against p-hat squared on outer words."""
    for w in enumerate_basis(ialg.space, bounds.max_letters, bounds.max_action):
        if len(w) < 1:
            continue
        bad = two_level_ibl(ialg, w, hbar_cap)
        if bad:
            (l, g) = min(bad)
            return VerifyStatus(False, bounds, witness=(len(w), l, g, w))
    return VerifyStatus(True, bounds)


def genus0(ialg):
    """The genus-zero sub-table as a plain structure."""
    return BLAlgebra(ialg.space, ialg.table.genus_slice(0))


def hbar_width(eword):
    return eword.hbar


def torsion_grid(ialg, n, m, trunc, bounds):
    """Solve p-hat(x) = hbar^n with at most m+1 clusters, exponents <=
    trunc.  For n > trunc the class is already zero in the quotient.

    The structure is checked first; a failing one raises StructureError.
    """
    status = check_ibl(ialg, trunc, bounds)
    if not status.ok:
        raise StructureError("structure fails: witness %r" % (status.witness,))
    if n > trunc:
        return True, None
    ewords = enumerate_basis(ialg.space, bounds.max_letters, bounds.max_action,
                             outer_components=m + 1, allow_units=True)
    basis = [EWord(ew.clusters, hbar=h)
             for h in range(trunc + 1) for ew in ewords]
    columns = _columns(basis, lambda ew: apply_hat_p_ibl(
        ialg, EElement.monomial(ew), trunc))
    sol = _solve(basis, columns, EWord((UNIT_WORD,), hbar=n))
    if sol is None:
        return False, None
    return True, EElement(sol)


def verify_grid_certificate(ialg, cert, n, m, trunc):
    if cert is None:
        return n > trunc
    if any(len(ew.clusters) > m + 1 or ew.hbar > trunc for ew in cert.terms):
        return False
    out = apply_hat_p_ibl(ialg, cert, trunc)
    return out == EElement.monomial(EWord((UNIT_WORD,), hbar=n))


def c_map(space, x, m):
    """hbar^m times the cluster-connecting chain map on <= m+1 clusters.

    A term with i clusters merges into one word, and the compensating
    exponent shift m + 1 - i is applied up front so no negative exponent is
    ever stored.  Clusters concatenate in canonical order; normalization
    picks up the Koszul signs.
    """
    acc = {}
    for ew, c in x.terms.items():
        i = len(ew.clusters)
        if i > m + 1:
            raise ValueError("term %r has more than m+1 clusters" % (ew,))
        letters = [l for cl in ew.clusters for l in cl.letters]
        w, sgn = normalize_word(space, letters)
        if sgn == 0:
            continue
        key = EWord((w,), hbar=ew.hbar + m + 1 - i)
        acc[key] = acc.get(key, 0) + c * sgn
    return EElement(acc)


def derive_flat_torsion(ialg, cert, n, m, trunc):
    """Transport an (n, m) certificate at truncation trunc to (n+m, 0):
    the compensated connecting map of the certificate is applied and the
    result re-verified by evaluation in the same quotient."""
    if n + m > trunc:
        return None, True
    moved = EElement({ew: c for ew, c in c_map(ialg.space, cert, m)
                      .terms.items() if ew.hbar <= trunc})
    target = EElement.monomial(EWord((UNIT_WORD,), hbar=n + m))
    out = apply_hat_p_ibl(ialg, moved, trunc)
    return moved, out == target
