"""Curved hbar-graded structures: cycle-permitting gluing, relation checks,
the genus-zero truncation, the torsion grid, and the cluster-connecting
chain map.

An hbar-graded structure is a BLAlgebra whose table carries genera.  The
flat operators (structures, invariants) glue only genus-zero forests, so on
such an algebra they equal those on its genus0 truncation, and a flat
algebra is its own hbar-graded lift."""

from __future__ import annotations

from . import assembly
from .invariants import TorsionAnswer, _level, _outer_window, _search
from .structures import BLAlgebra, _check_split_words, _require
from .words import EElement, EWord, UNIT_WORD, _normalize_indices


def apply_hat_p_ibl(ialg, x, hbar_cap):
    """The cycle-permitting coderivation, truncated above hbar_cap."""
    return assembly.apply_ibl(ialg.table, x, hbar_cap)


def check_ibl(ialg, hbar_cap, bounds):
    """p-hat squared, truncated above hbar_cap, vanishes by its connected
    part on every split word within bounds where p-hat does not vanish
    (assembly.vanishes); on failure the witness is the first failing cell
    (k, l, g, word) in word order."""
    return _check_split_words(
        ialg, bounds, None, lambda image, x: assembly.apply_ibl(
            ialg.table, apply_hat_p_ibl(ialg, x, hbar_cap), hbar_cap,
            single_cluster=True),
        witness=lambda word, bad: (len(word), *min(bad), word),
        support=(ialg.table,))


def genus0(ialg):
    """The genus-zero sub-table as a plain structure."""
    return BLAlgebra(ialg.space, ialg.table.sub_table(lambda k, l: True))


def torsion_grid(ialg, n, m, trunc, bounds):
    """Solve p-hat(x) = hbar^n with at most m+1 clusters, exponents <=
    trunc: level m.  For n > trunc the class is zero already: exact 0.

    The structure is checked first; a failing one raises StructureError.
    A negative n or m raises ValueError.  The window holds the outer words
    where p-hat does not vanish (assembly.vanishes), each at every
    exponent up to trunc.
    """
    if n < 0 or m < 0:
        raise ValueError("torsion grid needs n, m >= 0, got (%d, %d)"
                         % (n, m))
    _require(check_ibl(ialg, trunc, bounds), "structure")
    problem = (_verify_grid, ialg, n, m, trunc)
    if n > trunc:
        return TorsionAnswer("exact", 0, None, bounds, problem)

    def window(k, bounds):
        ewords = _outer_window(ialg.space, True, support=(ialg.table,))(
            k, bounds)
        return [EWord(ew.clusters, hbar=h)
                for h in range(trunc + 1) for ew in ewords]
    return _search([(m + 1, bounds)], _level(window, lambda ew: (
        apply_hat_p_ibl(ialg, EElement.monomial(ew), trunc))),
        lambda j, b: False, EWord((UNIT_WORD,), hbar=n), problem=problem,
        shift=1)


def verify_grid_certificate(ialg, cert, n, m, trunc):
    if cert is None:
        return n > trunc
    if any(len(ew.clusters) > m + 1 or ew.hbar > trunc for ew in cert.terms):
        return False
    out = apply_hat_p_ibl(ialg, cert, trunc)
    return out == EElement.monomial(EWord((UNIT_WORD,), hbar=n))


def _verify_grid(ialg, n, m, trunc, answer, images):
    """verify's torsion grid case; no images are read."""
    return verify_grid_certificate(ialg, answer.certificate, n, m, trunc)


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
        w, sgn = _normalize_indices(space, letters)
        if sgn == 0:
            continue
        key = EWord((w,), hbar=ew.hbar + m + 1 - i)
        acc[key] = acc.get(key, 0) + c * sgn
    return EElement(acc)


def derive_flat_torsion(answer):
    """A found (n, m) grid answer at truncation trunc transported to (n+m,
    0) by the compensated connecting map: exact 0 in the same quotient, no
    certificate when n + m > trunc."""
    _, ialg, n, m, trunc = answer.problem
    moved = None if n + m > trunc else EElement({
        ew: c for ew, c in c_map(ialg.space, answer.certificate, m)
        .terms.items() if ew.hbar <= trunc})
    return TorsionAnswer("exact", 0, moved, answer.bounds,
                         (_verify_grid, ialg, n + m, 0, trunc))
