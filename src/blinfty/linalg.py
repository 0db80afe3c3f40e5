"""Exact rational linear algebra: one sparse elimination behind rank,
kernels and solving."""

from __future__ import annotations

from fractions import Fraction


def _eliminate(rows):
    """The reduced row echelon form of sparse rows {column: coeff}.

    Each row is reduced against the pivot rows found so far, leading column
    first; a nonzero remainder, scaled to lead with 1, becomes the pivot row
    of its leading column.  Back-substitution, last pivot first, then clears
    every pivot column from the other pivot rows.  Returns {pivot column:
    reduced row}.  The pivot columns are the leftmost independent columns
    and the reduced rows do not depend on the row order.  The input rows
    are used up as scratch space.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = 1 / Fraction(row[lead])
                pivots[lead] = {c: x * inv for c, x in row.items()}
                break
            _subtract(row, row[lead], pivots[lead])
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _subtract(row, row[c], pivots[c])
    return pivots


def _subtract(row, f, other):
    """row -= f * other, dropping the entries that cancel."""
    for c, x in other.items():
        v = row.get(c, 0) - f * x
        if v:
            row[c] = v
        else:
            row.pop(c, None)


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _kernel(reduced, ncols):
    """One null-space vector per free column: 1 there, minus the free
    column's entries of the reduced rows at their pivots, 0 elsewhere."""
    basis = {}
    for fc in range(ncols):
        if fc not in reduced:
            basis[fc] = [Fraction(0)] * ncols
            basis[fc][fc] = Fraction(1)
    for pc, row in reduced.items():
        for c, x in row.items():
            if c in basis:
                basis[c][pc] = -x
    return list(basis.values())


def rank(rows):
    return len(_eliminate(_sparse(rows)))


def kernel_basis(rows, ncols):
    """A basis of {x : A x = 0}, one vector per free column."""
    return _kernel(_eliminate(_sparse(rows)), ncols)


def solve_linear(A, b):
    """Solve A x = b exactly.

    Returns (solution, kernel) where solution sets all free variables to
    zero (the lexicographically minimal pivot choice) or None when the
    system is inconsistent; kernel is a basis of the null space either way.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if nrows != len(b):
        raise ValueError("dimension mismatch")
    rows = _sparse(A)
    for row, rhs in zip(rows, b):
        if rhs:
            row[ncols] = rhs
    reduced = _eliminate(rows)
    solution = None
    if ncols not in reduced:
        solution = [Fraction(0)] * ncols
        for pc, row in reduced.items():
            solution[pc] = row.get(ncols, Fraction(0))
    return solution, _kernel(reduced, ncols)
