import random
from fractions import Fraction

import pytest

from blinfty.linalg import kernel_basis, rank, solve_linear
from blinfty.words import Element, Word

from util import (closed_complex, dense_kernel_basis, dense_rank,
                  dense_solve_linear, space)


def frac_matrix(rows):
    return [[Fraction(x) for x in r] for r in rows]


def rand_frac(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def test_solve_identity():
    A = frac_matrix([[1, 0], [0, 1]])
    b = [Fraction(3), Fraction(-7, 2)]
    sol, kern = solve_linear(A, b)
    assert sol == b and kern == []


def test_solve_zero_matrix_inconsistent():
    A = frac_matrix([[0, 0], [0, 0]])
    sol, kern = solve_linear(A, [Fraction(1), Fraction(0)])
    assert sol is None
    assert len(kern) == 2


def test_solve_random_systems_residual_zero():
    rng = random.Random(23)
    for _ in range(20):
        A = [[rand_frac(rng) for _ in range(10)] for _ in range(8)]
        x_true = [rand_frac(rng) for _ in range(10)]
        b = [sum(A[i][j] * x_true[j] for j in range(10)) for i in range(8)]
        sol, kern = solve_linear(A, b)
        assert sol is not None
        for i in range(8):
            assert sum(A[i][j] * sol[j] for j in range(10)) == b[i]
        for v in kern:
            for i in range(8):
                assert sum(A[i][j] * v[j] for j in range(10)) == 0
        assert len(kern) == 10 - rank(A)


def test_solve_pivots_lexicographically_earliest():
    A = frac_matrix([[0, 1, 2], [0, 2, 4]])
    sol, _ = solve_linear(A, [Fraction(1), Fraction(2)])
    assert sol == [Fraction(0), Fraction(1), Fraction(0)]


def test_kernel_basis_annihilated():
    A = frac_matrix([[1, 2, 3], [2, 4, 6]])
    for v in kernel_basis(A, 3):
        assert all(sum(A[i][j] * v[j] for j in range(3)) == 0 for i in range(2))


def _random_system(rng):
    """A small system with zero rows, rows dependent on earlier ones and a
    right-hand side that is consistent, zero or random."""
    nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
    density = rng.random()
    A = []
    for _ in range(nrows):
        shape = rng.random()
        if shape < 0.15:
            A.append([Fraction(0)] * ncols)
        elif shape < 0.4 and A:
            picks = rng.sample(A, rng.randint(1, len(A)))
            coeffs = [rand_frac(rng, 3) for _ in picks]
            A.append([sum((c * row[j] for c, row in zip(coeffs, picks)),
                          Fraction(0)) for j in range(ncols)])
        else:
            A.append([rand_frac(rng) if rng.random() < density
                      else Fraction(0) for _ in range(ncols)])
    rhs = rng.random()
    if rhs < 0.4:
        x = [rand_frac(rng) for _ in range(ncols)]
        b = [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in A]
    elif rhs < 0.55:
        b = [Fraction(0)] * nrows
    else:
        b = [rand_frac(rng) for _ in range(nrows)]
    return A, b, ncols


def test_sparse_elimination_matches_dense_oracle():
    rng = random.Random(2024)
    inconsistent = 0
    for _ in range(2400):
        A, b, ncols = _random_system(rng)
        got = solve_linear(A, b)
        assert got == dense_solve_linear(A, b), (A, b)
        assert kernel_basis(A, ncols) == dense_kernel_basis(A, ncols), A
        assert rank(A) == dense_rank(A), A
        inconsistent += got[0] is None
    assert 300 < inconsistent < 2100


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(frac_matrix([[1, 0]]), [])


def simple_complex(d_cols, parities):
    """The closed_complex of one letter per parity, d given by its columns
    {row letter: coeff}."""
    sp = space(*[("g%d" % i, p) for i, p in enumerate(parities)])
    basis = [Word((i,)) for i in range(len(parities))]
    return closed_complex(
        basis, lambda w: Element({basis[i]: Fraction(c) for i, c in
                                  d_cols.get(w.letters[0], {}).items()}),
        lambda w: sp.word_parity(w.letters))


def test_dd_nonzero_rejected():
    with pytest.raises(AssertionError, match="d\\*d != 0"):
        simple_complex({0: {1: 1}, 1: {2: 1}}, [0, 1, 0])


def test_parity_violation_rejected():
    with pytest.raises(AssertionError, match="not parity-odd"):
        simple_complex({0: {1: 1}}, [0, 0])
