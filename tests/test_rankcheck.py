from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_layer_matrix
from rankcheck import _rational_reconstruct, fraction_rank, is_singular, kernel_vector


def test_fraction_rank_small():
    assert fraction_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert fraction_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert fraction_rank([[Fraction(0)]]) == 0
    # rationals with mixed denominators
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert fraction_rank(m) == 2
    m_sing = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert fraction_rank(m_sing) == 1


def test_is_singular_matches_fraction_rank_randomly():
    rng = np.random.default_rng(10)
    for trial in range(40):
        size = int(rng.integers(1, 7))
        mat = rng.integers(-4, 5, size=(size, size))
        if trial % 3 == 0 and size > 1:
            mat[-1] = mat[0] + mat[1 % size]  # force a dependency
        # the modular certificates against plain elimination
        assert is_singular(mat) == (fraction_rank(mat.tolist()) < size)


def test_is_singular_large_nonsingular():
    rng = np.random.default_rng(11)
    size = 90
    mat = rng.integers(-3, 4, size=(size, size)) + size * 10 * np.eye(size, dtype=np.int64)
    assert not is_singular(mat)
    assert kernel_vector(mat) is None


def test_is_singular_large_singular_with_certificate():
    rng = np.random.default_rng(12)
    size = 90
    mat = rng.integers(-3, 4, size=(size, size)) + size * 10 * np.eye(size, dtype=np.int64)
    # a column dependency keeps the kernel vector small enough to reconstruct
    mat[:, -1] = 2 * mat[:, 3] - 5 * mat[:, 7]
    assert is_singular(mat)
    vec = kernel_vector(mat)
    assert vec is not None and all(type(x) is int for x in vec)
    assert any(x != 0 for x in vec)
    for row in mat.tolist():
        assert sum(a * b for a, b in zip(row, vec)) == 0


def test_is_singular_large_with_huge_kernel_entries():
    # a row dependency makes the kernel numerically nasty; the certificate
    # search may fail, but the exact fallback must still answer correctly
    rng = np.random.default_rng(13)
    size = 70
    mat = rng.integers(-2, 3, size=(size, size)) + size * 10 * np.eye(size, dtype=np.int64)
    mat[-1] = mat[0] + mat[1]
    assert is_singular(mat)


def test_kernel_vector_on_layer_operator():
    # the known singular layer: q=3, n=4, h=3, d=2, k=1
    rows = dense_layer_matrix(3, 4, 3, 2, 1)
    assert is_singular(rows)
    vec = kernel_vector(rows)
    assert vec is not None and all(type(x) is int for x in vec)
    for row in rows.tolist():
        assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rational_reconstruction():
    m = 10007 * 10009
    for frac in (Fraction(3, 7), Fraction(-22, 5), Fraction(1), Fraction(0), Fraction(617, 1000)):
        residue = (frac.numerator * pow(frac.denominator, -1, m)) % m
        assert _rational_reconstruct(residue, m) == frac


def test_non_square_rejected():
    with pytest.raises(ValueError):
        is_singular([[1, 2]])


@pytest.mark.parametrize("check", [is_singular, kernel_vector])
def test_non_integer_and_non_square_matrices_rejected(check):
    # an int64 cast would silently turn Fraction(1, 2) into 0
    with pytest.raises(TypeError):
        check([[Fraction(1, 2), 1], [1, 1]])
    with pytest.raises(TypeError):
        check(np.array([[0.5, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        check(np.ones((2, 3), dtype=np.int64))
