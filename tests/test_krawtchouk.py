import math

import pytest

import hamrecon as hr


def test_fixed_values():
    # P_0 is identically 1
    for q in (2, 3, 4, 5):
        for t in range(6):
            assert hr.krawtchouk_value(q, 0, t, 5) == 1
    # direct evaluation: j=0 gives 2*3, j=1 gives -1
    assert hr.krawtchouk_value(3, 1, 1, 4) == 5
    # only j=0 survives at t=0
    for q in (2, 3, 5):
        for i in range(7):
            assert hr.krawtchouk_value(q, i, 0, 6) == (q - 1) ** i * math.comb(6, i)


def test_generating_coefficients_examples():
    assert hr.generating_coefficients(3, 0, 2) == [1, 4, 4]  # (x + 2y)^2
    assert hr.generating_coefficients(3, 1, 4)[1] == 5


def test_generating_agrees_with_defining_sum():
    for q in (2, 3, 4, 5):
        for N in range(9):
            for t in range(N + 1):
                row = [hr.krawtchouk_value(q, i, t, N) for i in range(N + 1)]
                assert hr.generating_coefficients(q, t, N) == row


def test_argument_validation():
    with pytest.raises(ValueError):
        hr.krawtchouk_value(1, 0, 0, 2)
    with pytest.raises(ValueError):
        hr.krawtchouk_value(3, 3, 0, 2)
    with pytest.raises(ValueError):
        hr.krawtchouk_value(3, 0, 3, 2)
    with pytest.raises(ValueError):
        hr.krawtchouk_value(3, 0, 0, -1)


def test_eigenvalue_index_maps():
    # the adjacency matrix is the first distance matrix: its eigenvalue on
    # V_h is P_1(h; n) = (q-1)n - qh
    assert hr.krawtchouk_value(3, 1, 0, 4) == 8
    assert hr.krawtchouk_value(3, 1, 1, 4) == 5
    with pytest.raises(ValueError):
        hr.krawtchouk_value(3, 1, 5, 4)
    for q, n in ((3, 4), (4, 6), (5, 3)):
        for h in range(n + 1):
            assert hr.krawtchouk_value(q, 1, h, n) == (q - 1) * n - q * h


def test_table_invariants():
    table = hr.krawtchouk_table(3, 6)
    for t in range(7):
        assert table[0][t] == 1
    for i in range(7):
        assert table[i][0] == 2**i * math.comb(6, i)
    # the table expands generating polynomials; check it against the defining sum
    for q, N in ((3, 6), (3, 40), (5, 9)):
        table = hr.krawtchouk_table(q, N)
        for i in range(N + 1):
            for t in range(N + 1):
                assert table[i][t] == hr.krawtchouk_value(q, i, t, N), (q, N, i, t)
    with pytest.raises(ValueError):
        hr.krawtchouk_table(3, -1)


def test_everything_is_int():
    for q in (2, 5):
        for i in range(5):
            for t in range(5):
                assert type(hr.krawtchouk_value(q, i, t, 4)) is int
    assert all(type(c) is int for c in hr.generating_coefficients(5, 2, 7))
