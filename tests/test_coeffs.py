import math
from fractions import Fraction

import numpy as np
import pytest

import hamrecon as hr
from hamrecon.coeffs import (
    _restriction_eigenvalue,
    layer_column,
    lift_multipliers,
    restriction_inverse_coefficients,
)
from hamrecon.krawtchouk import polymul
from hamrecon.scheme import digits_table, weight_table

from helpers import DESK_QN, desk_cells, eigfn
from oracles import dense_gram, dense_gram_full, dense_restriction_full

# the cap-scale cells (q, n, h) of the full-recovery benchmark
CAP_CELLS = ((4, 8, 6), (3, 10, 8), (3, 10, 10), (4, 8, 8))


def _binpow(a, e):
    return [math.comb(e, m) * a**m for m in range(e + 1)]


def _oracle_r_case_I(q, n, h, k, i, j):
    """Coefficient of y^j in (x-y)^(h-k) (x+(q-1)y)^(n-k-h) (-y)^i (x+(q-2)y)^(k-i).

    Pure polynomial expansion; never evaluates a Krawtchouk sum.
    """
    gf = polymul(_binpow(-1, h - k), _binpow(q - 1, n - k - h))
    shifted = [0] * i + [(-1) ** i * c for c in _binpow(q - 2, k - i)]
    product = polymul(gf, shifted)
    return product[j] if j < len(product) else 0


def _oracle_r_case_III(q, n, h, k, i, j):
    """Solve the unitriangular system with a polynomial right-hand side.

    rhs_s = coefficient of y^s in (x-y)^(h-k) (-y)^i (x+(q-2)y)^(k-i);
    forward substitution against U gives the transferred coefficients.
    """
    m = n - k + 1
    shifted = [0] * i + [(-1) ** i * c for c in _binpow(q - 2, k - i)]
    rhs_poly = polymul(_binpow(-1, h - k), shifted)
    rhs = [Fraction(rhs_poly[s]) if s < len(rhs_poly) else Fraction(0) for s in range(m)]
    u = [[(q - 1) ** (r - c) * math.comb(h + k - n, r - c) if r >= c else 0 for c in range(m)] for r in range(m)]
    sol = [Fraction(0)] * m
    for r in range(m):
        sol[r] = rhs[r] - sum(u[r][c] * sol[c] for c in range(r))
    return sol[j]


# the desk grid plus the cap-scale (q, n) pairs, where k > n - h reaches n - k = 9
ORACLE_QN = (*DESK_QN, (3, 10), (4, 8))


def test_r_case_I_fixed_values():
    # i = j: only l = 0 survives
    for q, n, h in ((3, 6, 3), (4, 5, 2)):
        for k in range(0, min(h, n - h) + 1):
            for j in range(min(k, n - k) + 1):
                assert hr.coefficient(q, n, h, k, j, j) == (-1) ** j
    # worked example: P_1(1; 2) + (q-2) * C(1, 1) = 1 + 1
    assert hr.coefficient(3, 4, 2, 1, 0, 1) == 2
    # k = 0 transfer is the weight distribution: column j has single entry P_j(h; n)
    for j in range(5):
        assert hr.coefficient(3, 4, 2, 0, 0, j) == hr.krawtchouk_value(3, j, 2, 4)


def test_r_case_I_against_polynomial_oracle():
    for q, n in ORACLE_QN:
        for h in range(n + 1):
            for k in range(0, min(h, n - h) + 1):
                for j in range(n - k + 1):
                    for i in range(min(j, k) + 1):
                        assert hr.coefficient(q, n, h, k, i, j) == _oracle_r_case_I(
                            q, n, h, k, i, j
                        ), (q, n, h, k, i, j)


def test_r_case_III_fixed_values():
    assert hr.coefficient(3, 4, 3, 2, 0, 0) == 1
    for q, n, h, k in ((3, 4, 3, 2), (3, 5, 4, 3), (4, 5, 4, 2)):
        for j in range(min(k, n - k) + 1):
            assert hr.coefficient(q, n, h, k, j, j) == (-1) ** j


def test_r_case_III_against_polynomial_oracle():
    for q, n in ORACLE_QN:
        for h in range(n + 1):
            for k in range(max(1, n - h + 1), h + 1):
                for j in range(n - k + 1):
                    for i in range(min(j, k) + 1):
                        assert hr.coefficient(q, n, h, k, i, j) == _oracle_r_case_III(
                            q, n, h, k, i, j
                        ), (q, n, h, k, i, j)


def test_coefficient_triangularity_and_types():
    assert hr.coefficient(3, 4, 2, 1, 1, 0) == 0
    assert hr.coefficient(3, 4, 3, 2, 2, 1) == 0
    table = hr.coefficient_table(3, 4, 3, 2)
    for j in range(3):
        for i in range(min(j, 2) + 1):
            assert type(table[j][i]) is int
    # the parameters are checked before the i > j shortcut: k > h has no
    # formula, and h > n or k < 0 are no face at all
    for i, j in ((0, 0), (1, 0)):
        with pytest.raises(hr.RegimeError):
            hr.coefficient(3, 4, 3, 4, i, j)
        with pytest.raises(hr.RegimeError):
            hr.coefficient(3, 6, 1, 3, i, j)
        for bad in ((3, 4, 9, 1), (3, 4, 2, -1), (3, 4, -1, -2)):
            with pytest.raises(ValueError):
                hr.coefficient(*bad, i, j)
    for bad in ((3, 4, 3, 4), (3, 6, 1, 3), (3, 4, 9, 1), (3, 4, 2, -1), (3, 3, 3, 5)):
        with pytest.raises(ValueError):
            hr.coefficient_table(*bad)


def test_eigen_sums_fixed_values():
    # k = d forces the face-distance-0 column (1,): the layer-d operator is the
    # identity and every sum is 1, on the desk grid and at the cap-scale cells
    cap = [(q, n, h, d) for q, n, h in CAP_CELLS for d in range(h + 1)]
    for q, n, h, d in [*desk_cells(), *cap]:
        if d == 0:
            continue
        assert layer_column(q, n, h, d, d) == (1,), (q, n, h, d)
        assert hr.eigen_sums(q, n, h, d, d) == (1,) * (d + 1), (q, n, h, d)
    # frozen regression values
    assert hr.eigen_sums(3, 4, 2, 2, 1) == (1, 3)
    assert hr.eigen_sums(3, 4, 3, 2, 1) == (-2, 0)


def test_eigen_sums_are_dense_operator_eigenvalues():
    # apply the dense layer operator to sub-scheme characters
    for q, n, h, d, k in ((3, 4, 2, 2, 1), (3, 4, 3, 3, 2), (4, 4, 3, 3, 2), (3, 5, 4, 4, 3)):
        sums = hr.eigen_sums(q, n, h, d, k)
        dense = np.array([[float(x) for x in row] for row in hr.dense_layer_matrix(q, n, h, d, k)])
        sub_q = q - 1
        pts = digits_table(sub_q, k)
        for b_rank in range(sub_q**k):
            b = pts[b_rank]
            chi = np.exp(2j * np.pi * (pts @ b % sub_q) / sub_q)
            level = int(weight_table(sub_q, k)[b_rank])
            assert np.max(np.abs(dense @ chi - float(sums[level]) * chi)) <= 1e-9


def test_layer_eigenvalues_are_column_sums_against_krawtchouk_rows():
    # the sums come from the series in closed form; the reference sums the
    # layer column against P_i(l; k) over alphabet q-1
    desk = [(q, n, h) for q in range(3, 8) for n in range(1, 11) for h in range(n + 1)]
    for q, n, h in [*desk, *CAP_CELLS]:
        for d in range(1, h + 1):
            for k in range(1, d + 1):
                column = layer_column(q, n, h, d, k)
                expect = tuple(
                    sum(c * hr.krawtchouk_value(q - 1, i, l, k) for i, c in enumerate(column))
                    for l in range(k + 1)
                )
                assert hr.eigen_sums(q, n, h, d, k) == expect, (q, n, h, d, k)


def test_lift_multipliers_are_shifted_column_sums():
    # W[j][l] from the series in closed form; the reference weighs the column
    # shifted by k - j against P_s(l; j) over alphabet q-1, with column entries
    # past its end read as 0
    desk = [(q, n, h) for q in range(3, 8) for n in range(1, 9) for h in range(n + 1)]
    entries = 0
    for q, n, h in [*desk, *CAP_CELLS]:
        for d in range(1, h + 1):
            for k in range(1, d + 1):
                column = layer_column(q, n, h, d, k)
                table = lift_multipliers(q, n, h, d, k)
                assert [len(row) for row in table] == list(range(1, k + 1))
                for j, row in enumerate(table):
                    for l, got in enumerate(row):
                        expect = (q - 1) ** (k - j) * sum(
                            column[k - j + s] * hr.krawtchouk_value(q - 1, s, l, j)
                            for s in range(j + 1)
                            if k - j + s < len(column)
                        )
                        assert type(got) is int and got == expect, (q, n, h, d, k, j, l)
                        entries += 1
    assert entries > 10000


def test_check_conditions():
    assert hr.check_conditions(3, 4, 2, 0).passed  # vacuous
    rep = hr.check_conditions(3, 3, 2, 1)
    assert not rep.passed and not rep.origin_ok and rep.origin_value == 0
    rep2 = hr.check_conditions(3, 4, 3, 2)
    assert not rep2.passed and rep2.origin_ok and rep2.failures == ((1, 1),)
    rep3 = hr.check_conditions(3, 4, 2, 2)
    assert rep3.passed and rep3.origin_value == -3
    with pytest.raises(ValueError):
        hr.check_conditions(3, 4, 2, 3)
    data = rep2.to_json_dict()
    assert data["pass"] is False
    assert data["failures"] == [{"k": 1, "l": 1, "sum": "0"}]
    assert data["origin_value"] == "-3"


def test_exact_serialization_round_trip():
    # the audit: every stored coefficient survives exact string serialization;
    # k > n - h, where the series expands a negative power, is where
    # non-integers could come from
    seen_negative_power = False
    for q, n in ((3, 5), (4, 4)):
        for h in range(n + 1):
            for k in range(n + 1):
                try:
                    table = hr.coefficient_table(q, n, h, k)
                except hr.RegimeError:
                    continue
                for row in table:
                    for x in row:
                        assert not isinstance(x, float)
                        assert Fraction(str(x)) == x
                seen_negative_power = seen_negative_power or k > n - h
    assert seen_negative_power


def test_dense_layer_matrix_shape_and_symmetry():
    rows = hr.dense_layer_matrix(3, 4, 2, 2, 1)
    assert len(rows) == 2 and len(rows[0]) == 2
    m = hr.dense_layer_matrix(4, 5, 3, 3, 2)
    size = 3**2
    assert len(m) == size
    for a in range(size):
        for b in range(size):
            assert m[a][b] == m[b][a]  # distance matrices are symmetric
    with pytest.raises(ValueError):
        hr.dense_layer_matrix(3, 4, 2, 2, 3)


def _gram_spectrum(q, n, h):
    """(t, j, theta, multiplicity) at d = h, theta from the nondegeneracy sums.

    theta(t, j) = q^(t+2j) s^2, s = eigen_sums(q, n, h, h, t + j)[t], or
    P_h(h; n) at t = j = 0; the multiplicity is C(n, t) (q-2)^t times the
    dimension C(n-t, j) - C(n-t, j-1) of the Johnson eigenspace V_j.
    """
    for t in range(h + 1):
        for j in range(min(h - t, n - h) + 1):
            k = t + j
            s = hr.krawtchouk_value(q, h, h, n) if k == 0 else hr.eigen_sums(q, n, h, h, k)[t]
            dim = math.comb(n - t, j) - (math.comb(n - t, j - 1) if j else 0)
            yield t, j, q ** (t + 2 * j) * s * s, math.comb(n, t) * (q - 2) ** t * dim


# every d = h cell with q = 3..11 and n <= 15
GRAM_CELLS = [(q, n, h) for q in range(3, 12) for n in range(1, 16) for h in range(1, n + 1)]


def test_restriction_inverse_coefficients_invert_the_spectrum():
    # exactly, on every eigenspace of the square restriction T:
    # epsilon(t, j) = (-1)^j q^j s with q^t epsilon^2 = theta(t, j), and
    # sum_i c[t][i] (eigenvalue of W_i on V_j) = 1 / epsilon(t, j); the Gram
    # spectrum passes item 5's two trace identities
    for q, n, h in GRAM_CELLS:
        assert hr.check_conditions(q, n, h, h).passed, (q, n, h)
        table = restriction_inverse_coefficients(q, n, h)
        assert len(table) == h + 1
        size = math.comb(n, h) * (q - 1) ** h
        spectrum = list(_gram_spectrum(q, n, h))
        assert sum(mult for *_, mult in spectrum) == size, (q, n, h)
        assert sum(theta * mult for *_, theta, mult in spectrum) == size**2, (q, n, h)
        for t, j, theta, _ in spectrum:
            k = t + j
            s = hr.krawtchouk_value(q, h, h, n) if k == 0 else hr.eigen_sums(q, n, h, h, k)[t]
            eps = _restriction_eigenvalue(q, n, h, t, j)
            assert eps == (-1) ** j * q**j * s and q**t * eps * eps == theta, (q, n, h, t, j)
            big, m = n - t, h - t
            row = table[t]
            assert len(row) == m + 1 and all(isinstance(c, Fraction) for c in row)
            # only the top ranks i = m-J..m carry coefficients
            assert not any(row[: m - min(m, n - h)]), (q, n, h, t)
            eigenvalue = sum(
                c * math.comb(m - j, i - j) * math.comb(big - i - j, m - i)
                for i, c in enumerate(row)
                if i >= j
            )
            assert eigenvalue * eps == 1, (q, n, h, t, j)


def test_gram_spectrum_and_dense_solve_match_full_recovery():
    # on the desk (q, n): the dense Gram matrix has the closed-form spectrum,
    # and f from np.linalg.solve(G, T*s) is what reconstruct_full returns
    cells = 0
    for q, n in DESK_QN:
        for h in range(1, n + 1):
            if not hr.check_conditions(q, n, h, h).passed:
                continue
            gram = dense_gram(q, n, h)
            found = np.sort(np.linalg.eigvalsh(gram))
            expect = np.sort(
                [float(theta) for _, _, theta, mult in _gram_spectrum(q, n, h) for _ in range(mult)]
            )
            assert np.max(np.abs(found - expect)) <= 1e-9 * expect[-1], (q, n, h)
            sphere = hr.SphereData.from_function(eigfn(q, n, h), h)
            got = hr.reconstruct_full(sphere, h).values
            gap = np.max(np.abs(got - dense_gram_full(sphere, h)))
            assert gap <= 1e-12, (q, n, h, gap)
            cells += 1
    assert cells >= 40


def test_dense_restriction_solve_matches_full_recovery():
    # on the desk (q, n): f from np.linalg.solve(T, s), T = [chi_a(x)] over
    # x, a in W_h, is what reconstruct_full returns
    cells = 0
    for q, n in DESK_QN:
        for h in range(1, n + 1):
            if not hr.check_conditions(q, n, h, h).passed:
                continue
            sphere = hr.SphereData.from_function(eigfn(q, n, h), h)
            got = hr.reconstruct_full(sphere, h).values
            gap = np.max(np.abs(got - dense_restriction_full(sphere, h)))
            assert gap <= 1e-12, (q, n, h, gap)
            cells += 1
    assert cells >= 40
