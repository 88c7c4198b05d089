import math
from fractions import Fraction

import numpy as np
import pytest

import hamrecon as hr
from hamrecon.coeffs import ball_coefficients, restriction_inverse_coefficients
from hamrecon.krawtchouk import polymul
from hamrecon.scheme import digits_table, weight_table

from helpers import DESK_QN, desk_cells, eigfn
from oracles import (
    dense_gram,
    dense_gram_full,
    dense_layer_matrix,
    dense_pattern_block,
    dense_restriction_full,
    gram_eigenvalue,
    gram_route_restriction_inverse,
    inclusion_sum,
    layer_column,
)

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
        dense = np.array([[float(x) for x in row] for row in dense_layer_matrix(q, n, h, d, k)])
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
    rows = dense_layer_matrix(3, 4, 2, 2, 1)
    assert len(rows) == 2 and len(rows[0]) == 2
    m = dense_layer_matrix(4, 5, 3, 3, 2)
    size = 3**2
    assert len(m) == size
    for a in range(size):
        for b in range(size):
            assert m[a][b] == m[b][a]  # distance matrices are symmetric
    with pytest.raises(ValueError):
        dense_layer_matrix(3, 4, 2, 2, 3)


def _gram_spectrum(q, n, h, d):
    """(t, j, theta_d, multiplicity) over the eigenspaces of T_d* T_d on W_h.

    The multiplicity is C(n, t) (q-2)^t times the dimension
    C(n-t, j) - C(n-t, j-1) of the Johnson eigenspace V_j.
    """
    for t in range(h + 1):
        for j in range(min(h - t, n - h) + 1):
            dim = math.comb(n - t, j) - (math.comb(n - t, j - 1) if j else 0)
            yield t, j, gram_eigenvalue(q, n, h, d, t, j), math.comb(n, t) * (q - 2) ** t * dim


def _gram_eigenvalues(q, n, h, d):
    """Every theta_d as often as its multiplicity, sorted, as floats."""
    spectrum = list(_gram_spectrum(q, n, h, d))
    thetas = [float(theta) for *_, theta, _ in spectrum]
    return np.sort(np.repeat(thetas, [mult for *_, mult in spectrum]))


def test_gram_spectrum_of_every_sphere_restriction():
    # theta_d against the dense Gram matrix T_d* T_d = [P_d(rho(a, b); n)]
    # over a, b in W_h, as multisets, for every 0 <= d <= h on five small
    # (q, n); and the two trace identities, sum mult = |W_h| and
    # sum theta mult = |W_h| |W_d| (every |chi_a(x)| is 1), for q = 3..11
    # and n <= 15
    for q, n in ((3, 4), (4, 4), (3, 5), (5, 3), (4, 3)):
        for h in range(n + 1):
            for d in range(h + 1):
                found = np.sort(np.linalg.eigvalsh(dense_gram(q, n, h, d)))
                expect = _gram_eigenvalues(q, n, h, d)
                assert np.max(np.abs(found - expect)) <= 1e-9 * max(expect[-1], 1), (q, n, h, d)
    for q in range(3, 12):
        for n in range(1, 16):
            for h in range(n + 1):
                size = math.comb(n, h) * (q - 1) ** h
                for d in range(h + 1):
                    spectrum = list(_gram_spectrum(q, n, h, d))
                    assert sum(mult for *_, mult in spectrum) == size, (q, n, h, d)
                    sphere = math.comb(n, d) * (q - 1) ** d
                    trace = sum(theta * mult for *_, theta, mult in spectrum)
                    assert trace == size * sphere, (q, n, h, d)


# every d = h cell with q = 3..11 and n <= 15
GRAM_CELLS = [(q, n, h) for q in range(3, 12) for n in range(1, 16) for h in range(1, n + 1)]


def test_restriction_inverse_coefficients_invert_the_spectrum():
    # exactly, on every eigenspace of the square restriction T:
    # epsilon(t, j) = (-1)^j q^j s with q^t epsilon^2 = theta_h(t, j), and
    # sum_i c[t][i] (eigenvalue of W_i on V_j) = 1 / epsilon(t, j)
    for q, n, h in GRAM_CELLS:
        assert hr.check_conditions(q, n, h, h).passed, (q, n, h)
        table = restriction_inverse_coefficients(q, n, h, h)
        assert len(table) == h + 1
        for t, j, theta, _ in _gram_spectrum(q, n, h, h):
            k = t + j
            s = hr.krawtchouk_value(q, h, h, n) if k == 0 else hr.eigen_sums(q, n, h, h, k)[t]
            eps = (-1) ** j * q**j * s
            assert q**t * eps * eps == theta, (q, n, h, t, j)
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
            gram = dense_gram(q, n, h, h)
            found = np.sort(np.linalg.eigvalsh(gram))
            expect = _gram_eigenvalues(q, n, h, h)
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


# q = 3..7 with q^n <= 20000 and every 0 <= d <= h <= n, then cells at the far
# edge: the tensor-route balls, the FFT branch and zero eigenvalues at q = 40, 16
EXPANSION_CELLS = [
    *(
        (q, n, h, d)
        for q in range(3, 8)
        for n in range(1, 10)
        if q**n <= 20000
        for h in range(n + 1)
        for d in range(h + 1)
    ),
    (3, 10, 10, 8),
    (3, 10, 10, 9),
    (4, 8, 8, 7),
    (3, 10, 9, 7),
    (65536, 1, 1, 1),
    (256, 2, 2, 2),
    (40, 3, 3, 2),
    (16, 4, 4, 3),
    (3, 12, 9, 6),
]


def test_restriction_inverse_coefficients_match_the_gram_route():
    # the eigenspace scalars of E_t alone against the route through the Gram
    # spectrum, pseudo-inverse solve and Krawtchouk composition, exactly
    for cell in EXPANSION_CELLS:
        assert restriction_inverse_coefficients(*cell) == gram_route_restriction_inverse(*cell), cell


# cells with d < h where the pattern blocks E_t are not square
PATTERN_CELLS = ((3, 5, 4, 2), (4, 5, 4, 3), (3, 6, 5, 3), (5, 4, 3, 2))


def _pinv(matrix):
    # an explicit cutoff: numpy's default, relative to the largest singular
    # value, keeps a zero singular value of the q = 5 blocks as 1e-16 noise
    return np.linalg.pinv(matrix, rcond=1e-10)


def test_restriction_inverse_coefficients_are_the_dense_pseudo_inverse():
    # sum_i c[t][i] C(|A & X|, i) against pinv of the block E_t with entry
    # (-1)^x (q-1)^((d-t)-x), x = |A & X|, for every t; d = h cells too
    blocks = 0
    for q, n, h, d in PATTERN_CELLS + ((3, 5, 5, 5), (4, 4, 3, 3)):
        table = restriction_inverse_coefficients(q, n, h, d)
        for t in range(d + 1):
            block, rows, columns = dense_pattern_block(q, n - t, h - t, d - t)
            expect = _pinv(block)
            got = inclusion_sum(table[t], columns, rows)
            gap = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
            assert gap <= 1e-13, (q, n, h, d, t, gap)
            blocks += 1
    assert blocks >= 20


def test_ball_coefficients_compose_the_dense_blocks():
    # K_{k,t} = sum_i kappa[k][t][i] C(|X & Y|, i) against E^(k)_t pinv(E^(d)_t)
    # for every t and every k < d, E^(k)_t the block of radius k
    blocks = 0
    for q, n, h, d in PATTERN_CELLS + ((3, 5, 5, 4), (4, 5, 5, 3)):
        table = ball_coefficients(q, n, h, d)
        assert [len(rows) for rows in table] == list(range(1, d + 1))
        for t in range(d):
            sphere_block, spheres, _ = dense_pattern_block(q, n - t, h - t, d - t)
            inverse = _pinv(sphere_block)
            for k in range(t, d):
                layer_block, layers, _ = dense_pattern_block(q, n - t, h - t, k - t)
                row = table[k][t]
                assert len(row) == k - t + 1 and all(isinstance(c, Fraction) for c in row)
                expect = layer_block @ inverse
                got = inclusion_sum(row, layers, spheres)
                gap = np.max(np.abs(got - expect)) / max(1.0, np.max(np.abs(expect)))
                assert gap <= 1e-13, (q, n, h, d, k, t, gap)
                blocks += 1
    assert blocks >= 30
