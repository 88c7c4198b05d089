"""Exact transfer coefficients between orthogonal-face local distributions.

For an eigenfunction with index h, the components of its local
distribution in the face on a position set I of size k determine the
components in the orthogonal face linearly:

    vbar_j = sum_{i=0}^{min(j,k)} r_{ij} v_i ,   j = 0 .. n-k.

Every exact number in this module is a coefficient of one series,
``krawtchouk.krawtchouk_series``,

    K(m; a, b) = [y^m] (1 - y)^a (1 + (q-1)y)^b ,   a >= 0, b any integer,

the Krawtchouk generating function (x - y)^t (x + (q-1)y)^(N-t) at x = 1:
for b >= 0, K(m; a, b) = P_m(a; a+b).  A negative b expands the second
factor as a power series.  Three closed forms read it:

* transfer coefficients  r_{ij}  = (-1)^i sum_l C(k-i, l) (q-2)^l K(j-i-l; h-k, n-k-h),
  the y^j coefficient of (-y)^i (1+(q-2)y)^(k-i) (1-y)^(h-k) (1+(q-1)y)^(n-k-h);
* nondegeneracy sums     sums[l] = K(d-k; h-k, n-k-h+l);
* restriction scalars    e_r(j) = (-1)^j q^j K(r-j; m-j, N-m-j) C(N-2j, m-j) / C(N-2j, r-j).

The layer operator for weight-k recovery is M = sum_i r_{i,d-k} D_i taken
inside the (q-1)-ary k-dimensional sub-scheme carried by the full-support
set S^I.  Its eigenvalue on the l-th sub-scheme eigenspace is sums[l] =
sum_i r_{i,d-k} P_i(l; k) over alphabet q-1, and M is invertible iff
every sums[l] is nonzero.  The sum over i folds into the series by one
substitution, x = 1 + (q-2)y and y -> -y, in the generating function of
the Krawtchouk row over alphabet q-1:

    sum_i P_i(l; k) (-y)^i (1+(q-2)y)^(k-i) = (1+(q-1)y)^l

(MacWilliams and Sloane, The Theory of Error-Correcting Codes, ch. 5 sec. 7).
The formulas hold for every face dimension 0 <= k <= h <= n, which is
all that sphere-to-ball reconstruction needs (k <= d <= h); a face with
k > h has no transfer formula and raises :class:`RegimeError`.

Both recovery tables are maps of the binary Johnson-scheme algebra
(Delsarte, Philips Res. Rep. Suppl. 10, 1973; Tarnanen, Aaltonen and
Goethals, Europ. J. Combin. 6, 1985).  On each pattern of t digits >= 2
the restriction T_k = [chi_a(x)] of V_h to the weight-k sphere is a map
E^(k)_t from the m-subsets (m = h - t) to the r-subsets (r = k - t) of
N = n - t axes, E_t = E^(d)_t at the sphere, p = d - t.  It acts on the
j-th common irreducible V_j as the scalar e_r(j) times one fixed map, and
such scalars multiply.  One small exact solve per pattern
(:func:`_inclusion_expansion`) writes the map with scalars mu_j as a sum
of inclusion products, mu_j = 0 where e_p(j) vanishes:
:func:`restriction_inverse_coefficients` the min-norm pseudo-inverse
E_t^+, mu_j = 1 / e_p(j), and :func:`ball_coefficients` each ball layer
E^(k)_t E_t^+, mu_j = e_r(j) / e_p(j).  At d = h, e_m(j) is (-1)^j q^j
sums[t] of layer t + j (P_h(h; n) at t = j = 0), so T_h is invertible
exactly when the layer conditions hold.

Every quantity is a Python int or Fraction, and a table is a plain tuple
of them; the zero tests are exact, and nothing here touches floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .krawtchouk import krawtchouk_series, krawtchouk_value


class RegimeError(ValueError):
    """Face dimension falls in a parameter range with no transfer formula."""


def _check_face(n: int, h: int, k: int) -> None:
    if k > h:
        raise RegimeError(f"no transfer formula for k={k} > h={h}")
    if not 0 <= k <= h <= n:
        raise ValueError(f"need 0 <= k <= h <= n, got k={k}, h={h}, n={n}")


def _check_ij(n: int, k: int, i: int, j: int) -> None:
    if not 0 <= j <= n - k:
        raise ValueError(f"column j={j} outside [0, {n - k}]")
    if not 0 <= i <= min(j, k):
        raise ValueError(f"row i={i} outside [0, min(j={j}, k={k})]")


@lru_cache(maxsize=None)
def coefficient(q: int, n: int, h: int, k: int, i: int, j: int) -> int:
    """Transfer coefficient r_{ij} for a face dimension 0 <= k <= h <= n (exact integer).

    Entries above the diagonal (i > j) are zero by triangularity of the
    transfer.
    """
    _check_face(n, h, k)
    if i > j:
        return 0
    _check_ij(n, k, i, j)
    return (-1) ** i * sum(
        math.comb(k - i, l) * (q - 2) ** l * krawtchouk_series(q, j - i - l, h - k, n - k - h)
        for l in range(j - i + 1)
    )


@lru_cache(maxsize=None)
def coefficient_table(q: int, n: int, h: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All coefficients r_{ij}, 0 <= i <= min(j, k), 0 <= j <= n-k, as columns: ``table[j][i]``.

    Column j multiplies v_0..v_min(j,k) in the formula for vbar_j.
    """
    _check_face(n, h, k)
    return tuple(
        tuple(coefficient(q, n, h, k, i, j) for i in range(min(j, k) + 1))
        for j in range(n - k + 1)
    )


def _check_layer(n: int, h: int, d: int, k: int) -> None:
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if not d <= h <= n:
        raise ValueError(f"need d <= h <= n, got d={d}, h={h}, n={n}")


@lru_cache(maxsize=None)
def eigen_sums(q: int, n: int, h: int, d: int, k: int) -> tuple[int, ...]:
    """sums[l] = sum_i r_{i,d-k} P_i(l; k) over alphabet q-1 = K(d-k; h-k, n-k-h+l).

    The eigenvalues of the weight-k layer operator, indexed by sub-scheme
    eigenindex l = 0..k.
    """
    _check_layer(n, h, d, k)
    return tuple(krawtchouk_series(q, d - k, h - k, n - k - h + l) for l in range(k + 1))


# ---------------------------------------------------------------------------
# recovery coefficients: maps of the Johnson-scheme algebra on each pattern


def _solve_exact(rows: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """x = numerators / det with rows x = rhs, for int ``rows`` (nonsingular) and ``rhs``.

    Fraction-free Gauss-Jordan elimination (Bareiss): every entry stays an
    integer minor of the augmented matrix, so each division is exact, and
    every diagonal entry ends as the last pivot, +-det(rows), the common
    denominator.
    """
    m = [row + [b] for row, b in zip(rows, rhs)]
    size = len(m)
    previous = 1
    for col in range(size):
        pivot = next(r for r in range(col, size) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        for r in range(size):
            if r != col:
                factor = m[r][col]
                m[r] = [(top[col] * x - factor * y) // previous for x, y in zip(m[r], top)]
        previous = top[col]
    return [m[r][size] for r in range(size)], previous


def _restriction_scalar(q: int, N: int, m: int, r: int, j: int) -> tuple[int, int]:
    """(numerator, denominator) of E^(r) from the m-sets to the r-sets of N axes on V_j.

    E^(r) has entry (-1)^x (q-1)^(r-x) at x = |A & X|.  On the j-th common
    irreducible V_j it is the scalar

        (-1)^j q^j K(r-j; m-j, N-m-j) C(N-2j, m-j) / C(N-2j, r-j)

    times the fixed map of V_j, 0 when the m-sets lack V_j (j > N - m).
    Needs j <= min(m, r) and 2j <= N.
    """
    num = (-q) ** j * krawtchouk_series(q, r - j, m - j, N - m - j) * math.comb(N - 2 * j, m - j)
    return num, math.comb(N - 2 * j, r - j)


def _inclusion_expansion(
    N: int, p: int, r: int, mu: list[tuple[int, int]]
) -> tuple[Fraction, ...]:
    """x_i, i = 0..min(p, r): the map with scalar mu_j on V_j as sum_i x_i C(|X & Y|, i).

    The map runs from the p-sets Y to the r-sets X of N axes, and ``mu``
    holds (numerator, denominator) for j = 0..J, J = min(r, p, N - max(r, p)),
    the V_j that both carry.  C(|X & Y|, i) has the scalar
    C(N-i-j, p-i) C(r-j, i-j) on V_j (0 when i < j), and the top ranks
    i = min(p, r)-J..min(p, r) span the maps between the two, so one small
    exact solve gives them; the lower ranks get 0.  The targets are scaled
    to integers by the lcm of their denominators, so every x_i is an
    integer over the one denominator det * scale.
    """
    top = len(mu) - 1
    high = min(p, r)
    ranks = range(high - top, high + 1)
    rows = [
        [math.comb(N - i - j, p - i) * math.comb(r - j, i - j) if i >= j else 0 for i in ranks]
        for j in range(top + 1)
    ]
    scale = math.lcm(*(den for _, den in mu))
    x, det = _solve_exact(rows, [num * (scale // den) for num, den in mu])
    return (Fraction(0),) * (high - top) + tuple(Fraction(v, det * scale) for v in x)


@lru_cache(maxsize=None)
def restriction_inverse_coefficients(
    q: int, n: int, h: int, d: int
) -> tuple[tuple[Fraction, ...], ...]:
    """c[t][i], i = 0..d-t: E_t^+ = sum_i c[t][i] W_i on each pattern of t digits >= 2.

    T_d = [chi_a(x)] over x in W_d, a in W_h restricts V_h to the weight-d
    sphere.  In the support-spectral basis a word's digits >= 2 (its
    nonzero (q-1)-ary frequencies) are kept, and on each pattern of t of
    them T_d is C^(x)t (x) E_t: C is unitary up to q^(1/2) per axis, and
    E_t, from the sets A of m = h - t digits 1 to the sets X of p = d - t
    digits 1 among the other N = n - t axes, has entry
    (-1)^x (q-1)^(p-x) at x = |A & X|.  Its min-norm pseudo-inverse
    E_t^+, the inverse at d = h, has the scalar mu_j = 1 / e_p(j) on V_j
    (:func:`_restriction_scalar`), and its entry at A, X is
    sum_i c[t][i] C(|A & X|, i), the inclusion products W_i that the add
    passes of recovery apply.
    """
    if not 0 <= d <= h <= n:
        raise ValueError(f"need 0 <= d <= h <= n, got d={d}, h={h}, n={n}")
    table = []
    for t in range(d + 1):
        N, m, p = n - t, h - t, d - t
        mu = []
        for j in range(min(p, N - m) + 1):
            num, den = _restriction_scalar(q, N, m, p, j)
            mu.append((den, num) if num else (0, 1))
        table.append(_inclusion_expansion(N, p, m, mu))
    return tuple(table)


@lru_cache(maxsize=None)
def ball_coefficients(
    q: int, n: int, h: int, d: int
) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """kappa[k][t][i], k < d, i = 0..k-t: layer k of the ball is sum_i kappa[k][t][i] W_i.

    Layer k of the ball of the min-norm fit is T_k T_d^+ s, s the sphere.
    On each pattern of t digits >= 2 that is I (x) K_{k,t} with
    K_{k,t} = E^(k)_t E_t^+, where E^(k)_t, from the sets A of m = h - t
    digits 1 to the sets X of r = k - t digits 1 among the other N = n - t
    axes, has entry (-1)^x (q-1)^(r-x) at x = |A & X|; the C factors
    cancel.  K_{k,t} maps the sets Y of p = d - t digits 1 to the sets X,
    with the scalar mu_j = e_r(j) / e_p(j) on V_j
    (:func:`_restriction_scalar`): the layer sum at radius k over the one
    at radius d, the nondegeneracy sum ``eigen_sums(q, n, h, d, t + j)[t]``.
    """
    if not 0 <= d <= h <= n:
        raise ValueError(f"need 0 <= d <= h <= n, got d={d}, h={h}, n={n}")
    # e_p(j) on each pattern, for every j that some layer k < d reads
    spheres = [
        [_restriction_scalar(q, n - t, h - t, d - t, j) for j in range(min(d - 1 - t, n - d) + 1)]
        for t in range(d)
    ]
    table = []
    for k in range(d):
        rows = []
        for t in range(k + 1):
            N, m, p, r = n - t, h - t, d - t, k - t
            mu = []
            for j, (num_p, den_p) in enumerate(spheres[t][: min(r, N - p) + 1]):
                if num_p:
                    num_r, den_r = _restriction_scalar(q, N, m, r, j)
                    mu.append((num_r * den_p, den_r * num_p))
                else:
                    mu.append((0, 1))
            rows.append(_inclusion_expansion(N, p, r, mu))
        table.append(tuple(rows))
    return tuple(table)


# ---------------------------------------------------------------------------
# nondegeneracy report


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the exact sufficient-condition check for radius-d recovery.

    ``origin_value`` is P_d(h; n) (must be nonzero to recover the value at
    the center); ``failures`` lists every (k, l) with sums[l] = 0.
    """

    q: int
    n: int
    h: int
    d: int
    origin_value: int
    failures: tuple[tuple[int, int], ...]

    @property
    def origin_ok(self) -> bool:
        return self.origin_value != 0

    @property
    def passed(self) -> bool:
        return self.origin_ok and not self.failures

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "h": self.h,
            "d": self.d,
            "pass": self.passed,
            "origin_value": str(self.origin_value),
            "failures": [{"k": k, "l": l, "sum": "0"} for k, l in self.failures],
        }


@lru_cache(maxsize=None)
def check_conditions(q: int, n: int, h: int, d: int) -> ConditionReport:
    """Evaluate the exact layer nondegeneracy conditions for radius d.

    Checks P_d(h; n) != 0 and, for every layer k = 1..d, that all k+1
    nondegeneracy sums are nonzero.  All tests are exact integer comparisons.
    """
    if not 0 <= h <= n:
        raise ValueError(f"eigenindex {h} outside [0, {n}]")
    if not 0 <= d <= h:
        raise ValueError(f"radius d={d} outside [0, h={h}]")
    origin = krawtchouk_value(q, d, h, n)
    failures = []
    for k in range(1, d + 1):
        failures += [(k, l) for l, s in enumerate(eigen_sums(q, n, h, d, k)) if s == 0]
    return ConditionReport(q=q, n=n, h=h, d=d, origin_value=origin, failures=tuple(failures))

