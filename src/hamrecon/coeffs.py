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
* ball coefficients      kappa[k][t][i], from the ratios of the sums at radius k
  to those at radius d, K(k-t-j; h-t-j, n-h-j) / K(d-t-j; h-t-j, n-h-j).

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

Whole-tensor recovery reads the same series once more.  The restriction
T_d = [chi_a(x)] of V_h to the weight-d sphere, over x in W_d and a in
W_h, splits in the support-spectral basis by the pattern of t digits >= 2
into maps E_t from the (h-t)-subsets to the (d-t)-subsets of n - t axes.
E_t^T E_t lies in the Bose-Mesner algebra of the binary Johnson scheme
J(n-t, h-t) (Delsarte, Philips Res. Rep. Suppl. 10, 1973; Tarnanen,
Aaltonen and Goethals, Europ. J. Combin. 6, 1985), with the eigenvalues
theta_d(t, j) / q^t, a product of two series values; at d = h, T is
square with eigenvalues epsilon(t, j) = (-1)^j q^j sums[t], k = t + j,
and theta_h = q^t epsilon^2.  :func:`restriction_inverse_coefficients`
writes the min-norm pseudo-inverse of each E_t (its inverse at d = h) as
a sum of inclusion products, with Fraction coefficients from one small
exact solve and one exact count; :func:`ball_coefficients` does the same
for each layer T_k T_d^+ of the ball, from one small exact solve.

Every quantity is a Python int or Fraction, and a table is a plain tuple
of them; the zero tests are exact, and nothing here touches floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .krawtchouk import generating_coefficients, krawtchouk_series, krawtchouk_value


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
# whole-tensor recovery: the pseudo-inverse of the sphere restriction


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


def _gram_eigenvalue(q: int, n: int, h: int, d: int, t: int, j: int) -> int:
    """theta_d(t, j) = q^(t+2j) K(d-k; h-k, n-k-h+t) K(h-k; d-k, n-k-d+t), k = t + j.

    The eigenvalue of the Gram matrix T_d* T_d of the sphere restriction
    on the eigenspace of t digits >= 2 and Johnson index j, q^t times
    that of E_t^T E_t; 0 for k > d.  At d = h it is q^t epsilon(t, j)^2,
    epsilon(t, j) = (-1)^j q^j s with s the nondegeneracy sum
    ``eigen_sums(q, n, h, h, k)[t]``.
    """
    k = t + j
    return (
        q ** (t + 2 * j)
        * krawtchouk_series(q, d - k, h - k, n - k - h + t)
        * krawtchouk_series(q, h - k, d - k, n - k - d + t)
    )


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
    E_t^+ = (E_t^T E_t)^+ E_t^T, the inverse at d = h, has an entry that
    depends on x alone, written here as sum_i c[t][i] C(x, i), the
    inclusion products W_i that the add passes of recovery apply.

    E_t^T E_t lies in the Bose-Mesner algebra of the binary Johnson scheme
    J(N, m) (Delsarte, Philips Res. Rep. Suppl. 10, 1973), with eigenvalue
    lambda_j = :func:`_gram_eigenvalue` / q^t on its eigenspace V_j,
    j = 0..J = min(m, n - h).  The inclusion product C(|B & B'|, i) on
    m-sets has eigenvalue C(m-j, i-j) C(N-i-j, m-i) on V_j (0 when i < j),
    and the top ranks i = m-J..m span the algebra, so the pseudo-inverse
    (E_t^T E_t)^+ = sum_i psi_i C(|B & B'|, i) solves

        sum_i psi_i C(m-j, i-j) C(N-i-j, m-i) = 1 / lambda_j  (0 where lambda_j = 0).

    Composing it with E_t^T sums over the m-sets B, grouped by y = |A & B|:
    the part of B inside A and the part outside give the Krawtchouk values
    P_y(x; m) and P_(m-y)(p-x; N-m), so E_t^+ has the entry

        sum_y (E_t^T E_t)^+(y) P_y(x; m) P_(m-y)(p-x; N-m)

    at |A & X| = x.  The sizes x that occur run from max(0, p + m - N) to
    p, and over them C(x, i) is unit lower triangular, so the c[t][i]
    follow by substitution; the lower ranks get 0.  At d = h these are the
    coefficients of E_t^-1.
    """
    if not 0 <= d <= h <= n:
        raise ValueError(f"need 0 <= d <= h <= n, got d={d}, h={h}, n={n}")
    table = []
    for t in range(d + 1):
        N, m, p = n - t, h - t, d - t
        top = min(m, n - h)
        lam = [_gram_eigenvalue(q, n, h, d, t, j) // q**t for j in range(top + 1)]
        ranks = range(m - top, m + 1)
        rows = [
            [math.comb(m - j, i - j) * math.comb(N - i - j, m - i) if i >= j else 0 for i in ranks]
            for j in range(top + 1)
        ]
        # the right-hand side 1/lambda, scaled to integers by the lcm of the nonzero ones;
        # every sum below is an integer over the one denominator det * scale
        scale = math.lcm(*filter(None, lam))
        psi, det = _solve_exact(rows, [scale // e if e else 0 for e in lam])
        # the entry of (E_t^T E_t)^+ at |B & B'| = y
        gram = [sum(c * math.comb(y, i) for i, c in zip(ranks, psi)) for y in range(m + 1)]
        low = max(0, p + m - N)
        c: list[int] = []
        for x in range(low, p + 1):
            # P_y(x; m) and P_i(p-x; N-m) for every y and i
            inside = generating_coefficients(q, x, m)
            outside = generating_coefficients(q, p - x, N - m)
            sizes = range(max(0, 2 * m - N), m + 1)
            entry = sum(gram[y] * inside[y] * outside[m - y] for y in sizes)
            c.append(entry - sum(ci * math.comb(x, i) for i, ci in enumerate(c, low)))
        table.append((Fraction(0),) * low + tuple(Fraction(a, det * scale) for a in c))
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
    cancel.  K_{k,t} maps the sets Y of p = d - t digits 1 to the sets X
    and lies in the Johnson-scheme algebra, so its entry is
    sum_i kappa[k][t][i] C(|X & Y|, i).  Each map of that algebra acts on
    the j-th common irreducible V_j as a scalar times one fixed map, and
    the scalars multiply: C(|X & Y|, i) has C(N-i-j, p-i) C(r-j, i-j), and
    E^(k)_t has (-1)^j q^j K(r-j; m-j, N-m-j) C(N-2j, m-j) / C(N-2j, r-j).
    So for j <= min(r, N-m) K_{k,t} has

        mu_j = K(r-j; m-j, N-m-j) C(N-2j, p-j) / (K(p-j; m-j, N-m-j) C(N-2j, r-j)),

    the layer sum at radius k over the one at radius d (the nondegeneracy
    sum ``eigen_sums(q, n, h, d, t + j)[t]``), and 0 where that vanishes or
    the A-sets lack V_j.  The top ranks i = r-J..r, J = min(r, N-p), follow
    by one small exact solve; the lower ranks get 0.
    """
    if not 0 <= d <= h <= n:
        raise ValueError(f"need 0 <= d <= h <= n, got d={d}, h={h}, n={n}")
    table = []
    for k in range(d):
        rows = []
        for t in range(k + 1):
            N, m, p, r = n - t, h - t, d - t, k - t
            top = min(r, N - p)
            ranks = range(r - top, r + 1)
            scalars = [
                [math.comb(N - i - j, p - i) * math.comb(r - j, i - j) if i >= j else 0
                 for i in ranks]
                for j in range(top + 1)
            ]
            # mu_j as (numerator, denominator), scaled to integers by the lcm of the
            # denominators; every kappa is an integer over the one denominator det * scale
            ratios = [(0, 1)] * (top + 1)
            for j in range(min(top, N - m) + 1):
                den = krawtchouk_series(q, p - j, m - j, N - m - j) * math.comb(N - 2 * j, r - j)
                if den:
                    num = krawtchouk_series(q, r - j, m - j, N - m - j)
                    ratios[j] = (num * math.comb(N - 2 * j, p - j), den)
            scale = math.lcm(*(den for _, den in ratios))
            kappa, det = _solve_exact(scalars, [num * (scale // den) for num, den in ratios])
            kappa = [Fraction(x, det * scale) for x in kappa]
            rows.append((Fraction(0),) * (r - top) + tuple(kappa))
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

