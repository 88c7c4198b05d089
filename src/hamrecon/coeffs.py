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
* lift multipliers       W[j][l] = (1-q)^(k-j) K(d-2k+j; h-k, n-k-h+l),  j < k.

The layer operator for weight-k recovery is M = sum_i r_{i,d-k} D_i taken
inside the (q-1)-ary k-dimensional sub-scheme carried by the full-support
set S^I.  Its eigenvalue on the l-th sub-scheme eigenspace is sums[l] =
sum_i r_{i,d-k} P_i(l; k) over alphabet q-1, and M is invertible iff
every sums[l] is nonzero.  The sum over i folds into the series by one
substitution, x = 1 + (q-2)y and y -> -y, in the generating function of
the Krawtchouk row over alphabet q-1:

    sum_i P_i(l; k) (-y)^i (1+(q-2)y)^(k-i) = (1+(q-1)y)^l

(MacWilliams and Sloane, The Theory of Error-Correcting Codes, ch. 5 sec. 7).
The lift multipliers carry Psi from the recovered values of a smaller
support J ⊊ I, |J| = j, to the layer on I.  A word of support J lies at
distance (k - j) + s from a full-support word of I, s its (q-1)-ary
distance on J, so column entry r_{k-j+s,d-k} weighs the s-th (q-1)-ary
distance matrix on J; on a J-frequency of weight l that sum is the
row above with i = k-j+s, shifted by (-y)^(k-j).  A function on the
J-block, spread constantly over the other k - j axes of I, has its
transform multiplied by (q-1)^(k-j), hence W.
The formulas hold for every face dimension 0 <= k <= h <= n, which is
all that sphere-to-ball reconstruction needs (k <= d <= h); a face with
k > h has no transfer formula and raises :class:`RegimeError`.

Full recovery (d = h) reads the same sums once more.  The restriction
T = [chi_a(x)] of V_h to the sphere, over x, a in W_h, is square; in the
support-spectral basis it splits by the pattern of t digits >= 2 into
elements of the binary Johnson scheme J(n-t, h-t) (Delsarte, Philips Res.
Rep. Suppl. 10, 1973; Tarnanen, Aaltonen and Goethals, Europ. J. Combin.
6, 1985), with eigenvalues epsilon(t, j) = (-1)^j q^j sums[t], k = t + j;
the Gram matrix T*T has theta(t, j) = q^t epsilon(t, j)^2.
:func:`restriction_inverse_coefficients` writes the inverse blocks as sums
of inclusion products, with Fraction coefficients from one small exact
solve.

Every quantity is a Python int or Fraction, and a table is a plain tuple
of them; the zero tests are exact, and nothing here touches floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .krawtchouk import krawtchouk_series, krawtchouk_value
from .scheme import digits_table


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


@lru_cache(maxsize=None)
def lift_multipliers(q: int, n: int, h: int, d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """W[j][l] = (q-1)^(k-j) sum_s r_{k-j+s,d-k} P_s(l; j) over alphabet q-1, for j < k.

    The part of Psi on a weight-k support I that comes from the recovered
    values of support exactly J, |J| = j < k, in the support-spectral basis:
    a J-block frequency of weight l reaches I multiplied by W[j][l].  By the
    substitution above, W[j][l] = (1-q)^(k-j) K(d-2k+j; h-k, n-k-h+l), which
    is 0 when j < 2k - d.  ``table[j][l]`` for l = 0..j.
    """
    _check_layer(n, h, d, k)
    return tuple(
        tuple(
            (1 - q) ** (k - j) * krawtchouk_series(q, d - 2 * k + j, h - k, n - k - h + l)
            for l in range(j + 1)
        )
        for j in range(k)
    )


# ---------------------------------------------------------------------------
# full recovery: the inverse of the square sphere restriction


def _solve_exact(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """x with rows x = rhs for int ``rows`` (nonsingular) and ``rhs``, in Fractions.

    Fraction-free Gauss-Jordan elimination (Bareiss): every entry stays an
    integer minor of the augmented matrix, so each division is exact and no
    Fraction is formed before the answer.
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
    return [Fraction(m[r][size], m[r][r]) for r in range(size)]


def _restriction_eigenvalue(q: int, n: int, h: int, t: int, j: int) -> int:
    """epsilon(t, j) = (-1)^j q^j s with s = K(h-k; h-k, n-k-h+t), k = t + j.

    s is the nondegeneracy sum ``eigen_sums(q, n, h, h, k)[t]``, and
    P_h(h; n) at k = 0.  The Gram matrix T*T has eigenvalue
    theta(t, j) = q^t epsilon(t, j)^2 on the same eigenspace.
    """
    k = t + j
    return (-1) ** j * q**j * krawtchouk_series(q, h - k, h - k, n - k - h + t)


@lru_cache(maxsize=None)
def restriction_inverse_coefficients(q: int, n: int, h: int) -> tuple[tuple[Fraction, ...], ...]:
    """c[t][i], i = 0..h-t: E_t^-1 = sum_i c[t][i] W_i on each pattern of t digits >= 2.

    T = [chi_a(x)] over x, a in W_h is the square restriction of V_h to the
    weight-h sphere.  In the support-spectral basis a word's digits >= 2
    (its nonzero (q-1)-ary frequencies) are kept, and on each pattern of t
    of them T is C^(x)t (x) E_t: C is unitary up to q^(1/2) per axis, and
    E_t, over the sets of digits 1 among the other N = n - t axes, has
    entry (q-1)^(m-i) (-1)^i at intersection size i, m = h - t.  E_t lies
    in the Bose-Mesner algebra of the binary Johnson scheme J(N, m), with
    eigenvalue epsilon(t, j) on its eigenspace V_j, j = 0..J = min(m, n - h).
    The inclusion product W_i[B, B'] = C(|B & B'|, i) has eigenvalue
    C(m-j, i-j) C(N-i-j, m-i) on V_j (0 when i < j).  The top ranks i = m-J..m span that algebra,
    because C(x, i) is triangular over the J+1 intersection sizes
    x = m-J..m, so their c[t][i] solve

        sum_i c[t][i] C(m-j, i-j) C(N-i-j, m-i) = 1 / epsilon(t, j),   j = 0..J;

    the lower ranks get 0.  Raises ValueError when some epsilon is 0, which
    happens exactly when :func:`check_conditions` fails at d = h.
    """
    if not 0 <= h <= n:
        raise ValueError(f"eigenindex {h} outside [0, {n}]")
    table = []
    for t in range(h + 1):
        N, m = n - t, h - t
        top = min(m, n - h)
        eps = [_restriction_eigenvalue(q, n, h, t, j) for j in range(top + 1)]
        if 0 in eps:
            raise ValueError(f"the sphere restriction of (q={q}, n={n}, h={h}) is singular")
        ranks = range(m - top, m + 1)
        rows = [
            [math.comb(m - j, i - j) * math.comb(N - i - j, m - i) if i >= j else 0 for i in ranks]
            for j in range(top + 1)
        ]
        # the right-hand side 1/epsilon, scaled to integers by their lcm
        scale = math.lcm(*eps)
        c = _solve_exact(rows, [scale // e for e in eps])
        table.append((Fraction(0),) * (m - top) + tuple(x / scale for x in c))
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


# ---------------------------------------------------------------------------
# dense layer operator (oracle side)


@lru_cache(maxsize=None)
def layer_column(q: int, n: int, h: int, d: int, k: int) -> tuple[int, ...]:
    """r_{i,d-k} for i = 0..min(k, d-k): the layer operator M = sum_i r_{i,d-k} D_i.

    The k-face has components i = 0..k, and r_{ij} = 0 for i > j.  Only
    the oracles build M from its column; recovery reads M's eigenvalues
    from :func:`eigen_sums`.
    """
    return tuple(coefficient(q, n, h, k, i, d - k) for i in range(min(k, d - k) + 1))


def dense_layer_matrix(q: int, n: int, h: int, d: int, k: int) -> np.ndarray:
    """M = sum_i r_{i,d-k} D_i on the (q-1)-ary k-cube, as an int64 matrix.

    Rows and columns are indexed by the relabeled full-support points in
    lexicographic order; entry (a, b) is r_{rho(a,b), d-k}.  Built by
    distance classification only, so it is independent of the eigenvalue
    bookkeeping that :func:`eigen_sums` relies on.
    """
    if not 1 <= k <= d <= h:
        raise ValueError(f"need 1 <= k <= d <= h, got k={k}, d={d}, h={h}")
    column = layer_column(q, n, h, d, k)
    # distances past the end of the column carry weight zero
    padded = np.zeros(k + 1, dtype=np.int64)
    padded[: len(column)] = column
    pts = digits_table(q - 1, k)
    dist = (pts[:, None, :] != pts[None, :, :]).sum(axis=2)
    return padded[dist]
