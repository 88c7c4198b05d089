"""Exact Krawtchouk polynomial values.

For an alphabet of size q the value at integer arguments is

    P_i(t; N) = sum_{j=0}^{i} (-1)^j (q-1)^(i-j) C(t, j) C(N-t, i-j),

the eigenvalue of the i-th distance matrix of the Hamming scheme H(N, q)
on its t-th common eigenspace.  The same numbers appear as coefficients of
the bivariate generating polynomial

    (x - y)^t (x + (q-1)y)^(N-t) = sum_i P_i(t; N) y^i x^(N-i),

which this module expands independently (plain integer convolution) so the
two routes can be cross-checked against each other.  At x = 1 the
polynomial is the series

    K(m; a, b) = [y^m] (1 - y)^a (1 + (q-1)y)^b ,   a >= 0, b any integer,

so P_i(t; N) = K(i; t, N-t); a negative b expands the second factor as a
power series, which the transfer coefficients of ``coeffs`` need.

Everything here is arbitrary-precision integer arithmetic.  The
nondegeneracy checks downstream hinge on exact zero tests, so no value in
this module may ever pass through a float.
"""

from __future__ import annotations

import math


def _check_args(q: int, i: int, t: int, N: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet parameter must be >= 2, got q={q}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if not 0 <= i <= N:
        raise ValueError(f"degree i={i} outside [0, {N}]")
    if not 0 <= t <= N:
        raise ValueError(f"argument t={t} outside [0, {N}]")


def krawtchouk_series(q: int, m: int, a: int, b: int) -> int:
    """K(m; a, b) = [y^m] (1-y)^a (1+(q-1)y)^b for a >= 0 and any integer b.

    For b < 0 the second factor is the power series with coefficients
    C(b, r) (q-1)^r, where C(b, r) = (-1)^r C(r-b-1, r).  Zero for m < 0.
    """

    def binom(r: int) -> int:
        return math.comb(b, r) if b >= 0 else (-1) ** r * math.comb(r - b - 1, r)

    return sum(
        (-1) ** s * math.comb(a, s) * binom(m - s) * (q - 1) ** (m - s)
        for s in range(min(m, a) + 1)
    )


def krawtchouk_value(q: int, i: int, t: int, N: int) -> int:
    """P_i(t; N) for alphabet size q: the defining alternating sum, K(i; t, N-t)."""
    _check_args(q, i, t, N)
    return krawtchouk_series(q, i, t, N - t)


def binomial_power(a: int, e: int) -> list[int]:
    """y-coefficients of (x + a*y)^e as a homogeneous bivariate polynomial."""
    return [math.comb(e, m) * a**m for m in range(e + 1)]


def polymul(p: list[int], r: list[int]) -> list[int]:
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def generating_coefficients(q: int, t: int, N: int) -> list[int]:
    """Coefficients of y^i x^(N-i) in (x - y)^t (x + (q-1)y)^(N-t).

    An independent oracle for :func:`krawtchouk_value`: it never evaluates
    the alternating sum, only multiplies out the two binomial powers.
    """
    _check_args(q, 0, t, N)
    return polymul(binomial_power(-1, t), binomial_power(q - 1, N - t))


def krawtchouk_table(q: int, N: int) -> tuple[tuple[int, ...], ...]:
    """All values P_i(t; N), 0 <= i, t <= N, as rows: ``table[i][t]``.

    Column t is :func:`generating_coefficients` (q, t, N): O(N^3) in all.
    """
    _check_args(q, 0, 0, N)
    return tuple(zip(*(generating_coefficients(q, t, N) for t in range(N + 1))))
