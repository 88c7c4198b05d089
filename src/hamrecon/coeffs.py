"""Exact transfer coefficients between orthogonal-face local distributions.

For an eigenfunction with index h, the components of its local
distribution in the face on a position set I of size k determine the
components in the orthogonal face linearly:

    vbar_j = sum_{i=0}^{min(j,k)} r_{ij} v_i ,   j = 0 .. n-k.

The coefficients r_{ij} come in two closed forms depending on how k sits
relative to h and n - h:

* regime I,   k <= min(h, n-h):  an integer combination of Krawtchouk
  values P_(j-i-l)(h-k; n-2k) for alphabet q;
* regime III, n-h < k <= h:      solve a lower-unitriangular system first
  (matrix U below), then combine (q-1)-ary Krawtchouk values P_(s-i)(h-k; h-i)
  with the rows of U^-1.

The remaining two parameter ranges (h < k <= n-h and k > max(h, n-h))
have no closed form here and are rejected; sphere-to-ball reconstruction
only ever needs k <= d <= h, which regimes I and III cover completely.

The layer operator for weight-k recovery is M = sum_i r_{i,d-k} D_i taken
inside the (q-1)-ary k-dimensional sub-scheme carried by the full-support
set S^I.  Its eigenvalue on the l-th sub-scheme eigenspace is the
"nondegeneracy sum"

    sums[l] = sum_i r_{i,d-k} P_i(l; k)   (alphabet q-1),

and M is invertible iff every sums[l] is nonzero.  The same column over the
whole q-ary k-face (alphabet q) gives the multipliers that apply Psi.
Those exact zero tests are the whole point of this module, and every
quantity in it is a Python int: regime I is an integer sum, and regime
III combines integer Krawtchouk values with the rows of U^-1, which is
integral because U is unitriangular.  Nothing here touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .krawtchouk import krawtchouk_value
from .scheme import digits_table


class RegimeError(ValueError):
    """Face dimension falls in a parameter range with no transfer formula."""


def regime_of(n: int, h: int, k: int) -> str:
    """"I" or "III"; raises RegimeError for the unsupported ranges."""
    if not 0 <= h <= n:
        raise ValueError(f"eigenindex {h} outside [0, {n}]")
    if not 0 <= k <= n:
        raise ValueError(f"face dimension {k} outside [0, {n}]")
    if k <= min(h, n - h):
        return "I"
    if n - h < k <= h:
        return "III"
    if k <= n - h:
        raise RegimeError(f"regime II (h < k <= n-h) unsupported: h={h}, k={k}, n={n}")
    raise RegimeError(f"regime IV (k > max(h, n-h)) unsupported: h={h}, k={k}, n={n}")


def _check_ij(n: int, k: int, i: int, j: int) -> None:
    if not 0 <= j <= n - k:
        raise ValueError(f"column j={j} outside [0, {n - k}]")
    if not 0 <= i <= min(j, k):
        raise ValueError(f"row i={i} outside [0, min(j={j}, k={k})]")


def r_case_I(q: int, n: int, h: int, k: int, i: int, j: int) -> int:
    """Regime-I transfer coefficient (exact integer)."""
    if regime_of(n, h, k) != "I":
        raise RegimeError(f"k={k} is not in regime I for h={h}, n={n}")
    _check_ij(n, k, i, j)
    total = 0
    for l in range(j - i + 1):
        if j - i - l > n - 2 * k:
            continue  # Krawtchouk degree beyond n-2k: the coefficient is 0
        total += (
            krawtchouk_value(q, j - i - l, h - k, n - 2 * k)
            * (q - 2) ** l
            * math.comb(k - i, l)
        )
    return (-1) ** i * total


@dataclass(frozen=True)
class TriangularSystem:
    """The unitriangular matrix U of the regime-III system and its inverse.

    U[j][i] = (q-1)^(j-i) C(h+k-n, j-i) for 0 <= i <= j <= n-k; the
    diagonal is 1, so the inverse is again integer and unitriangular.
    """

    q: int
    n: int
    h: int
    k: int
    lower: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return self.n - self.k + 1


@lru_cache(maxsize=None)
def build_triangular(q: int, n: int, h: int, k: int) -> TriangularSystem:
    """Build U and U^-1 by exact forward substitution; verifies U U^-1 = I."""
    if regime_of(n, h, k) != "III":
        raise RegimeError(f"k={k} is not in regime III for h={h}, n={n}")
    m = n - k + 1
    U = [[0] * m for _ in range(m)]
    for j in range(m):
        for i in range(j + 1):
            U[j][i] = (q - 1) ** (j - i) * math.comb(h + k - n, j - i)
    inv = [[0] * m for _ in range(m)]
    for col in range(m):
        inv[col][col] = 1
        for row in range(col + 1, m):
            inv[row][col] = -sum(U[row][t] * inv[t][col] for t in range(col, row))
    for a in range(m):
        for b in range(m):
            got = sum(U[a][t] * inv[t][b] for t in range(m))
            if got != (1 if a == b else 0):
                raise AssertionError(f"U * U^-1 != I at ({a}, {b}) for (q,n,h,k)=({q},{n},{h},{k})")
    return TriangularSystem(
        q=q,
        n=n,
        h=h,
        k=k,
        lower=tuple(tuple(row) for row in U),
        inverse=tuple(tuple(row) for row in inv),
    )


def r_case_III(q: int, n: int, h: int, k: int, i: int, j: int) -> int:
    """Regime-III transfer coefficient (exact integer)."""
    system = build_triangular(q, n, h, k)
    _check_ij(n, k, i, j)
    total = 0
    for s in range(i, j + 1):
        total += system.inverse[j][s] * krawtchouk_value(q - 1, s - i, h - k, h - i)
    return (-1) ** i * total


@lru_cache(maxsize=None)
def coefficient(q: int, n: int, h: int, k: int, i: int, j: int) -> int:
    """Transfer coefficient r_{ij} for the valid regime of (h, k).

    Dispatches to regime I for k <= n-h and to regime III for
    n-h < k <= h.  Entries above the diagonal (i > j) are zero by
    triangularity of the transfer.
    """
    if k > h:
        raise RegimeError(f"no transfer formula for k={k} > h={h}")
    if i > j:
        return 0
    if k <= n - h:
        return r_case_I(q, n, h, k, i, j)
    return r_case_III(q, n, h, k, i, j)


@dataclass(frozen=True)
class CoefficientTable:
    """All coefficients r_{ij}, 0 <= i <= min(j, k), 0 <= j <= n-k."""

    q: int
    n: int
    h: int
    k: int
    regime: str
    entries: tuple[tuple[int, ...], ...]  # entries[j][i]

    @classmethod
    def build(cls, q: int, n: int, h: int, k: int) -> "CoefficientTable":
        regime = regime_of(n, h, k)
        rows = tuple(
            tuple(coefficient(q, n, h, k, i, j) for i in range(min(j, k) + 1))
            for j in range(n - k + 1)
        )
        return cls(q=q, n=n, h=h, k=k, regime=regime, entries=rows)

    def value(self, i: int, j: int) -> int:
        if i > j:
            return 0
        return self.entries[j][i]

    def column(self, j: int) -> tuple[int, ...]:
        """Coefficients multiplying v_0..v_min(j,k) in the formula for vbar_j."""
        return self.entries[j]


@lru_cache(maxsize=None)
def coefficient_table(q: int, n: int, h: int, k: int) -> CoefficientTable:
    """Cached :meth:`CoefficientTable.build` (tables are immutable)."""
    return CoefficientTable.build(q, n, h, k)


@dataclass(frozen=True)
class EigenSums:
    """Eigenvalues of the weight-k layer operator on the sub-scheme eigenspaces."""

    q: int
    n: int
    h: int
    d: int
    k: int
    sums: tuple[int, ...]  # indexed by sub-scheme eigenindex l = 0..k

    def zero_levels(self) -> tuple[int, ...]:
        return tuple(l for l, s in enumerate(self.sums) if s == 0)


@lru_cache(maxsize=None)
def layer_column(q: int, n: int, h: int, d: int, k: int) -> tuple[int, ...]:
    """r_{i,d-k} for i = 0..min(k, d-k): the layer operator M = sum_i r_{i,d-k} D_i.

    The k-face has components i = 0..k, and r_{ij} = 0 for i > j.
    """
    return tuple(coefficient(q, n, h, k, i, d - k) for i in range(min(k, d - k) + 1))


def _column_eigenvalues(alphabet: int, k: int, column: tuple[int, ...]) -> tuple[int, ...]:
    """sum_i column[i] P_i(l; k) over ``alphabet`` for l = 0..k, exactly.

    The eigenvalues of sum_i column[i] D_i on the k-cube over that alphabet.
    """
    return tuple(
        sum(c * krawtchouk_value(alphabet, i, l, k) for i, c in enumerate(column))
        for l in range(k + 1)
    )


@lru_cache(maxsize=None)
def eigen_sums(q: int, n: int, h: int, d: int, k: int) -> EigenSums:
    """sums[l] = sum_i r_{i,d-k} P_i(l; k) over alphabet q-1, exactly.

    The written range i = 0..k collapses to the :func:`layer_column` range.
    """
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if not d <= h:
        raise ValueError(f"need d <= h, got d={d}, h={h}")
    sums = _column_eigenvalues(q - 1, k, layer_column(q, n, h, d, k))
    return EigenSums(q=q, n=n, h=h, d=d, k=k, sums=sums)


@lru_cache(maxsize=None)
def psi_multipliers(q: int, n: int, h: int, d: int, k: int) -> tuple[int, ...]:
    """lam[l] = sum_i r_{i,d-k} P_i(l; k) over alphabet q, exactly.

    The eigenvalues of sum_i r_{i,d-k} D_i on the whole q-ary k-face, the
    operator Psi applies: it multiplies a weight-l frequency of the face by
    lam[l].  Unlike :func:`eigen_sums` these are never tested for zero.
    """
    return _column_eigenvalues(q, k, layer_column(q, n, h, d, k))


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
        for l in eigen_sums(q, n, h, d, k).zero_levels():
            failures.append((k, l))
    return ConditionReport(q=q, n=n, h=h, d=d, origin_value=origin, failures=tuple(failures))


# ---------------------------------------------------------------------------
# dense layer operator (oracle side)


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
