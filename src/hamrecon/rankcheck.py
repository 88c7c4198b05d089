"""Exact singularity testing for dense integer matrices.

The nondegeneracy sweep needs an answer to "is this integer matrix
singular?" that is certified, not floating-point.  The verdict is exact
but assembled from cheap certificates modulo word-sized primes:

* a full rank modulo a single prime certifies nonsingularity outright
  (a nonzero determinant mod p is nonzero over the integers);
* singularity is certified by an explicit integer kernel vector,
  recovered from reduced row echelon forms modulo several primes
  (CRT + rational reconstruction, Wang, Guy and Davenport 1982) and then
  verified by an exact integer matrix-vector product.

If the certificate search is exhausted without a verdict (which would
take an adversarial matrix whose determinant is divisible by every prime
in the list), :func:`is_singular` falls back to full fraction
elimination, so the answer is exact in every path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

# primes just under 2^31; products of two residues stay inside int64
_PRIMES = (
    2147483647,
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
    2147483489,
    2147483477,
    2147483423,
    2147483399,
    2147483353,
    2147483323,
    2147483269,
    2147483249,
    2147483237,
    2147483179,
    2147483171,
    2147483137,
    2147483123,
    2147483077,
    2147483069,
    2147483059,
)

# an integer ndarray or nested Python ints, every entry within int64
IntMatrix = Union[np.ndarray, Sequence[Sequence[int]]]


def fraction_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by straightforward Gaussian elimination."""
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        for r in range(rank + 1, m):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            row_r, row_p = a[r], a[rank]
            for c in range(col, ncols):
                row_r[c] -= factor * row_p[c]
        rank += 1
        if rank == m:
            break
    return rank


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over GF(p) (canonical) and its pivot columns."""
    m, ncols = a.shape
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        if rank == m:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank, col:] = (a[rank, col:] * inv) % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != rank]
        if others.size:
            a[others, col:] = (a[others, col:] - np.outer(a[others, col], a[rank, col:])) % p
        pivots.append(col)
        rank += 1
    return a, tuple(pivots)


def _kernel_vector_mod(rref: np.ndarray, pivots: tuple[int, ...], free_col: int, p: int) -> list[int]:
    # canonical kernel vector with the chosen free coordinate set to 1
    ncols = rref.shape[1]
    v = [0] * ncols
    v[free_col] = 1
    for row, col in enumerate(pivots):
        v[col] = (-int(rref[row, free_col])) % p
    return v


def _crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    x, m = 0, 1
    for r, p in zip(residues, moduli):
        inv = pow(m % p, p - 2, p)
        t = ((r - x) * inv) % p
        x = x + m * t
        m *= p
    return x % m, m


def _rational_reconstruct(r: int, m: int) -> Fraction | None:
    """a/b with r*b = a (mod m), |a|, b <= sqrt(m/2), if one exists."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, r % m
    t0, t1 = 0, 1
    while r1 > bound:
        qout = r0 // r1
        r0, r1 = r1, r0 - qout * r1
        t0, t1 = t1, t0 - qout * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if math.gcd(r1, abs(t1)) != 1:
        return None
    return Fraction(r1, t1)


def _checked_matrix(rows: IntMatrix) -> np.ndarray:
    """``rows`` as a square int64 ndarray; refuses any other dtype before a cast."""
    a = np.asarray(rows)
    if not np.can_cast(a.dtype, np.int64):
        raise TypeError(f"matrix entries must be integers that fit int64, got dtype {a.dtype}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a.astype(np.int64, copy=False)


def _certificate(a: np.ndarray) -> tuple[bool | None, list[int] | None]:
    """Search for an exact verdict on the square integer matrix ``a``.

    Returns (True, v) when singular, with v a nonzero integer vector that
    satisfies a v = 0 exactly; (False, None) when certified nonsingular;
    (None, None) when no certificate turned up.
    """
    m = a.shape[0]
    for p in _PRIMES[:3]:
        if len(_rref_mod(a % p, p)[1]) == m:
            return False, None
    # deficient modulo several primes: hunt for an exact kernel certificate
    exact = a.astype(object)
    reference_pivots: tuple[int, ...] | None = None
    residues: list[list[int]] = []
    moduli: list[int] = []
    for p in _PRIMES:
        rref, pivots = _rref_mod(a % p, p)
        if len(pivots) == m:
            return False, None  # full rank after all: nonsingular, certified
        if reference_pivots is None:
            reference_pivots = pivots
        elif pivots != reference_pivots:
            continue  # unlucky prime: pivot structure differs, skip it
        free_col = next(c for c in range(m) if c not in reference_pivots)
        residues.append(_kernel_vector_mod(rref, pivots, free_col, p))
        moduli.append(p)
        if len(moduli) < 2:
            continue
        coords: list[Fraction] = []
        for idx in range(m):
            combined, modulus = _crt([r[idx] for r in residues], moduli)
            frac = _rational_reconstruct(combined, modulus)
            if frac is None:
                break
            coords.append(frac)
        else:
            denom = math.lcm(*(f.denominator for f in coords))
            candidate = [int(f * denom) for f in coords]
            if any(candidate) and not (exact @ np.array(candidate, dtype=object)).any():
                return True, candidate
    return None, None


def kernel_vector(rows: IntMatrix) -> list[int] | None:
    """An exact, verified nonzero integer kernel vector of a square integer matrix.

    The returned vector satisfies M v = 0 in exact arithmetic (this is
    re-verified before returning).  None when M is nonsingular, or in the
    unlikely case that the certificate search finds no vector;
    :func:`is_singular` settles that case exactly.
    """
    _, vec = _certificate(_checked_matrix(rows))
    return vec


def is_singular(rows: IntMatrix) -> bool:
    """Exact singularity decision for a square integer matrix (ndarray or nested ints)."""
    a = _checked_matrix(rows)
    verdict, _ = _certificate(a)
    if verdict is None:
        # certificate search failed: settle it by exact elimination
        return fraction_rank(a.tolist()) < a.shape[0]
    return verdict
