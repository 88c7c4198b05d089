"""Local distributions of vertex functions in subcube faces.

The (I, a)-local distribution of f collects the sums of f over the face
G^I(a) classified by distance to the anchor:

    v_j = sum over beta in G^I(a) with rho(beta, a) = j of f(beta),
    j = 0 .. |I|,

and the local enumerator is the homogeneous polynomial
sum_j v_j y^j x^(|I|-j).  For an eigenfunction the enumerators of two
orthogonal faces determine each other; this module carries

* the distributions themselves (by direct enumeration -- the enumeration
  *is* the oracle, no closed-form counting anywhere),
* the substitution expansion g(x + (q-2)y, -y) used by the transfer,
* the transfer to the orthogonal face via the exact coefficient tables,
* a coefficientwise checker for the cross-multiplied face identity, and
* the split of a distribution anchored at a weight-k word into the part
  carried by full-support words (weight exactly k) and the part carried
  by lighter words -- the bookkeeping that layer-by-layer reconstruction
  rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coeffs
from .krawtchouk import binomial_power
from .scheme import (
    SchemeParams,
    Word,
    check_positions,
    check_word,
    complement,
    digits_table,
    position_weights,
    support,
    word_rank,
)
from .spectral import VertexFunction


@dataclass
class LocalDistribution:
    """Distance-classified sums of a function over one face."""

    params: SchemeParams
    face: tuple[int, ...]  # position set I, sorted, 1-based
    anchor: Word
    components: np.ndarray  # length |I| + 1, complex

    def __post_init__(self) -> None:
        v = np.asarray(self.components, dtype=np.complex128)
        if v.shape != (len(self.face) + 1,):
            raise ValueError(
                f"expected {len(self.face) + 1} components, got shape {v.shape}"
            )
        self.components = v


def _face_geometry(params: SchemeParams, positions, anchor):
    """Assignments on the face, their ranks, and distances to the anchor."""
    pos = check_positions(positions, params.n)
    a = check_word(params, anchor)
    k = len(pos)
    if k == 0:
        return pos, a, np.zeros((1, 0), dtype=np.int64), np.array([word_rank(params, a)]), np.array([0])
    assign = digits_table(params.q, k)
    weights_vec = position_weights(params, pos)
    anchor_on_face = np.array([a[p - 1] for p in pos], dtype=np.int64)
    base = word_rank(params, a) - int(anchor_on_face @ weights_vec)
    ranks = base + assign @ weights_vec
    dists = (assign != anchor_on_face).sum(axis=1)
    return pos, a, assign, ranks, dists


def local_distribution(f: VertexFunction, positions, anchor) -> LocalDistribution:
    """Enumerate the face and classify by distance to the anchor."""
    pos, a, _, ranks, dists = _face_geometry(f.params, positions, anchor)
    k = len(pos)
    vals = f.values[ranks]
    comps = np.bincount(dists, weights=vals.real, minlength=k + 1) + 1j * np.bincount(
        dists, weights=vals.imag, minlength=k + 1
    )
    return LocalDistribution(f.params, pos, a, comps)


def substituted_coefficients(dist: LocalDistribution) -> np.ndarray:
    """Coefficients of y^l x^(k-l) in g(x + (q-2)y, -y), l = 0..k."""
    q = dist.params.q
    k = len(dist.face)
    v = dist.components
    out = np.zeros(k + 1, dtype=np.complex128)
    for l in range(k + 1):
        out[l] = sum(
            (-1) ** i * v[i] * (q - 2) ** (l - i) * math.comb(k - i, l - i)
            for i in range(l + 1)
        )
    return out


def transfer_orthogonal(dist: LocalDistribution, h: int) -> LocalDistribution:
    """Local distribution of the same eigenfunction in the orthogonal face.

    Valid for every face dimension k <= h; a face with k > h has no
    transfer formula and raises RegimeError.  The result has components
    for every j = 0..n-k.
    """
    params = dist.params
    k = len(dist.face)
    table = coeffs.coefficient_table(params.q, params.n, h, k)
    v = dist.components
    out = np.zeros(params.n - k + 1, dtype=np.complex128)
    for j, col in enumerate(table):
        out[j] = sum(float(c) * v[i] for i, c in enumerate(col))
    return LocalDistribution(params, complement(dist.face, params.n), dist.anchor, out)


# ---------------------------------------------------------------------------
# the orthogonal-face identity, checked as polynomials


def verify_face_relation(f: VertexFunction, positions, anchor, h: int) -> float:
    """Max coefficient discrepancy in the cross-multiplied face identity.

    For an eigenfunction with index h the identity

        (x + (q-1)y)^(h-|Ibar|) g_Ibar(x, y)
            = (x - y)^(h-k) g_I(x + (q-2)y, -y)

    holds between the enumerators of a face (dimension k) and its
    orthogonal face.  Negative exponents are cleared by multiplying both
    sides with (x + (q-1)y)^max(0, |Ibar|-h) * (x - y)^max(0, k-h), which
    leaves an identity of genuine polynomials; this routine expands both
    sides from enumerated distributions and returns the largest absolute
    coefficient difference (0 up to rounding iff f is an eigenfunction).
    """
    params = f.params
    q, n = params.q, params.n
    pos = check_positions(positions, n)
    k = len(pos)
    gbar = local_distribution(f, complement(pos, n), anchor).components
    g_sub = substituted_coefficients(local_distribution(f, pos, anchor))
    e_left = h - (n - k)  # exponent on the Ibar side
    e_right = h - k  # exponent on the I side
    lhs = np.convolve(binomial_power(q - 1, max(0, e_left)), gbar)
    lhs = np.convolve(binomial_power(-1, max(0, -e_right)), lhs)
    rhs = np.convolve(binomial_power(-1, max(0, e_right)), g_sub)
    rhs = np.convolve(binomial_power(q - 1, max(0, -e_left)), rhs)
    if lhs.shape != rhs.shape:
        raise AssertionError(f"side degrees differ: {lhs.shape} vs {rhs.shape}")
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# sigma/delta split at a full-weight anchor


def sigma_delta_split(f: VertexFunction, anchor) -> tuple[np.ndarray, np.ndarray]:
    """Split v^{s(a), f}(a) by the weight of the contributing words.

    For an anchor a of weight k the face on I = s(a) contains the zero
    word; each component v_i splits into sigma_i (contributions of words
    of full weight k, i.e. support exactly I) and delta_i (words of
    weight < k).  Returns (sigma, delta), each of length k + 1.
    """
    a = check_word(f.params, anchor)
    pos = support(a)
    k = len(pos)
    if k == 0:
        raise ValueError("split undefined at the zero word (the face is a single point)")
    _, _, assign, ranks, dists = _face_geometry(f.params, pos, a)
    vals = f.values[ranks]
    word_weights = (assign != 0).sum(axis=1)
    sigma = np.zeros(k + 1, dtype=np.complex128)
    delta = np.zeros(k + 1, dtype=np.complex128)
    full = word_weights == k
    for part, mask in ((sigma, full), (delta, ~full)):
        sel = np.nonzero(mask)[0]
        np.add.at(part, dists[sel], vals[sel])
    return sigma, delta
