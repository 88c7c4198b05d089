"""Reconstruction of hypercube eigenfunctions from sphere samples.

Two algorithms, both linear in the data:

1.  Sphere to ball.  Given the values of an index-h eigenfunction on the
    weight-d sphere (d <= h), recover the whole radius-d ball around the
    origin.  The center value is the sphere sum divided by P_d(h; n);
    each further weight layer k = 1..d is recovered on every support set
    I with |I| = k by solving

        M F^I = Phi^I - Psi^I

    over the full-support set S^I, where Phi reads weight-d values off
    the given sphere, Psi applies the same coefficients r_{i,d-k} to the
    already-known values of weight < k on the q-ary k-face, read at S^I,
    and M = sum_i r_{i,d-k} D_i lives in the (q-1)-ary k-dimensional
    sub-scheme algebra.  Both operators are combinations of distance
    matrices, so both are diagonal in a Fourier basis: Psi is a forward
    transform of the face, a multiply by the exact face eigenvalues
    (``coeffs.psi_multipliers``) and an inverse read only at S^I; M is
    inverted by a transform, a division by the nondegeneracy sums and a
    transform back.  The solver refuses layers whose nondegeneracy sum
    vanishes.  The top layer k = d needs none of this: its column is (1,),
    so M is the identity, Psi vanishes on S^I, and the sphere values are
    the layer.

    M is the same for all C(n, k) supports of a layer; only the right-hand
    side changes.  So a layer is one batched problem: the supports are
    stacked on a leading axis and Phi (one gather), Psi and the solve are
    whole-array passes over the stack.  The stack is cut into chunks of at
    most ``_CHUNK_WORDS`` complex words, transform buffers and gather axes
    included, so peak memory does not grow with C(n, k).

2.  Sphere to everything, for d = h.  After filling the ball, every
    Fourier coefficient on the weight-h sphere is a character-weighted
    sum of orthogonal-face totals eta(a, b), each of which collapses to a
    closed form in the local distribution inside the *known* h-face:

        eta = q^(n-2h) * sum_j (-1)^j (q-1)^(h-j) v_j .

    On the full-support frequencies of a face this combination is the
    integer q^(n-h) times the face's own transform, so the coefficients
    come from one batched transform of the ball values on all C(n, h)
    faces (in the same chunks).  The transform vanishes off the weight-h
    sphere, so one inverse Fourier transform finishes the job.

All data vectors are dense complex arrays indexed by word rank; every
combinatorial coefficient stays exact until the moment it multiplies
data.  The sphere is the one outside input and is checked on entry
(:class:`SphereData`); the recovered ball is a plain :class:`VertexFunction`
that is zero off the ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coeffs import (
    ConditionReport,
    check_conditions,
    eigen_sums,
    psi_multipliers,
)
from .krawtchouk import krawtchouk_value
from .scheme import (
    SchemeParams,
    check_positions,
    complement,
    digits_table,
    position_weights,
    weight_ranks,
    weight_table,
)
from .spectral import (
    VertexFunction,
    axis_transform,
    distance_tensor_stack,
    full_support_transform,
    inverse_fourier,
    read_vertex_dict,
    vertex_dict,
)


class ConditionError(RuntimeError):
    """The exact sufficient conditions for reconstruction do not hold."""

    def __init__(self, message: str, report: ConditionReport | None = None):
        super().__init__(message)
        self.report = report


class DataInconsistencyError(RuntimeError):
    """Input data cannot be the restriction of any matching eigenfunction."""


# ---------------------------------------------------------------------------
# the sphere input


@dataclass
class SphereData:
    """Values on the weight-d sphere around the origin (dense, zero off W_d).

    Sphere data is the one input that comes from outside the program, so
    construction checks the radius, the shape and that no value lies off W_d.
    """

    params: SchemeParams
    d: int
    values: np.ndarray
    eigenindex: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.d <= self.params.n:
            raise ValueError(f"radius {self.d} outside [0, {self.params.n}]")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.params.size,):
            raise ValueError(f"values must have shape ({self.params.size},), got {v.shape}")
        self.values = v
        # nonzeros off the sphere, counted without copying the q^n values
        if np.count_nonzero(v) != np.count_nonzero(v[self.domain_ranks()]):
            raise ValueError("sphere data carries nonzero values outside its domain")

    @classmethod
    def from_function(cls, f: VertexFunction, d: int) -> "SphereData":
        mask = weight_table(f.params.q, f.params.n) == d
        values = np.where(mask, f.values, 0)
        return cls(f.params, d, values, eigenindex=f.eigenindex)

    def domain_ranks(self) -> np.ndarray:
        return weight_ranks(self.params.q, self.params.n, self.d)

    def to_dict(self) -> dict:
        return vertex_dict(self.params, self.values, self.eigenindex, self.d)

    @classmethod
    def from_dict(cls, data: dict) -> "SphereData":
        params, values, eigenindex, d = read_vertex_dict(data)
        wt = weight_table(params.q, params.n)
        present = np.nonzero(values != 0)[0]
        if d is None:
            if present.size == 0:
                raise ValueError("cannot infer the sphere radius from an empty value list")
            d = int(wt[present[0]])
        if present.size and not np.all(wt[present] == d):
            raise ValueError("sphere data lists words of mixed weights")
        return cls(params, d, values, eigenindex)


@dataclass
class LayerSystem:
    """One weight layer on one support set: right-hand side and solution."""

    positions: tuple[int, ...]
    rhs: np.ndarray
    solution: np.ndarray | None = None


# ---------------------------------------------------------------------------
# step 0: the center value


def reconstruct_origin(sphere: SphereData, h: int) -> complex:
    """f(0) = (sum of the sphere values) / P_d(h; n)."""
    params = sphere.params
    p = krawtchouk_value(params.q, sphere.d, h, params.n)
    if p == 0:
        raise ConditionError(
            f"origin condition fails: P_{sphere.d}({h}; {params.n}) = 0 for q={params.q}"
        )
    total = complex(sphere.values[sphere.domain_ranks()].sum())
    return total / p


# ---------------------------------------------------------------------------
# the batched layer kernel: every function below works on a stack of m support
# sets at once, given as an (m, k) array of sorted 1-based positions

# Most complex words a chunk of supports or faces may hold at once, the face
# stack with its transform buffers and the Phi gather with its tau axis
# included.  A fixed bound keeps peak memory flat however large a layer is.
_CHUNK_WORDS = 1 << 18


@lru_cache(maxsize=None)
def _supports(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) array of the k-subsets of 1..n, in itertools.combinations order."""
    table = np.array(list(itertools.combinations(range(1, n + 1), k)), dtype=np.int64)
    table = table.reshape(math.comb(n, k), k)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _sub_assignments(q: int, k: int) -> np.ndarray:
    """Full-support digit assignments (digits 1..q-1) in lexicographic order.

    At k = 0 the one assignment is the empty one.
    """
    table = digits_table(q - 1, k) + 1 if k else np.zeros((1, 0), dtype=np.int64)
    table.setflags(write=False)
    return table


def _chunks(count: int, words_each: int) -> list[slice]:
    """Consecutive slices of ``count`` items, each holding at most _CHUNK_WORDS words."""
    step = max(1, _CHUNK_WORDS // words_each)
    return [slice(start, start + step) for start in range(0, count, step)]


def _layer_words(q: int, n: int, h: int, d: int, k: int) -> int:
    """Complex words one support of layer k keeps live: the larger of Psi and Phi.

    Psi holds the q^k face, its spectrum and the transform's two buffers;
    Phi holds a value and an index for each of the C(n-k, d-k) (q-1)^d
    words it sums.
    """
    psi = 4 * q**k
    phi = 2 * math.comb(n - k, d - k) * (q - 1) ** d
    return max(psi, phi)


def _layer_rhs(
    sphere: np.ndarray, ball: np.ndarray, q: int, n: int, h: int, d: int, supports: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full-support ranks and Phi - Psi of layer k for a stack of supports.

    ``sphere`` and ``ball`` are dense value vectors; only the weights
    below k of ``ball`` are read.  Both results have shape (m, (q-1)^k),
    with columns ordered like ``_sub_assignments(q, k)``.
    """
    m, k = supports.shape
    weights = q ** (n - supports)
    ranks_full = weights @ _sub_assignments(q, k).T

    # Phi: each full-support word a plus every weight-(d-k) pattern tau on the
    # complement of its support, a word of weight d
    outside = np.ones((m, n), dtype=bool)
    outside[np.arange(m)[:, None], supports - 1] = False
    comp_weights = (q ** (n - 1 - np.nonzero(outside)[1])).reshape(m, n - k)
    tau = comp_weights[:, _supports(n - k, d - k) - 1] @ _sub_assignments(q, d - k).T
    phi = sphere[ranks_full[:, :, None] + tau.reshape(m, 1, -1)].sum(axis=2)

    # Psi: sum_i r_{i,d-k} D_i of the face stack, full-support words zeroed, is
    # diagonal in the face's Fourier basis; the q^-k of the inverse rides on
    # the exact multipliers
    face = ball[weights @ digits_table(q, k).T]
    face[:, weight_ranks(q, k, k)] = 0
    lam = psi_multipliers(q, n, h, d, k)
    multiplier = np.array([x / q**k for x in lam])[weight_table(q, k)]
    spectrum = axis_transform(face, q, k, sign=-1)
    spectrum *= multiplier
    psi = full_support_transform(spectrum, q, k, sign=+1)
    return ranks_full, phi - psi


def _solve_layers(rhs: np.ndarray, q: int, n: int, h: int, d: int, k: int) -> np.ndarray:
    """Solve M x = rhs for each row of ``rhs``, shape (m, (q-1)^k), spectrally.

    The operator is a combination of sub-scheme distance matrices, hence
    diagonal in the sub-scheme Fourier basis with eigenvalue sums[l] on
    the weight-l component; division by those exact sums inverts it.
    Refuses (rather than pseudo-inverts) when a sum vanishes.
    """
    sums = eigen_sums(q, n, h, d, k)
    zeros = [l for l, s in enumerate(sums) if s == 0]
    if zeros:
        raise ConditionError(
            f"layer k={k} is singular: nondegeneracy sum vanishes at levels {zeros}",
            report=check_conditions(q, n, h, d),
        )
    sub_q = q - 1
    divisors = np.array([float(s) for s in sums])[weight_table(sub_q, k)]
    spectrum = axis_transform(rhs, sub_q, k, sign=-1) / divisors
    return axis_transform(spectrum, sub_q, k, sign=+1) / sub_q**k


# ---------------------------------------------------------------------------
# one support set: the batched kernel on a stack of one


def layer_rhs(sphere: SphereData, partial: VertexFunction, positions, h: int) -> LayerSystem:
    """Right-hand side Phi - Psi of the weight-k system on one support set.

    Phi(a) sums the sphere values over the orthogonal face at distance
    d-k from a; every word it touches has total weight exactly d (the k
    nonzero digits of a plus d-k fresh nonzero digits off its support),
    so Phi is readable from the sphere alone.  Psi(a) combines the
    already-reconstructed values of weight < k inside the face through
    the same coefficient column: the partial ball is gathered on the
    q-ary k-face, its full-support words (weight k, not yet known) are
    zeroed, and sum_i r_{i,d-k} D_i of that face is read at the
    full-support words.  That operator is applied in the face's Fourier
    basis, as one forward transform, one multiply by the exact
    eigenvalues of :func:`coeffs.psi_multipliers` and one inverse
    transform evaluated at the full-support words only.  Values of
    weight >= k in ``partial`` are therefore ignored.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    pos = check_positions(positions, n)
    k = len(pos)
    if not 1 <= k <= d:
        raise ValueError(f"support size {k} outside [1, d={d}]")
    supports = np.array([pos], dtype=np.int64)
    _, rhs = _layer_rhs(sphere.values, partial.values, q, n, h, d, supports)
    return LayerSystem(positions=pos, rhs=rhs[0])


def solve_layer(system: LayerSystem, q: int, n: int, h: int, d: int) -> np.ndarray:
    """Invert the layer operator on one support set and store the solution.

    Refuses with :class:`ConditionError` when a nondegeneracy sum vanishes.
    """
    solution = _solve_layers(system.rhs[None, :], q, n, h, d, len(system.positions))[0]
    system.solution = solution
    return solution


# ---------------------------------------------------------------------------
# whole-sphere drivers


def reconstruct_ball(sphere: SphereData, h: int) -> VertexFunction:
    """Recover the radius-d ball from the weight-d sphere values.

    Validates the exact nondegeneracy conditions up front, then fills
    weight layers k = 1..d-1 bottom-up, each in a few whole-array passes
    over chunks of its C(n, k) supports.  The layer k = d is the input:
    its operator is the identity (the column is (1,)) and Psi vanishes on
    its full-support words, so the given sphere values are copied through
    verbatim.  Sphere data that no index-h eigenfunction restricts to is
    not detected here.  The ball comes back as an index-h
    :class:`VertexFunction` that is zero off B_d: only the ranks of B_d are
    ever written.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    report = check_conditions(q, n, h, d)
    if not report.passed:
        raise ConditionError(
            f"reconstruction conditions fail for (q={q}, n={n}, h={h}, d={d})", report=report
        )
    ball = VertexFunction(params, np.zeros(params.size, dtype=np.complex128), eigenindex=h)
    ball.values[0] = reconstruct_origin(sphere, h)
    for k in range(1, d):
        supports = _supports(n, k)
        for chunk in _chunks(len(supports), _layer_words(q, n, h, d, k)):
            ranks, rhs = _layer_rhs(sphere.values, ball.values, q, n, h, d, supports[chunk])
            ball.values[ranks] = _solve_layers(rhs, q, n, h, d, k)
    top = sphere.domain_ranks()
    ball.values[top] = sphere.values[top]
    return ball


def _eta_column(q: int, h: int) -> tuple[int, ...]:
    """(-1)^j (q-1)^(h-j), j = 0..h: eta = q^(n-2h) sum_j column[j] v_j on an h-face."""
    return tuple((-1) ** j * (q - 1) ** (h - j) for j in range(h + 1))


def eta_face_values(f: VertexFunction, positions) -> np.ndarray:
    """Total of the function over the orthogonal face through every word of one h-face.

    ``positions`` spans the h-face through the origin, h = |I|; it holds
    only words of weight <= h, so ``f`` may be the radius-h ball or the
    whole function.  Entry r belongs to the face word whose digits on
    ``positions`` spell r in base q.  Uses the closed form
    eta = q^(n-2h) sum_j (-1)^j (q-1)^(h-j) v_j, with v the local
    distribution of the values of ``f`` in the face, for all words at once:
    v_j at every face word is D_j of the face values, from one
    distance-stack pass.  That keeps it independent of the
    Fourier-diagonal form the closing step of :func:`reconstruct_full` uses.
    """
    params = f.params
    q, n = params.q, params.n
    pos = check_positions(positions, n)
    h = len(pos)
    ranks_face = digits_table(q, h) @ position_weights(params, pos)
    tensors = distance_tensor_stack(f.values[ranks_face], q, h, h)
    acc = np.zeros_like(tensors[0])
    for c, t in zip(_eta_column(q, h), tensors):
        acc += float(c) * t
    return float(Fraction(q) ** (n - 2 * h)) * acc.reshape(-1)


def eta_discrepancy(f: VertexFunction, h: int) -> float:
    """Max |closed form - direct sum| of eta over all h-faces of a full function.

    The direct totals over the orthogonal faces through an h-face on I are
    the full function summed over the axes off I.
    """
    params = f.params
    t = f.values.reshape((params.q,) * params.n)
    worst = 0.0
    for positions in itertools.combinations(range(1, params.n + 1), h):
        closed = eta_face_values(f, positions)
        comp_axes = tuple(p - 1 for p in complement(positions, params.n))
        direct = t.sum(axis=comp_axes).reshape(-1)
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    return worst


def reconstruct_full(sphere: SphereData, h: int) -> VertexFunction:
    """Recover the whole eigenfunction from its values on the weight-h sphere.

    Requires the sphere radius to equal the eigenvalue index.  Fills the
    radius-h ball, then reads the Fourier coefficients on the weight-h
    sphere off the C(n, h) faces through the origin, batched in chunks.
    For a of support I (|I| = h), summing f against conj chi_a over the
    h-face F_I on I gives q^(h-n) sum_b f^(b) over the b that agree with a
    on I; every such b has weight >= h with equality only at b = a, and an
    index-h eigenfunction's spectrum lives on weight h, so

        f^(a) = q^(n-h) * sum_{x in F_I} f(x) conj chi_a(x),

    a face transform of ball values (F_I lies inside the radius-h ball)
    read at its full-support frequencies.  This is the eta combination
    on those frequencies: there eta multiplies the face transform by
    q^(n-2h) sum_j (-1)^j (q-1)^(h-j) P_j(h; h) = q^(n-h), because
    P_j(h; h) = (-1)^j C(h, j).  The rest of the spectrum is zero; one
    inverse transform finishes.
    """
    params = sphere.params
    if sphere.d != h:
        raise ValueError(
            f"full reconstruction needs sphere radius d={sphere.d} equal to the index h={h}"
        )
    if h == 0:
        # the constant eigenspace: the single given value is the function
        return VertexFunction(
            params, np.full(params.size, complex(sphere.values[0])), eigenindex=0
        )
    ball = reconstruct_ball(sphere, h)
    q, n = params.q, params.n
    fhat = np.zeros(params.size, dtype=np.complex128)
    full_rows = weight_ranks(q, h, h)
    scale = float(q ** (n - h))
    faces = _supports(n, h)
    # per face: ranks (half a word each), values and two transform buffers
    for chunk in _chunks(len(faces), 4 * q**h):
        ranks = (q ** (n - faces[chunk])) @ digits_table(q, h).T
        spectrum = full_support_transform(ball.values[ranks], q, h, sign=-1)
        fhat[ranks[:, full_rows]] = scale * spectrum
    out = inverse_fourier(VertexFunction(params, fhat))
    out.eigenindex = h
    return out
