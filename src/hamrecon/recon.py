"""Reconstruction of hypercube eigenfunctions from sphere samples.

Two algorithms, both linear in the data:

1.  Sphere to ball.  Given the values of an index-h eigenfunction on the
    weight-d sphere (d <= h), recover the whole radius-d ball around the
    origin.  The center value is the sphere sum divided by P_d(h; n);
    each further weight layer k = 1..d is recovered one support set I at
    a time by solving

        M F^I = Phi^I - Psi^I

    over the full-support set S^I, where Phi reads weight-d values off
    the given sphere, Psi applies the same coefficients r_{i,d-k} to the
    already-known values of weight < k in one distance-stack pass over
    the q-ary k-face, read at S^I, and M = sum_i r_{i,d-k} D_i lives in
    the (q-1)-ary k-dimensional sub-scheme algebra.  M is inverted
    spectrally: transform, divide each eigenspace component by its
    nondegeneracy sum, transform back.  The solver refuses layers whose
    nondegeneracy sum vanishes.

2.  Sphere to everything, for d = h.  After filling the ball, every
    Fourier coefficient on the weight-h sphere is a character-weighted
    sum of orthogonal-face totals eta(a, b), each of which collapses to a
    closed form in the local distribution inside the *known* h-face:

        eta = q^(n-2h) * sum_j (-1)^j (q-1)^(h-j) v_j .

    The transform vanishes off the weight-h sphere, so one inverse
    Fourier transform finishes the job.

All data vectors are dense complex arrays indexed by word rank; every
combinatorial coefficient stays exact until the moment it multiplies
data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coeffs import ConditionReport, check_conditions, eigen_sums, layer_column
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
    _axis_transform,
    distance_tensor_stack,
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
# data containers


@dataclass
class _RadiusData:
    """Values on a region of radius d around the origin (dense, zero off the region).

    A subclass names the region in ``_what`` and lists its ranks in ``domain_ranks``.
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
        if np.any(np.delete(v, self.domain_ranks()) != 0):
            raise ValueError(f"{self._what} carries nonzero values outside its domain")

    def to_dict(self) -> dict:
        return vertex_dict(
            self.params, self.values, self.domain_ranks(), self.eigenindex, d=self.d
        )


class SphereData(_RadiusData):
    """Values on the weight-d sphere around the origin (dense, zero off W_d)."""

    _what = "sphere data"

    @classmethod
    def from_function(cls, f: VertexFunction, d: int) -> "SphereData":
        mask = weight_table(f.params.q, f.params.n) == d
        values = np.where(mask, f.values, 0)
        return cls(f.params, d, values, eigenindex=f.eigenindex)

    def domain_ranks(self) -> np.ndarray:
        return weight_ranks(self.params.q, self.params.n, self.d)

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


class BallData(_RadiusData):
    """Values on the radius-d ball around the origin (dense, zero off B_d)."""

    _what = "ball data"

    def domain_ranks(self) -> np.ndarray:
        return np.nonzero(weight_table(self.params.q, self.params.n) <= self.d)[0]

    @classmethod
    def from_dict(cls, data: dict) -> "BallData":
        params, values, eigenindex, d = read_vertex_dict(data)
        if d is None:
            raise ValueError("ball data requires an explicit radius field 'd'")
        return cls(params, d, values, eigenindex)


@dataclass
class LayerSystem:
    """One weight layer on one support set: right-hand side and solution."""

    positions: tuple[int, ...]
    rhs: np.ndarray
    solution: np.ndarray | None = field(default=None)


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
# per-layer geometry helpers (cached on raw (q, k), shared across faces)


@lru_cache(maxsize=None)
def _sub_assignments(q: int, k: int) -> np.ndarray:
    """Full-support digit assignments (digits 1..q-1) in lexicographic order."""
    table = digits_table(q - 1, k) + 1
    table.setflags(write=False)
    return table


def _distance_combination(values: np.ndarray, q: int, k: int, column) -> np.ndarray:
    """sum_i column[i] D_i values on the q-ary k-cube, flattened.

    The coefficients stay exact until they are converted to float at the
    multiply; distances past the end of ``column`` carry weight zero.
    """
    tensors = distance_tensor_stack(values, q, k, len(column) - 1)
    acc = np.zeros_like(tensors[0])
    for c, t in zip(column, tensors):
        acc += float(c) * t
    return acc.reshape(-1)


def layer_rhs(
    sphere: SphereData, partial: BallData, positions, h: int
) -> LayerSystem:
    """Right-hand side Phi - Psi of the weight-k system on one support set.

    Phi(a) sums the sphere values over the orthogonal face at distance
    d-k from a; every word it touches has total weight exactly d (the k
    nonzero digits of a plus d-k fresh nonzero digits off its support),
    so Phi is readable from the sphere alone.  Psi(a) combines the
    already-reconstructed values of weight < k inside the face through
    the same coefficient column: the partial ball is gathered on the
    q-ary k-face, its full-support words (weight k, not yet known) are
    zeroed, and sum_i r_{i,d-k} D_i of that face is read at the
    full-support words.  Values of weight >= k in ``partial`` are
    therefore ignored.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    pos = check_positions(positions, n)
    k = len(pos)
    if not 1 <= k <= d:
        raise ValueError(f"support size {k} outside [1, d={d}]")
    if partial.d < k - 1:
        raise ValueError(f"partial ball of radius {partial.d} misses weights below {k}")
    column = layer_column(q, n, h, d, k)
    pos_weights = position_weights(params, pos)
    ranks_full = _sub_assignments(q, k) @ pos_weights

    # Phi: gather weight-(d-k) patterns on the complementary positions
    comp = complement(pos, n)
    tau_ranks = [np.zeros(1, dtype=np.int64)] if d == k else []
    if d > k:
        patterns = _sub_assignments(q, d - k)
        for subset in itertools.combinations(comp, d - k):
            tau_ranks.append(patterns @ position_weights(params, subset))
    tau = np.concatenate(tau_ranks)
    phi = sphere.values[ranks_full[:, None] + tau[None, :]].sum(axis=1)

    # Psi: one distance-stack pass over the face with its full-support words zeroed
    face = partial.values[digits_table(q, k) @ pos_weights]
    full_rows = weight_ranks(q, k, k)
    face[full_rows] = 0
    psi = _distance_combination(face, q, k, column)[full_rows]

    return LayerSystem(positions=pos, rhs=phi - psi)


def solve_layer(system: LayerSystem, q: int, n: int, h: int, d: int) -> np.ndarray:
    """Invert the layer operator spectrally and store the solution.

    The operator is a combination of sub-scheme distance matrices, hence
    diagonal in the sub-scheme Fourier basis with eigenvalue sums[l] on
    the weight-l component; division by those exact sums inverts it.
    Refuses (rather than pseudo-inverts) when a sum vanishes.
    """
    k = len(system.positions)
    sums = eigen_sums(q, n, h, d, k)
    zeros = sums.zero_levels()
    if zeros:
        raise ConditionError(
            f"layer k={k} is singular: nondegeneracy sum vanishes at levels {list(zeros)}",
            report=check_conditions(q, n, h, d),
        )
    sub_q = q - 1
    spectrum = _axis_transform(system.rhs, sub_q, k, sign=-1)
    divisors = np.array([float(s) for s in sums.sums])[weight_table(sub_q, k)]
    spectrum /= divisors
    solution = _axis_transform(spectrum, sub_q, k, sign=+1) / sub_q**k
    system.solution = solution
    return solution


def apply_layer_operator(q: int, n: int, h: int, d: int, k: int, vec: np.ndarray) -> np.ndarray:
    """M vec by direct sphere sums on the sub-cube (residual-check oracle)."""
    column = layer_column(q, n, h, d, k)
    return _distance_combination(vec, q - 1, k, column)


# ---------------------------------------------------------------------------
# whole-sphere drivers


def reconstruct_ball(sphere: SphereData, h: int, tolerance: float = 1e-8) -> BallData:
    """Recover the radius-d ball from the weight-d sphere values.

    Validates the exact nondegeneracy conditions up front, then fills
    weight layers bottom-up.  The solved layer k = d must reproduce the
    given sphere values (they are copied through verbatim); a mismatch
    beyond the tolerance means the input was not the restriction of any
    index-h eigenfunction.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    report = check_conditions(q, n, h, d)
    if not report.passed:
        raise ConditionError(
            f"reconstruction conditions fail for (q={q}, n={n}, h={h}, d={d})", report=report
        )
    ball = BallData(params, d, np.zeros(params.size, dtype=np.complex128), eigenindex=h)
    ball.values[0] = reconstruct_origin(sphere, h)
    data_scale = 1.0 + float(np.max(np.abs(sphere.values)))
    for k in range(1, d + 1):
        for positions in itertools.combinations(range(1, n + 1), k):
            system = layer_rhs(sphere, ball, positions, h)
            solution = solve_layer(system, q, n, h, d)
            ranks = _sub_assignments(q, k) @ position_weights(params, positions)
            if k == d:
                given = sphere.values[ranks]
                gap = float(np.max(np.abs(solution - given)))
                if gap > tolerance * data_scale:
                    raise DataInconsistencyError(
                        f"sphere data is not a consistent eigenfunction restriction:"
                        f" layer d={d} reproduces the input only to {gap:.3e}"
                    )
                ball.values[ranks] = given
            else:
                ball.values[ranks] = solution
    return ball


def eta_face_values(ball: BallData, positions) -> np.ndarray:
    """Total of the function over the orthogonal face through every word of one h-face.

    ``positions`` spans the known h-face through the origin (h = |I| must
    equal the ball radius).  Entry r belongs to the face word whose digits
    on ``positions`` spell r in base q.  Uses the closed form
    eta = q^(n-2h) sum_j (-1)^j (q-1)^(h-j) v_j, with v the local
    distribution of the ball values in the face, for all words at once.
    """
    params = ball.params
    q, n = params.q, params.n
    pos = check_positions(positions, n)
    h = len(pos)
    if h != ball.d:
        raise ValueError(f"face dimension {h} must equal the ball radius {ball.d}")
    ranks_face = digits_table(q, h) @ position_weights(params, pos)
    column = [(-1) ** j * (q - 1) ** (h - j) for j in range(h + 1)]
    acc = _distance_combination(ball.values[ranks_face], q, h, column)
    return float(Fraction(q) ** (n - 2 * h)) * acc


def eta_direct_sum(f: VertexFunction, positions, beta) -> complex:
    """Direct summation of a *full* function over the orthogonal face.

    The independent oracle for :func:`eta_face_values`: needs values
    outside the ball, so it only applies when the whole function is available.
    """
    params = f.params
    pos = check_positions(positions, params.n)
    comp = complement(pos, params.n)
    b = tuple(int(x) for x in beta)
    if not comp:
        return complex(f.values[np.sum([b[p - 1] * params.q ** (params.n - p) for p in pos])])
    ranks = (digits_table(params.q, len(comp)) @ position_weights(params, comp)) + sum(
        b[p - 1] * params.q ** (params.n - p) for p in pos
    )
    return complex(f.values[ranks].sum())


def eta_discrepancy(f: VertexFunction, h: int) -> float:
    """Max |closed form - direct sum| of eta over all h-faces of a full function."""
    params = f.params
    ball = BallData(
        params,
        h,
        np.where(weight_table(params.q, params.n) <= h, f.values, 0),
        eigenindex=h,
    )
    t = f.values.reshape((params.q,) * params.n)
    worst = 0.0
    for positions in itertools.combinations(range(1, params.n + 1), h):
        closed = eta_face_values(ball, positions)
        comp_axes = tuple(p - 1 for p in complement(positions, params.n))
        direct = t.sum(axis=comp_axes).reshape(-1) if comp_axes else t.reshape(-1)
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    return worst


def reconstruct_full(
    sphere: SphereData, h: int | None = None, tolerance: float = 1e-8
) -> VertexFunction:
    """Recover the whole eigenfunction from its values on the weight-h sphere.

    Requires the sphere radius to equal the eigenvalue index.  Fills the
    radius-h ball, assembles the Fourier coefficients on the weight-h
    sphere from per-face eta sums (grouped by support, one sub-transform
    per face), zeroes the rest of the spectrum, and inverts.
    """
    params = sphere.params
    if h is None:
        h = sphere.eigenindex
    if h is None:
        raise ValueError("eigenvalue index h is required (not present in the sphere data)")
    if sphere.d != h:
        raise ValueError(
            f"full reconstruction needs sphere radius d={sphere.d} equal to the index h={h}"
        )
    if h == 0:
        # the constant eigenspace: the single given value is the function
        return VertexFunction(
            params, np.full(params.size, complex(sphere.values[0])), eigenindex=0
        )
    ball = reconstruct_ball(sphere, h, tolerance)
    fhat = np.zeros(params.size, dtype=np.complex128)
    full_rows = weight_ranks(params.q, h, h)
    for positions in itertools.combinations(range(1, params.n + 1), h):
        ranks_face = digits_table(params.q, h) @ position_weights(params, positions)
        spectrum = _axis_transform(eta_face_values(ball, positions), params.q, h, sign=-1)
        fhat[ranks_face[full_rows]] = spectrum[full_rows]
    out = inverse_fourier(VertexFunction(params, fhat))
    out.eigenindex = h
    return out
