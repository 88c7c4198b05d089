"""Reconstruction of hypercube eigenfunctions from sphere samples.

Two algorithms, both linear in the data:

1.  Sphere to ball.  Given the values of an index-h eigenfunction on the
    weight-d sphere (d <= h), recover the whole radius-d ball around the
    origin.  The paper goes layer by layer: the center value is the
    sphere sum divided by P_d(h; n), and each weight layer k = 1..d-1 is
    recovered on every support set I with |I| = k by solving

        M F^I = Phi^I - Psi^I

    over the full-support set S^I, where Phi reads weight-d values off
    the given sphere, Psi applies the same coefficients r_{i,d-k} to the
    already-known values of weight < k on the q-ary k-face, read at S^I,
    and M = sum_i r_{i,d-k} D_i lives in the (q-1)-ary k-dimensional
    sub-scheme algebra, where it is diagonal with the exact nondegeneracy
    sums as eigenvalues.  :func:`reconstruct_origin`, :func:`layer_rhs`
    and :func:`solve_layer` keep that step for one support set; recovery
    does not call them.

    Recovery runs the whole recursion as one closed form.  Layer k of the
    ball is T_k T_d^+ s, s the sphere and T_k the restriction of V_h to
    W_k of the second algorithm below; for the sphere of an eigenfunction
    that is the eigenfunction's layer, and for any other sphere it is the
    layer of the min-norm least-squares fit.  Hold words in the
    support-spectral basis: block J, the words of support exactly J, is
    transformed on its own axes with the real (q-1)-ary Hartley kernel
    cas(2 pi a b / (q-1)) per axis (``spectral.hartley_transform``), and
    block J at frequency v is written as one word, digit 0 off J and
    v_i + 1 on J.  Frequency 0 (digit 1) is the sum over the axis, and the
    other frequencies span its sum-zero vectors, which is all the steps
    below use of the basis.
    There T_k T_d^+ keeps each pattern of t digits >= 2 and is
    I (x) K_{k,t} on it, with K_{k,t} = sum_i kappa[k][t][i] W_i a short
    sum of inclusion products on the digits 1, exact coefficients from
    ``coeffs.ball_coefficients``: on each Johnson eigenspace K_{k,t}
    scales by the layer sum at radius k over the one at radius d, the
    recursion's divisions composed.  K_{k,t}[X, Y] depends on |X & Y|
    alone, an element of the Johnson-scheme algebra, so for each pattern
    size t < d the layers k = t..d-1 stack into one real matrix, the same
    for every pattern.  Laid out once per (q, n, d), the sphere's spectrum
    on t digits >= 2 is a grid with a row per set Y of d - t digits 1 and
    a column per pattern, and the ball's words below d one with a row per
    layer k and set X.  So the ball takes the Hartley transform of the
    sphere's d-blocks, one gather into the grids, one gemm per t, one
    scatter back to the blocks of B_(d-1), and per layer k < d the inverse
    transform of the blocks of W_k.  No word of weight above d is read or
    written.  The top layer k = d is the sphere itself.

    When the layers' work sum_{k<=d} |B_k| reaches 7/5 q^n the ball is
    cut instead from the whole-tensor solve of the second algorithm, run
    at radius d: the same ball, by one pass over all q^n words.

2.  Sphere to everything.  Write f = sum_{a in W_h} g(a) chi_a.  On the
    weight-d sphere that is s = T_d g, T_d[x, a] = chi_a(x) over x in W_d
    and a in W_h; at d = h, T = T_h is square and g = T^-1 s.  In the
    support-spectral basis T_d keeps each pattern of t digits >= 2
    (nonzero (q-1)-ary frequencies) and is C^(x)t (x) E_t there: C, on the
    digits >= 2 of one axis, is unitary up to q^(1/2), and E_t maps the
    (h-t)-subsets of the other n - t axes to their (d-t)-subsets, with
    E_t^T E_t in the algebra of the binary Johnson scheme J(n - t, h - t);
    at d = h, T is invertible exactly when the layer conditions hold
    (``coeffs``).  For every d the min-norm pseudo-inverse E_t^+ (E_t^-1
    at d = h) is a short sum of inclusion products sum_i c[t][i] W_i with
    exact coefficients (``coeffs.restriction_inverse_coefficients``).
    Its entry at X, Y depends on |X & Y| alone, so, as the layers of the
    first algorithm, it is one real matrix per pattern size t <= d, the
    same for every pattern: laid out by the same sort, the sphere's
    spectrum on t digits >= 2 is a grid with a row per (d-t)-set Y and a
    column per pattern, and g on W_h one with a row per (h-t)-set X and
    the same columns.  C^-1 is never built: the inverse Fourier kernel of
    an axis is C on digits >= 2 and a 2 x 2 block on digits 0 and 1, so
    the closing pass (``spectral.closing_transform``) applies that block
    and the inverse support transform, a real kernel.  The Hartley
    transform of the sphere's own blocks, one gather into the grids, one
    gemm per t, one scatter into the q^n words and that one dense pass are
    the whole recovery (:func:`_restriction_solve`): no ball, no layer, no
    forward q^n pass, and the closing pass is the one pass over all q^n
    words.  The pseudo-inverse gives the g of least norm, so for
    consistent data any g with T_d g = s gives the same ball, and for
    inconsistent data the least-squares fit.  The paper's own closing
    step, the ball filled layer by layer and the Fourier coefficients read
    off its h-faces through the closed form

        eta = q^(n-2h) * sum_j (-1)^j (q-1)^(h-j) v_j ,

    stays with the tests as their reference (``tests/oracles.py``), and
    :func:`eta_face_values` keeps the closed form itself.  Recovered
    output lies in V_h by construction, where the closed form holds, so
    checking it against direct axis sums is the tests' work, not the
    recovery's.

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
    ball_coefficients,
    check_conditions,
    coefficient,
    eigen_sums,
    restriction_inverse_coefficients,
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
    closing_transform,
    distance_tensor_stack,
    hartley_transform,
    read_vertex_dict,
)


class ConditionError(RuntimeError):
    """The exact sufficient conditions for reconstruction do not hold."""

    def __init__(self, message: str, report: ConditionReport | None = None):
        super().__init__(message)
        self.report = report


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

    @classmethod
    def from_dict(cls, data: dict) -> "SphereData":
        params, values, eigenindex, d = read_vertex_dict(data)
        if d is None:
            present = np.flatnonzero(values)
            if present.size == 0:
                raise ValueError("cannot infer the sphere radius from an empty value list")
            d = int(weight_table(params.q, params.n)[present[0]])
        return cls(params, d, values, eigenindex)


@dataclass
class LayerSystem:
    """One weight layer on one support set: right-hand side and solution."""

    positions: tuple[int, ...]
    rhs: np.ndarray
    solution: np.ndarray | None = None


# ---------------------------------------------------------------------------
# the paper's step on one support set: the center, then Phi - Psi and M^-1


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


def layer_rhs(sphere: SphereData, partial: VertexFunction, positions, h: int) -> LayerSystem:
    """Right-hand side Phi - Psi of the weight-k system on one support set.

    Phi(a) sums the sphere values over the orthogonal face at distance
    d-k from a; every word it touches has total weight exactly d (the k
    nonzero digits of a plus d-k fresh nonzero digits off its support),
    so Phi is one gather from the sphere.  Psi(a) applies the same column,
    sum_i r_{i,d-k} D_i, to the values of weight < k on the q-ary k-face,
    in one distance-stack pass, and is read at the full-support words.
    Values of weight >= k in ``partial`` are ignored.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    pos = check_positions(positions, n)
    k = len(pos)
    if not 1 <= k <= d:
        raise ValueError(f"support size {k} outside [1, d={d}]")
    weights = position_weights(params, pos)
    ranks_full = _sub_assignments(q, k) @ weights
    rest = q ** (n - np.array(complement(pos, n), dtype=np.int64))
    tau = rest[_supports(n - k, d - k) - 1] @ _sub_assignments(q, d - k).T
    phi = sphere.values[ranks_full[:, None] + tau.reshape(1, -1)].sum(axis=1)
    face = np.where(weight_table(q, k) < k, partial.values[digits_table(q, k) @ weights], 0)
    column = [coefficient(q, n, h, k, i, d - k) for i in range(min(k, d - k) + 1)]
    stack = distance_tensor_stack(face, q, k, len(column) - 1)
    psi = sum(float(c) * t for c, t in zip(column, stack)).reshape(-1)[weight_ranks(q, k, k)]
    return LayerSystem(positions=pos, rhs=phi - psi)


def solve_layer(system: LayerSystem, q: int, n: int, h: int, d: int) -> np.ndarray:
    """Invert the layer operator on one support set and store the solution.

    M is diagonal on the (q-1)-ary characters of the support, with the
    exact nondegeneracy sums[l] on the characters of weight l, so the
    solve is a transform, a division and the inverse transform.  Refuses
    with :class:`ConditionError` when a sum vanishes.
    """
    k = len(system.positions)
    sums = eigen_sums(q, n, h, d, k)
    zeros = [l for l, s in enumerate(sums) if s == 0]
    if zeros:
        raise ConditionError(
            f"layer k={k} is singular: nondegeneracy sum vanishes at levels {zeros}",
            report=check_conditions(q, n, h, d),
        )
    divisors = np.array([float(s) for s in sums])[weight_table(q - 1, k)]
    spectrum = axis_transform(system.rhs, q - 1, k, sign=-1) / divisors
    system.solution = axis_transform(spectrum, q - 1, k, sign=+1) / (q - 1) ** k
    return system.solution


# ---------------------------------------------------------------------------
# whole-sphere drivers


@lru_cache(maxsize=None)
def _block_ranks(q: int, n: int, k: int) -> np.ndarray:
    """(C(n, k), (q-1)^k) ranks of the words of weight k, one row per support block.

    The block of a support is its words with every digit on the support
    nonzero; rows run in :func:`_supports` order, digits lexicographic.
    """
    ranks = (q ** (n - _supports(n, k))) @ _sub_assignments(q, k).T
    ranks.setflags(write=False)
    return ranks


def _sphere_spectrum(sphere: SphereData) -> np.ndarray:
    """The (q-1)-ary Hartley transform of the sphere's d-blocks, laid out as :func:`_block_ranks`.

    Both routes start from it, gathered into the W_d grids of :func:`_grid_order`.
    """
    q, n, d = sphere.params.q, sphere.params.n, sphere.d
    return hartley_transform(sphere.values[_block_ranks(q, n, d)], q - 1, d)


@lru_cache(maxsize=None)
def _tensor_path(q: int, n: int, d: int) -> bool:
    """Whether to cut the ball from the whole-tensor solve instead of composing its layers.

    The rule is sum_{k<=d} |B_k| >= c q^n with c = 7/5, set when the
    composition passed over B_k for each layer k <= d; the tensor solve
    passes over all q^n words once, in its closing pass.  Both routes now
    run one real gemm per pattern size on Johnson grids.  Warm, the
    composition is the faster up to a work ratio near 1.5 and the tensor
    route from about 2.35, with (4,8,8,7), ratio 2.0, a tie.  Cold, on the
    first call in a fresh process, the tensor route is the faster on every
    cell below, (4,8,6,6) at ratio 1.10 included: the composition first
    builds its Johnson layout (:func:`_johnson_layout`).
    :func:`reconstruct_ball` in ms, one BLAS thread, 2-core Xeon VM; warm
    is the best of 30 calls, lowest over 5 processes, and cold the median
    first call over 5 processes:

                      composition      tensor
        cell          warm    cold     warm    cold
        (4,8,6,6)     0.68     5.3     1.02    3.7
        (3,10,9,7)    0.75     8.8     0.83    3.7
        (3,10,10,7)   0.76     8.9     0.79    3.9
        (4,8,8,7)     1.03     7.3     0.99    5.5
        (3,10,10,8)   0.87     9.0     0.69    3.6
        (3,10,10,9)   0.90     8.6     0.59    2.8
        (4,8,8,8)     1.07     8.3     0.76    3.9
        (3,10,10,10)  1.11     9.2     0.57    2.1

    No benchmark workload runs a ball on the tensor side yet, so c stays
    at 7/5 until one times the crossover.
    """
    sizes = [math.comb(n, j) * (q - 1) ** j for j in range(d + 1)]
    work = sum((d + 1 - j) * size for j, size in enumerate(sizes))
    return 5 * work >= 7 * q**n


@lru_cache(maxsize=None)
def _membership(N: int, m: int) -> np.ndarray:
    """(C(N, m), N) 0/1 rows of the m-subsets of N axes, in :func:`_supports` order.

    Floats, so the intersection sizes of two families are one exact BLAS product.
    """
    table = _supports(N, m)
    rows = np.zeros((len(table), N))
    rows[np.arange(len(table))[:, None], table - 1] = 1
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _layer_keys(q: int, n: int, k: int) -> np.ndarray:
    """A sort key per word of weight k, in :func:`_block_ranks` order: t, k, X, then pattern.

    In the support-spectral basis a word of weight k has t digits >= 2,
    its pattern (their axes and values), and the set X of its k - t
    digits 1 among the n - t axes off the pattern.  X counts as its mask
    on those axes, the first of them highest: a digit 1 after b digits
    >= 2 moves up b places, then all move down t.  A falling mask is a
    rising set in :func:`_supports` order.  The key stays below 2^63 up to
    q^n = 10^12 words.
    """
    digits, axes = _sub_assignments(q, k), _supports(n, k)
    high = digits >= 2
    pattern = (q - 1) ** (n - axes) @ np.where(high, digits - 1, 0).T
    t = high.sum(axis=1)
    ones = (2 ** (n - axes) @ ((digits == 1) << (np.cumsum(high, axis=1) - high)).T) >> t
    keys = ((((t * (n + 1) + k) << n) - ones) * (q - 1) ** n + pattern).reshape(-1)
    keys.setflags(write=False)
    return keys


@lru_cache(maxsize=None)
def _grid_order(q: int, n: int, k: int) -> np.ndarray:
    """Positions in W_k's block order (:func:`_block_ranks`), sorted by :func:`_layer_keys`.

    Pattern size t after t, each run is a Johnson grid: a row per set X of
    k - t digits 1 among the n - t axes off the pattern, in
    :func:`_supports` order, and a column per pattern of t digits >= 2.
    Patterns sort alike at every k, so the grids of two layers with the
    same t have the same columns, and the row sets of each are indexed
    the same way on every column.
    """
    order = np.argsort(_layer_keys(q, n, k))
    order.setflags(write=False)
    return order


def _pascal_sums(row) -> list[float]:
    """sum_i row[i] C(m, i) for m = 0..len(row)-1, each rounded to a float once.

    The Fractions are brought to one denominator and summed as integers by
    Pascal's rule, a diagonal at a time.
    """
    den = math.lcm(*(c.denominator for c in row))
    sums = [c.numerator * (den // c.denominator) for c in row]
    for j in range(1, len(sums)):
        for i in range(len(sums) - 1, j - 1, -1):
            sums[i] += sums[i - 1]
    return [s / den for s in sums]


@lru_cache(maxsize=None)
def _johnson_layout(q: int, n: int, d: int) -> tuple:
    """(gather, scatter, shapes, codes): W_d and B_(d-1) as one Johnson grid per pattern size t < d.

    Sorted by :func:`_layer_keys`, the words of weight k < d with t digits
    >= 2 form a grid with a row per (k, X) and a column per pattern, and
    those of W_d one with a row per set Y; every column has the same rows.
    ``shapes[t]`` is (rows of the W_d grid, rows of the stacked grid,
    patterns).  ``gather`` lists the W_d grids, t after t, as positions in
    :func:`_sphere_spectrum`'s flat layout, a prefix of :func:`_grid_order`,
    and ``scatter`` the stacked grids as positions in the block order of
    B_(d-1), layer after layer, each as :func:`_block_ranks`, by one sort.
    ``codes[t]`` holds k (d + 1) + |X & Y| at stacked row (k, X) and W_d
    row Y, the intersections by one product of the sets' 0/1 membership
    rows.
    """
    shapes = tuple(
        (math.comb(n - t, d - t), sum(math.comb(n - t, r) for r in range(d - t)),
         math.comb(n, t) * (q - 2) ** t)
        for t in range(d)
    )
    # the words of W_d with t = d digits >= 2 sort last, and no layer below d reads them
    read = sum(rows * patterns for rows, _, patterns in shapes)
    gather = _grid_order(q, n, d)[:read]
    below = [_layer_keys(q, n, k) for k in range(d)] + [np.zeros(0, dtype=np.int64)]
    scatter = np.argsort(np.concatenate(below))
    codes = []
    for t in range(d):
        members = [_membership(n - t, r) for r in range(d - t)]
        codes.append(np.vstack(members) @ _membership(n - t, d - t).T)
        codes[t] += np.repeat(np.arange(t, d) * (d + 1), [len(m) for m in members])[:, None]
    codes = tuple(code.astype(np.intp) for code in codes)
    for table in (scatter, *codes):
        table.setflags(write=False)
    return gather, scatter, shapes, codes


@lru_cache(maxsize=None)
def _johnson_kernels(q: int, n: int, h: int, d: int) -> tuple:
    """Per pattern size t < d, the stacked K_{k,t}, k = t..d-1, as one real matrix.

    Entry [t, k, m] = sum_i kappa[k][t][i] C(m, i), kappa from
    :func:`coeffs.ball_coefficients`, comes from :func:`_pascal_sums` and
    is read at :func:`_johnson_layout`'s codes.  The matrices are shared,
    so they are read-only.
    """
    table = np.zeros((d, d, d + 1))
    for k, rows in enumerate(ball_coefficients(q, n, h, d)):
        for t, row in enumerate(rows):
            table[t, k, : len(row)] = _pascal_sums(row)
    kernels = tuple(row.reshape(-1)[code] for row, code in zip(table, _johnson_layout(q, n, d)[3]))
    for kernel in kernels:
        kernel.setflags(write=False)
    return kernels


def _compose_ball(sphere: SphereData, h: int) -> np.ndarray:
    """Ball values of weight < d, layer k as T_k T_d^+ s, by one gemm per pattern size.

    The module docstring's first algorithm: one gather of
    :func:`_sphere_spectrum` into the W_d grids of :func:`_johnson_layout`,
    per t < d one real gemm of the stacked K_{k,t} (:func:`_johnson_kernels`)
    with the grid's real and imaginary parts side by side, one scatter
    back to the block order of B_(d-1), and per layer the inverse
    transform of the blocks of W_k into the q^n output.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    gather, scatter, shapes, _ = _johnson_layout(q, n, d)
    grids = _sphere_spectrum(sphere).reshape(-1)[gather].view(np.float64)
    stacked = np.empty(2 * scatter.size)
    read = write = 0
    for (rows, out, patterns), kernel in zip(shapes, _johnson_kernels(q, n, h, d)):
        grid = grids[read : read + 2 * rows * patterns].reshape(rows, -1)
        np.matmul(kernel, grid, out=stacked[write : write + 2 * out * patterns].reshape(out, -1))
        read, write = read + grid.size, write + 2 * out * patterns
    blocks = np.empty(scatter.size, dtype=np.complex128)
    blocks[scatter] = stacked.view(np.complex128)
    values = np.zeros(params.size, dtype=np.complex128)
    start = 0
    for k in range(d):
        ranks = _block_ranks(q, n, k)
        layer = blocks[start : start + ranks.size].reshape(ranks.shape)
        values[ranks] = hartley_transform(layer, q - 1, k) / (q - 1) ** k
        start += ranks.size
    return values


@lru_cache(maxsize=None)
def _restriction_kernels(q: int, n: int, h: int, d: int) -> tuple:
    """Per pattern size t <= d, E_t^+ as one real (C(n-t, h-t), C(n-t, d-t)) matrix.

    Entry [X, Y] = sum_i c[t][i] C(|X & Y|, i) over the (h-t)-sets X and
    the (d-t)-sets Y of the n - t axes off the pattern, rows and columns
    in :func:`_supports` order as in the grids of :func:`_grid_order`;
    c from :func:`coeffs.restriction_inverse_coefficients` through
    :func:`_pascal_sums`, the intersections by one product of the sets'
    0/1 membership rows.  The matrices are shared, so they are read-only.
    """
    kernels = []
    for t, row in enumerate(restriction_inverse_coefficients(q, n, h, d)):
        sizes = _membership(n - t, h - t) @ _membership(n - t, d - t).T
        kernels.append(np.array(_pascal_sums(row))[sizes.astype(np.intp)])
        kernels[t].setflags(write=False)
    return tuple(kernels)


def _restriction_solve(sphere: SphereData, h: int) -> np.ndarray:
    """f = sum_{a in W_h} g(a) chi_a for the min-norm g with T_d g nearest the sphere.

    T_d[x, a] = chi_a(x) over x in W_d, a in W_h, d the sphere radius (the
    module docstring's second algorithm); on each pattern of t digits >= 2
    it is C^(x)t (x) E_t, E_t^+ = sum_i c[t][i] W_i
    (:func:`coeffs.restriction_inverse_coefficients`).  In five steps:

    1. :func:`_sphere_spectrum`, the (q-1)-ary Hartley transform of each
       d-support block of the sphere, its |W_d| words only (the caller's
       sphere is read, never written);
    2. one gather of it into the W_d Johnson grids of :func:`_grid_order`;
    3. per pattern size t <= d one real gemm of E_t^+
       (:func:`_restriction_kernels`) with the grid's real and imaginary
       parts side by side, which gives g on the W_h grid of the same
       patterns, a prefix of :func:`_grid_order` at h;
    4. one scatter of those grids into a zero q^n array: the words of W_h
       with more than d digits >= 2, and all words off W_h, keep g = 0;
    5. one :func:`spectral.closing_transform` pass, which sums g against
       the characters; C^-t cancels against the C in the characters, so
       no C is built.

    The whole q^n tensor comes back.  When the sphere is the restriction
    of an index-h eigenfunction, it agrees with that function on B_d, and
    at d = h everywhere.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    grids = _sphere_spectrum(sphere).reshape(-1)[_grid_order(q, n, d)].view(np.float64)
    kernels = _restriction_kernels(q, n, h, d)
    patterns = [math.comb(n, t) * (q - 2) ** t for t in range(d + 1)]
    solved = np.empty(2 * sum(kernel.shape[0] * p for kernel, p in zip(kernels, patterns)))
    read = write = 0
    for kernel, count in zip(kernels, patterns):
        out, rows = kernel.shape
        grid = grids[read : read + 2 * rows * count].reshape(rows, -1)
        np.matmul(kernel, grid, out=solved[write : write + 2 * out * count].reshape(out, -1))
        read, write = read + grid.size, write + 2 * out * count
    g = np.zeros(params.size, dtype=np.complex128)
    order = _grid_order(q, n, h)[: write // 2]
    g[_block_ranks(q, n, h).reshape(-1)[order]] = solved.view(np.complex128)
    return closing_transform(g, q, n)


def _check_cell(q: int, n: int, h: int, d: int) -> None:
    """Refuse with :class:`ConditionError` unless the exact nondegeneracy conditions hold."""
    report = check_conditions(q, n, h, d)
    if not report.passed:
        raise ConditionError(
            f"reconstruction conditions fail for (q={q}, n={n}, h={h}, d={d})", report=report
        )


def reconstruct_ball(sphere: SphereData, h: int) -> VertexFunction:
    """Recover the radius-d ball from the weight-d sphere values.

    Validates the exact nondegeneracy conditions up front.  Layer k < d
    is T_k T_d^+ s, the layer of the min-norm least-squares fit to the
    sphere s: composed on B_d by one gemm per pattern size on Johnson
    blocks (:func:`_compose_ball`), or, when :func:`_tensor_path` holds,
    cut from the whole-tensor solve (:func:`_restriction_solve`).  Both
    routes give that one ball, and for the sphere of an index-h
    eigenfunction it is the eigenfunction's.  The layer k = d is the
    input, copied through verbatim.  Sphere data that no index-h
    eigenfunction restricts to is not detected here.  The ball comes back
    as an index-h :class:`VertexFunction` that is zero off B_d.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    _check_cell(q, n, h, d)
    if _tensor_path(q, n, d):
        values = _restriction_solve(sphere, h)
        values[weight_table(q, n) >= d] = 0
    else:
        values = _compose_ball(sphere, h)
    top = sphere.domain_ranks()
    values[top] = sphere.values[top]
    return VertexFunction(params, values, eigenindex=h)


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
    distance-stack pass.  That keeps it independent of the Fourier
    transforms :func:`reconstruct_full` runs.
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


def reconstruct_full(sphere: SphereData, h: int) -> VertexFunction:
    """Recover the whole eigenfunction from its values on the weight-h sphere.

    Requires the sphere radius to equal the eigenvalue index.  Solves
    s = T g for f = sum_{a in W_h} g(a) chi_a, T[x, a] = chi_a(x) over
    x, a in W_h (the module docstring's second algorithm): T is invertible
    exactly when :func:`check_conditions` passes, and after that gate
    :func:`_restriction_solve` applies its inverse, E_t^-1 on every
    pattern of t digits >= 2, and sums g against the characters.

    The ball is never built, no weight layer is solved, and the condition
    number is kappa(T), not the kappa(T)^2 of the normal equations
    G = T*T that this route replaced.  Worst error relative to max |f|
    over seeds 0..12, this route (Johnson-grid gemms, Hartley basis)
    against the normal equations: the four cap cells (4,8,6), (3,10,8),
    (3,10,10), (4,8,8) 5.4e-15 against 1.2e-14; the desk grid 4.6e-15
    against 5.3e-14; (3,8,4), (3,9,5), (3,10,5) and (3,10,6), where
    kappa(T) = 81 and h lies near n/2, 1.3e-14 against 5.6e-13; (23,3,3),
    (256,2,2) and (65536,1,1), on the FFT branch, 1.2e-14, 4.5e-14 and
    1.4e-13 against 1.2e-14, 8.9e-14 and 6.9e-14.
    """
    params = sphere.params
    if sphere.d != h:
        raise ValueError(
            f"full reconstruction needs sphere radius d={sphere.d} equal to the index h={h}"
        )
    _check_cell(params.q, params.n, h, h)
    return VertexFunction(params, _restriction_solve(sphere, h), eigenindex=h)
