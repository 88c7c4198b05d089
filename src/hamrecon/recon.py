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
    transformed with the (q-1)-ary transform on its own axes, and block J
    at frequency v is written as one word, digit 0 off J and v_i + 1 on J.
    There T_k T_d^+ keeps each pattern of t digits >= 2 and is
    I (x) K_{k,t} on it, with K_{k,t} = sum_i kappa[k][t][i] W_i a short
    sum of inclusion products on the digits 1, exact coefficients from
    ``coeffs.ball_coefficients``: on each Johnson eigenspace K_{k,t}
    scales by the layer sum at radius k over the one at radius d, the
    recursion's divisions composed.  So the ball takes the (q-1)-ary
    transform of the sphere's d-blocks, written straight into a layout of
    B_d built once per (q, n, d); one add-down, per axis digit 0 += digit 1;
    and per layer k < d a multiply by kappa[k], an add-up, digit 1 +=
    digit 0, on the words of B_k, and the inverse transform of the blocks
    of W_k.  No word of weight above d is read or written.  The top layer
    k = d is the sphere itself.

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
    exact coefficients (``coeffs.restriction_inverse_coefficients``),
    applied as per-axis digit 0 += digit 1, a multiply, and
    digit 1 += digit 0.
    C^-1 is never built: the inverse Fourier kernel of an axis is C on
    digits >= 2 and a 2 x 2 block on digits 0 and 1, so the closing pass
    (``spectral.closing_transform``) applies that block and the inverse
    support transform.  The (q-1)-ary transform of the sphere's own
    blocks, those two add passes and that one dense pass are the whole
    recovery (:func:`_restriction_solve`): no ball, no layer, no forward
    q^n pass.  The pseudo-inverse gives the g of least norm, so for
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


def _block_ranks(q: int, n: int, k: int) -> np.ndarray:
    """(C(n, k), (q-1)^k) ranks of the words of weight k, one row per support block.

    The block of a support is its words with every digit on the support
    nonzero; rows run in :func:`_supports` order, digits lexicographic.
    """
    return (q ** (n - _supports(n, k))) @ _sub_assignments(q, k).T


def _block_transform(values: np.ndarray, q: int, n: int, d: int) -> None:
    """In place, the forward (q-1)-ary transform of each weight-d support block."""
    ranks = _block_ranks(q, n, d)
    values[ranks] = axis_transform(values[ranks], q - 1, d, sign=-1)


@lru_cache(maxsize=None)
def _tensor_path(q: int, n: int, d: int) -> bool:
    """Whether to cut the ball from the whole-tensor solve instead of composing its layers.

    The composition passes over B_k for each layer k <= d, the tensor
    solve over all q^n words: the rule is sum_{k<=d} |B_k| >= c q^n with
    c = 7/5.  At (4,8,.,6), ratio 1.10, the composition is the faster,
    2.5 ms against 2.9-4.2 ms on the tensor.  Above the rule the
    composition stays the faster up to a ratio near 2; warm, best of 30,
    one BLAS thread, 2-core Xeon VM:

        cell          composition   tensor
        (3,10,9,7)    1.93 ms       2.63 ms
        (3,10,10,7)   1.96 ms       2.65 ms
        (4,8,8,7)     2.57 ms       2.79 ms
        (3,10,10,8)   3.23 ms       2.58 ms
        (3,10,10,9)   4.36 ms       2.59 ms

    No benchmark workload runs a ball on the tensor side yet, so c stays
    at 7/5 until one times the crossover.
    """
    sizes = [math.comb(n, j) * (q - 1) ** j for j in range(d + 1)]
    work = sum((d + 1 - j) * size for j, size in enumerate(sizes))
    return 5 * work >= 7 * q**n


@lru_cache(maxsize=None)
def _ball_layout(q: int, n: int, d: int) -> tuple:
    """(ranks, starts, codes, pairs): the words of B_d in the order the composition reads them.

    ``ranks`` lists them by weight, then support (:func:`_supports` order),
    then digits, so W_k is ``ranks[starts[k]:starts[k + 1]]`` and holds the
    blocks of weight k in :func:`_block_ranks` order.  ``codes`` is
    weight * (d + 1) + t for each word of weight below d, t its digits
    >= 2.  ``pairs[k]`` holds, per axis, the positions of the words of
    weight below k with digit 0 there and of the same words with digit 1
    there, the pairs inside B_k; axes without one are left out.
    """
    blocks = [_block_ranks(q, n, k) for k in range(d + 1)]
    ranks = np.concatenate([block.reshape(-1) for block in blocks])
    starts = tuple(itertools.accumulate((block.size for block in blocks), initial=0))
    below = ranks[: starts[d]]
    digits = below[:, None] // q ** np.arange(n - 1, -1, -1) % q
    weights = (digits != 0).sum(axis=1)
    codes = weights * (d + 1) + (digits >= 2).sum(axis=1)
    position = np.empty(q**n, dtype=np.intp)
    position[ranks] = np.arange(ranks.size)
    axes, zeros = np.nonzero(digits.T == 0)
    ones = position[below[zeros] + q ** (n - 1 - axes)]
    bounds = np.searchsorted(axes, np.arange(n + 1)).tolist()
    axis_pairs = [(zeros[lo:hi], ones[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    # the pairs of an axis inside B_k: its digit-0 words of weight below k come first
    counts = np.bincount(weights[zeros] * n + axes, minlength=d * n).reshape(d, n)
    counts = np.vstack([np.zeros(n, dtype=np.intp), counts.cumsum(axis=0)]).tolist()
    pairs = tuple(
        tuple((z[:c], o[:c]) for (z, o), c in zip(axis_pairs, count) if c) for count in counts
    )
    return ranks, starts, codes, pairs


def _code_table(rows, width: int) -> np.ndarray:
    """rows[t][i] as floats at weight * width + t, weight = i + t: the codes of the layouts."""
    table = np.zeros(width * width)
    for t, row in enumerate(rows):
        for i, c in enumerate(row):
            table[(i + t) * width + t] = float(c)
    return table


@lru_cache(maxsize=None)
def _ball_table(q: int, n: int, h: int, d: int) -> np.ndarray:
    """:func:`coeffs.ball_coefficients` as floats, row k at weight * (d + 1) + t."""
    table = np.zeros((d, (d + 1) ** 2))
    for k, rows in enumerate(ball_coefficients(q, n, h, d)):
        table[k] = _code_table(rows, d + 1)
    table.setflags(write=False)
    return table


def _compose_ball(sphere: SphereData, h: int) -> np.ndarray:
    """Ball values of weight < d, layer k as T_k T_d^+ s on the words of B_k.

    The module docstring's first algorithm: the sphere's d-blocks
    transformed into the layout of B_d, one add-down, and per layer a
    multiply by kappa[k], an add-up inside B_k and the inverse transform of
    the blocks of W_k.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    ranks, starts, codes, pairs = _ball_layout(q, n, d)
    down = np.zeros(starts[d + 1], dtype=np.complex128)
    top = sphere.values[ranks[starts[d] :]].reshape(math.comb(n, d), -1)
    down[starts[d] :] = axis_transform(top, q - 1, d, sign=-1).reshape(-1)
    for zeros, ones in pairs[d]:
        down[zeros] += down[ones]
    values = np.zeros(params.size, dtype=np.complex128)
    table = _ball_table(q, n, h, d)
    for k in range(d):
        layer = down[: starts[k + 1]] * table[k][codes[: starts[k + 1]]]
        for zeros, ones in pairs[k]:
            layer[ones] += layer[zeros]
        blocks = layer[starts[k] :].reshape(math.comb(n, k), -1)
        out = axis_transform(blocks, q - 1, k, sign=+1) / (q - 1) ** k
        values[ranks[starts[k] : starts[k + 1]]] = out.reshape(-1)
    return values


@lru_cache(maxsize=None)
def _support_codes(q: int, axes: int) -> np.ndarray:
    """weight * (axes+1) + t per word, t its digits >= 2, by broadcasting.

    In the support-spectral basis the weight is the size of a word's block
    and t the weight of its (q-1)-ary frequency.
    """
    axis = np.array([0, axes + 1] + [axes + 2] * (q - 2), dtype=np.int16)
    codes = np.zeros(1, dtype=np.int16)
    for _ in range(axes):
        codes = (codes[:, None] + axis).reshape(-1)
    codes.setflags(write=False)
    return codes


def _add_up_blocks(t: np.ndarray, q: int, axes: int) -> None:
    """In place, per word axis digit 1 += digit 0, batched over leading axes.

    Each word then holds the sum over the words that equal it but for some
    of its digits 1 turned to 0: in the support-spectral basis, every block
    inside its own at the same frequency.
    """
    for axis in range(axes):
        view = t.reshape(-1, q**axis, q, q ** (axes - 1 - axis))
        view[:, :, 1] += view[:, :, 0]


def _add_down_blocks(t: np.ndarray, q: int, axes: int) -> None:
    """In place, per word axis digit 0 += digit 1: the mirror of :func:`_add_up_blocks`.

    Each word then holds the sum over the words that equal it but for some
    of its digits 0 turned to 1: every block that contains its own at the
    same frequency.
    """
    for axis in range(axes):
        view = t.reshape(-1, q**axis, q, q ** (axes - 1 - axis))
        view[:, :, 0] += view[:, :, 1]


def _restriction_solve(sphere: SphereData, h: int) -> np.ndarray:
    """f = sum_{a in W_h} g(a) chi_a for the min-norm g with T_d g nearest the sphere.

    T_d[x, a] = chi_a(x) over x in W_d, a in W_h, d the sphere radius (the
    module docstring's second algorithm); on each pattern of t digits >= 2
    it is C^(x)t (x) E_t, E_t^+ = sum_i c[t][i] W_i
    (:func:`coeffs.restriction_inverse_coefficients`).  In five passes:

    1. the (q-1)-ary transform of each d-support block of the sphere, its
       |W_d| words only;
    2. per axis digit 0 += digit 1, each support block summed into the
       blocks inside it;
    3. a multiply by c[t][i], t the digits >= 2 and i + t the nonzero
       digits;
    4. per axis digit 1 += digit 0, each block summed back into the blocks
       that contain it, then zero off W_h: that is E_t^+ on every pattern;
    5. one :func:`spectral.closing_transform` pass, which sums g against
       the characters; C^-t cancels against the C in the characters, so
       no C is built.

    The whole q^n tensor comes back.  When the sphere is the restriction
    of an index-h eigenfunction, it agrees with that function on B_d, and
    at d = h everywhere.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    g = sphere.values.copy()
    _block_transform(g, q, n, d)
    _add_down_blocks(g, q, n)
    g *= _code_table(restriction_inverse_coefficients(q, n, h, d), n + 1)[_support_codes(q, n)]
    _add_up_blocks(g, q, n)
    g[weight_table(q, n) != h] = 0
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
    sphere s: composed on B_d (:func:`_compose_ball`), or, when
    :func:`_tensor_path` holds, cut from the whole-tensor solve
    (:func:`_restriction_solve`).  Both routes give that one ball, and for
    the sphere of an index-h eigenfunction it is the eigenfunction's.
    The layer k = d is the input, copied through verbatim.  Sphere data
    that no index-h eigenfunction restricts to is not detected here.  The
    ball comes back as an index-h :class:`VertexFunction` that is zero off
    B_d.
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
    over seeds 0..12, this route against the normal equations: the four
    cap cells (4,8,6), (3,10,8), (3,10,10), (4,8,8) 5.4e-15 against
    1.2e-14; the desk grid 4.4e-15 against 5.3e-14; (3,8,4), (3,9,5),
    (3,10,5) and (3,10,6), where kappa(T) = 81 and h lies near n/2,
    2.0e-14 against 5.6e-13; (23,3,3), (256,2,2) and (65536,1,1), on the
    FFT branch, 1.2e-14, 5.4e-14 and 1.4e-13 against 1.2e-14, 8.9e-14 and
    6.9e-14.
    """
    params = sphere.params
    if sphere.d != h:
        raise ValueError(
            f"full reconstruction needs sphere radius d={sphere.d} equal to the index h={h}"
        )
    _check_cell(params.q, params.n, h, h)
    return VertexFunction(params, _restriction_solve(sphere, h), eigenindex=h)
