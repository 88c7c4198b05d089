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
    sub-scheme algebra.  The top layer k = d needs no solve: its column is
    (1,), so M is the identity, Psi vanishes on S^I, and the sphere values
    are the layer.

    The layer driver holds the ball in the support-spectral basis while
    it solves: block J, the words of support exactly J (f(0) for J empty),
    is transformed with the (q-1)-ary transform on its own axes, and block J
    at frequency v is written as one word, digit 0 off J and v_i + 1 on J.
    There M is diagonal, with the exact nondegeneracy sums[l] on the
    frequencies of weight l (the count of digits >= 2); the solver divides
    by them and refuses a layer whose sum vanishes.  And Psi is a lift: a
    word x of the face on I with support J lies at distance
    (k - |J|) + dist_J(a, x) from a full-support word a of I, so Psi on I
    sums, over J ⊊ I, the (q-1)-ary distance operators of block J weighed
    by column entries shifted by k - |J| and spread over the rest of I.  A
    block at frequency v thus reaches every block I ⊋ J at the same v times
    the exact integer ``coeffs.lift_multipliers`` W[|J|][l]: per axis,
    digit 0 added into digit 1, as in Yates's algorithm.

    It solves a layer as one batched problem, since M is the same for all
    C(n, k) supports: Phi is one gather and one (q-1)-ary transform, Psi
    the lift of the gathered faces.  The stack is cut into chunks of at
    most ``_CHUNK_WORDS`` complex words, buffers and gather axes included,
    so peak memory does not grow with C(n, k).  After the last layer one
    inverse transform per chunk returns blocks to values.

    When the supports of the layers below d hold at least as many face
    words as the q^n tensor, sum_{k<d} C(n, k) q^k >= q^n (inside the
    default state cap only for q <= 6), the ball is instead cut from the
    whole-tensor solve of the second algorithm below, run at radius d: no
    layer is solved there.  At small d the layer driver, which reads only
    the ball, is 10 to 100 times faster.

2.  Sphere to everything.  Write f = sum_{a in W_h} g(a) chi_a.  On the
    weight-d sphere that is s = T_d g, T_d[x, a] = chi_a(x) over x in W_d
    and a in W_h; at d = h, T = T_h is square and g = T^-1 s.  In the
    support-spectral basis T_d keeps each pattern of t digits >= 2
    (nonzero (q-1)-ary frequencies) and is C^(x)t (x) E_t there: C, on the
    digits >= 2 of one axis, is unitary up to q^(1/2), and E_t maps the
    (h-t)-subsets of the other n - t axes to their (d-t)-subsets, with
    E_t^T E_t in the algebra of the binary Johnson scheme J(n - t, h - t).
    At d = h, E_t has eigenvalue epsilon(t, j) = (-1)^j q^j s on its
    eigenspace V_j, s the nondegeneracy sum
    ``eigen_sums(q, n, h, h, t + j)[t]`` (P_h(h; n) at t = j = 0), so T
    is invertible exactly when the layer conditions hold.  For every d the
    min-norm pseudo-inverse E_t^+ (E_t^-1 at d = h) is a short sum of
    inclusion products sum_i c[t][i] W_i with exact coefficients
    (``coeffs.restriction_inverse_coefficients``), applied as per-axis
    digit 0 += digit 1, a multiply, and the lift's digit 1 += digit 0.
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
    check_conditions,
    eigen_sums,
    lift_multipliers,
    restriction_inverse_coefficients,
)
from .krawtchouk import krawtchouk_value
from .scheme import (
    SchemeParams,
    check_positions,
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

    Psi holds the q^k face, its weights and its lift; Phi holds a value and
    an index for each of the C(n-k, d-k) (q-1)^d words it sums.
    """
    psi = 4 * q**k
    phi = 2 * math.comb(n - k, d - k) * (q - 1) ** d
    return max(psi, phi)


def _block_transform(
    values: np.ndarray, q: int, n: int, supports: np.ndarray, sign: int
) -> None:
    """In place, the (q-1)-ary transform of each support's block with ``sign``.

    The block of a support is its words with every digit on the support
    nonzero; ``sign = +1`` carries the (q-1)^-k factor and inverts ``-1``.
    """
    k = supports.shape[1]
    ranks = (q ** (n - supports)) @ _sub_assignments(q, k).T
    out = axis_transform(values[ranks], q - 1, k, sign)
    values[ranks] = out if sign < 0 else out / (q - 1) ** k


def _layer_rhs(
    sphere: np.ndarray, xhat: np.ndarray, q: int, n: int, h: int, d: int, supports: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full-support ranks and Phi - Psi of layer k for a stack of supports, spectrally.

    ``sphere`` holds dense values; ``xhat`` holds the recovered blocks of
    size below k in the support-spectral basis (larger blocks are not read).
    The right-hand side comes in each support's (q-1)-ary basis, shape
    (m, (q-1)^k), columns ordered like ``_sub_assignments(q, k)``.
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

    psi = _face_psi(xhat, q, n, h, d, supports)
    return ranks_full, axis_transform(phi, q - 1, k, sign=-1) - psi


def _solve_layers(rhs: np.ndarray, q: int, n: int, h: int, d: int, k: int) -> np.ndarray:
    """Solve M x = rhs for each row of ``rhs``, both in the (q-1)-ary basis.

    The operator is a combination of sub-scheme distance matrices, hence
    diagonal in that basis with eigenvalue sums[l] on the weight-l
    component; division by those exact sums inverts it.  Refuses (rather
    than pseudo-inverts) when a sum vanishes.
    """
    sums = eigen_sums(q, n, h, d, k)
    zeros = [l for l, s in enumerate(sums) if s == 0]
    if zeros:
        raise ConditionError(
            f"layer k={k} is singular: nondegeneracy sum vanishes at levels {zeros}",
            report=check_conditions(q, n, h, d),
        )
    return rhs / np.array([float(s) for s in sums])[weight_table(q - 1, k)]


# ---------------------------------------------------------------------------
# one support set: the batched kernel on a stack of one


def layer_rhs(sphere: SphereData, partial: VertexFunction, positions, h: int) -> LayerSystem:
    """Right-hand side Phi - Psi of the weight-k system on one support set.

    Phi(a) sums the sphere values over the orthogonal face at distance
    d-k from a; every word it touches has total weight exactly d (the k
    nonzero digits of a plus d-k fresh nonzero digits off its support),
    so Phi is readable from the sphere alone.  Psi(a) combines the
    already-reconstructed values of weight < k inside the q-ary k-face
    through the same coefficient column, applied as the lift of the
    module docstring: the blocks of the face below k are transformed, and
    the right-hand side is transformed back, so both sides of the call are
    values.  Values of weight >= k in ``partial`` are ignored.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    pos = check_positions(positions, n)
    k = len(pos)
    if not 1 <= k <= d:
        raise ValueError(f"support size {k} outside [1, d={d}]")
    xhat = np.where(weight_table(q, n) < k, partial.values, 0)
    for j in range(1, k):
        _block_transform(xhat, q, n, np.array(pos)[_supports(k, j) - 1], sign=-1)
    _, rhs = _layer_rhs(sphere.values, xhat, q, n, h, d, np.array([pos], dtype=np.int64))
    rhs = axis_transform(rhs[0], q - 1, k, sign=+1) / (q - 1) ** k
    return LayerSystem(positions=pos, rhs=rhs)


def solve_layer(system: LayerSystem, q: int, n: int, h: int, d: int) -> np.ndarray:
    """Invert the layer operator on one support set and store the solution.

    Refuses with :class:`ConditionError` when a nondegeneracy sum vanishes.
    """
    k = len(system.positions)
    spectrum = _solve_layers(axis_transform(system.rhs, q - 1, k, sign=-1), q, n, h, d, k)
    solution = axis_transform(spectrum, q - 1, k, sign=+1) / (q - 1) ** k
    system.solution = solution
    return solution


# ---------------------------------------------------------------------------
# whole-sphere drivers


def _tensor_path(q: int, n: int, d: int) -> bool:
    """Whether to cut the ball from the whole-tensor solve instead of solving layers.

    True when the supports of layers 1..d-1 hold, face by face, at least
    as many words as the q^n tensor: sum_{k<d} C(n, k) q^k >= q^n.  Just
    below the rule the two routes are about even (warm, best of 30, one
    BLAS thread on a 2-core Xeon VM): at (4,8,6,5) 3.1 ms by layers
    against 3.0 ms on the tensor, at (3,10,10,5) 2.0-2.2 ms against
    2.7-2.9 ms.  On the tensor cells (3,10,10,8), (4,8,8,6) and (3,10,8,6)
    the tensor takes 3.0-3.3 ms; on the passing d <= 3 cells of (3,10) and
    (4,8) the layers take 0.03-0.4 ms and the tensor 2.6-3.8 ms.
    """
    return sum(math.comb(n, k) * q**k for k in range(d)) >= q**n


def _layers_by_support(sphere: SphereData, h: int, origin: complex) -> np.ndarray:
    """Ball values of weight < d, each layer in chunks of its C(n, k) supports."""
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    values = np.zeros(params.size, dtype=np.complex128)
    values[0] = origin
    for k in range(1, d):
        supports = _supports(n, k)
        for chunk in _chunks(len(supports), _layer_words(q, n, h, d, k)):
            ranks, rhs = _layer_rhs(sphere.values, values, q, n, h, d, supports[chunk])
            values[ranks] = _solve_layers(rhs, q, n, h, d, k)
    # every layer lifts the blocks below it, so they leave the spectral basis
    # last; a support holds its ranks, its values and two transform buffers
    for k in range(1, d):
        supports = _supports(n, k)
        for chunk in _chunks(len(supports), 5 * (q - 1) ** k):
            _block_transform(values, q, n, supports[chunk], sign=+1)
    return values


@lru_cache(maxsize=None)
def _support_codes(q: int, axes: int) -> np.ndarray:
    """j + (axes+1) l per word, j its nonzero digits and l its digits >= 2, by broadcasting.

    In the support-spectral basis j is the size of a word's block and l the
    weight of its (q-1)-ary frequency.
    """
    axis = np.array([0, 1] + [axes + 2] * (q - 2), dtype=np.int16)
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


@lru_cache(maxsize=None)
def _lift_table(q: int, n: int, h: int, d: int, k: int) -> np.ndarray:
    """:func:`coeffs.lift_multipliers` W[j][l] as floats at [l, j], zero for j = k."""
    table = np.zeros((k + 1, k + 1))
    for j, row in enumerate(lift_multipliers(q, n, h, d, k)):
        table[: j + 1, j] = [float(w) for w in row]
    table.setflags(write=False)
    return table


def _lift(faces: np.ndarray, q: int, n: int, h: int, d: int, k: int) -> np.ndarray:
    """Psi of layer k in the support-spectral basis on a stack of k-faces.

    ``faces`` holds the recovered blocks of size below k, transformed.
    Each block is weighed by :func:`coeffs.lift_multipliers` and added into
    every block that contains it at the same frequency, which is digit 0
    added into digit 1 on each axis.  Blocks of size k are not read; Psi is
    read at the full-support words.
    """
    psi = faces * _lift_table(q, n, h, d, k).reshape(-1)[_support_codes(q, k)]
    _add_up_blocks(psi, q, k)
    return psi


def _face_psi(
    xhat: np.ndarray, q: int, n: int, h: int, d: int, supports: np.ndarray
) -> np.ndarray:
    """Psi of layer k for a stack of supports, from the lift of their k-faces.

    Gathers each support's q-ary k-face out of ``xhat`` (the blocks below k
    in the support-spectral basis), lifts the stack and reads it at the
    full-support words: shape (m, (q-1)^k), columns ordered like
    ``_sub_assignments(q, k)``.
    """
    k = supports.shape[1]
    faces = xhat[(q ** (n - supports)) @ digits_table(q, k).T]
    return _lift(faces, q, n, h, d, k)[:, weight_ranks(q, k, k)]


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
    _block_transform(g, q, n, _supports(n, d), sign=-1)
    _add_down_blocks(g, q, n)
    table = np.zeros((n + 1, n + 1))
    for t, row in enumerate(restriction_inverse_coefficients(q, n, h, d)):
        table[t, t : d + 1] = [float(c) for c in row]
    g *= table.reshape(-1)[_support_codes(q, n)]
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

    Validates the exact nondegeneracy conditions up front.  When
    :func:`_tensor_path` holds, the whole function comes from the min-norm
    solve of the sphere restriction (:func:`_restriction_solve`) and is
    cut to the ball; otherwise weight layers k = 1..d-1 are filled
    bottom-up in chunks of supports.  The layer k = d is the input: its
    operator is the identity (the column is (1,)) and Psi vanishes on its
    full-support words, so the given sphere values are copied through
    verbatim.  Sphere data that no index-h eigenfunction restricts to is
    not detected here: on the tensor path the layers below d are those of
    the min-norm least-squares fit, on the per-support path those the layer
    solves give.  The ball comes back as an index-h :class:`VertexFunction`
    that is zero off B_d.
    """
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    _check_cell(q, n, h, d)
    if _tensor_path(q, n, d):
        values = _restriction_solve(sphere, h)
        values[weight_table(q, n) >= d] = 0
    else:
        values = _layers_by_support(sphere, h, reconstruct_origin(sphere, h))
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
