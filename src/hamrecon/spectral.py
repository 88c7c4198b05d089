"""Characters, Fourier analysis and eigenspace machinery on Z_q^n.

A vertex function is a dense complex vector indexed by word rank.  The
characters chi_b(g) = xi^<b,g> with xi = exp(2*pi*i/q) diagonalize all
distance matrices simultaneously; chi_b lies in the eigenspace V_h with
h = wt(b), so a function belongs to V_h exactly when its Fourier transform
vanishes off the weight-h sphere, and the eigenspace projector is a Fourier
mask.  The test suite checks it against the independent route through the
distance operators, q^-n sum_i P_h(i; n) D_i.

Conventions:
    forward   f^(a) = sum_b f(b) * conj(xi^<a,b>)
    inverse   f(g)  = q^-n sum_a f^(a) * xi^<a,g>

The transform is computed a few tensor axes at a time (:func:`axis_transform`).
Up to ``DENSE_MAX_Q`` each pass is one gemm with a dense kernel on a group of
g axes, g the largest with q^g <= 16 words, and the passes ping-pong between
two buffers per call.  Above it numpy's FFT takes over, where a q x q kernel
would cost O(q^2) memory (32 GiB at q = 65536).  It is batched over leading
axes, so the solvers transform a whole stack of faces in one call.  The
same grouped-gemm loop applies any per-axis kernel, which gives
:func:`support_transform`, the (q-1)-ary transform of every support block
of the tensor at once, :func:`superset_transform`, that transform after
the superset sums, and :func:`closing_transform`, the last pass of full
recovery.  In the support-spectral basis the inverse Fourier kernel of one
axis splits into the map (x_0, x_1) -> (x_0 + x_1, (q-1) x_0 - x_1) on
digits 0 and 1 and a block C on digits 2..q-1 with C C* = q I, so the
square sphere restriction splits into Johnson-scheme blocks times
Kronecker powers of C.  C cancels against its own inverse, and the
closing pass applies only the 2 x 2 block and the inverse support
transform.  Above ``DENSE_MAX_Q`` that pass is two strided lines and
numpy's inverse FFT over digits 1..q-1, axis by axis, so no q x q kernel
is built at any q.

Combinatorial coefficients are always exact integers and are converted to
floats only at the point where they multiply complex data.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .krawtchouk import krawtchouk_value
from .scheme import (
    SchemeParams,
    check_word,
    digits_table,
    rank_texts,
    text_ranks,
    weight,
    weight_table,
    word_rank,
)


@dataclass
class VertexFunction:
    """Dense complex-valued function on the vertices, indexed by word rank.

    ``eigenindex`` is advisory metadata: producers set it when the values
    are (numerically) an eigenfunction of the graph with that index.
    """

    params: SchemeParams
    values: np.ndarray
    eigenindex: int | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.params.size,):
            raise ValueError(f"values must have shape ({self.params.size},), got {v.shape}")
        self.values = v

    def copy(self) -> "VertexFunction":
        return VertexFunction(self.params, self.values.copy(), self.eigenindex)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __call__(self, word) -> complex:
        return complex(self.values[word_rank(self.params, word)])


# ---------------------------------------------------------------------------
# characters and transforms


def character(params: SchemeParams, beta) -> VertexFunction:
    """chi_beta(g) = xi^<beta,g>; an eigenfunction with index wt(beta)."""
    b = check_word(params, beta)
    digits = digits_table(params.q, params.n)
    ip = (digits @ np.asarray(b, dtype=np.int64)) % params.q
    powers = np.exp(2j * np.pi * np.arange(params.q) / params.q)
    return VertexFunction(params, powers[ip], eigenindex=weight(b))


# Largest alphabet transformed with a dense kernel; numpy's FFT takes over
# above it, where the FFT wins by 3x to 7x at q = 256.  The dense path is 1.5x
# faster than the FFT at q = 20 and within 20% of it at q = 24..32 (one BLAS
# thread), so the switch sits near the crossing.
DENSE_MAX_Q = 20

# The dense path contracts g axes at once, g the largest with q^g within this
# many words: quads at q = 2, pairs at q = 3, 4, single axes from q = 5.  16
# and 32 time the same; 81 and 256 are slower.
_GROUP_MAX_WORDS = 16


def _group_size(q: int) -> int:
    g = 1
    while q ** (g + 1) <= _GROUP_MAX_WORDS:
        g += 1
    return g


@lru_cache(maxsize=None)
def _group_kernel(q: int, g: int, kind: str, sign: int) -> np.ndarray:
    """K[b, a] over g-digit words b (in) and a (out), in rank order.

    ``"fourier"`` is xi^(sign <a,b>), read off a table of powers.
    ``"support"`` is the g-th Kronecker power of the axis kernel that keeps
    digit 0 and applies the (q-1)-ary one to digits 1..q-1 (digit j as
    j-1), divided by q-1 for ``sign = +1`` so that the two signs are
    inverse to each other; ``"superset"`` first replaces digit 0 by the
    line total, which sets column 0 of the axis kernel to ones.
    ``"closing"`` (``sign = +1``) is the Kronecker power of the axis map
    (x_0, x_1) -> (x_0 + x_1, (q-1) x_0 - x_1), digits 2..q-1 kept,
    followed by the ``"support"`` axis kernel.
    """
    if kind == "fourier":
        words = digits_table(q, g)
        kernel = np.exp(sign * 2j * np.pi * np.arange(q) / q)[(words @ words.T) % q]
    else:
        axis = np.zeros((q, q), dtype=np.complex128)
        axis[0, 0] = 1
        if kind == "superset":
            axis[1:, 0] = 1
        axis[1:, 1:] = _group_kernel(q - 1, 1, "fourier", sign) / ((q - 1) if sign > 0 else 1)
        if kind == "closing":
            pair = np.eye(q, dtype=np.complex128)
            pair[:2, :2] = [[1, q - 1], [1, -1]]
            axis = pair @ axis
        kernel = reduce(np.kron, [axis] * g)
    kernel.setflags(write=False)
    return kernel


def _dense_transform(values: np.ndarray, q: int, n: int, kind: str, sign: int) -> np.ndarray:
    """Apply the kernel of ``kind`` (:func:`_group_kernel`) to every word axis, a group per gemm.

    Each step multiplies the last g word axes by the group kernel and moves
    the contracted group to the front of the word axes, so after the last
    group the axes are back in rank order.  The steps ping-pong between two
    buffers the size of ``values``.
    """
    group = _group_size(q)
    sizes = [min(group, n - done) for done in range(0, n, group)]
    product, rotated = (np.empty(values.size, dtype=np.complex128) for _ in range(2))
    rows = values.size // q**n
    src = values
    for g in sizes:
        kernel = _group_kernel(q, g, kind, sign)
        rest = q ** (n - g)
        np.matmul(src.reshape(-1, q**g), kernel, out=product.reshape(-1, q**g))
        np.copyto(
            rotated.reshape(rows, q**g, rest),
            product.reshape(rows, rest, q**g).transpose(0, 2, 1),
        )
        src = rotated
    return src.reshape(values.shape)


def axis_transform(values: np.ndarray, q: int, n: int, sign: int) -> np.ndarray:
    """out[..., a] = sum_b values[..., b] xi^(sign <a,b>) over the last axis.

    The last axis holds the q^n values of a function on Z_q^n, indexed by
    word rank; leading axes are a batch, each transformed on its own.
    ``sign = -1`` is the forward transform, ``+1`` the inverse without its
    q^-n factor.
    """
    if q <= DENSE_MAX_Q:
        return _dense_transform(values, q, n, "fourier", sign)
    t = values.reshape(values.shape[:-1] + (q,) * n)
    axes = tuple(range(t.ndim - n, t.ndim))
    if sign < 0:
        t = np.fft.fftn(t, axes=axes)
    else:
        t = np.fft.ifftn(t, axes=axes, norm="forward")
    return t.reshape(values.shape)


def support_transform(values: np.ndarray, q: int, n: int, sign: int) -> np.ndarray:
    """The support-spectral transform: each support block transformed on its own.

    Per axis, digit 0 is kept and digits 1..q-1 (as 0..q-2) go through the
    (q-1)-ary transform with ``sign``, so the words of support exactly J
    are mapped among themselves by the (q-1)-ary transform on the axes of
    J.  ``sign = +1`` carries the (q-1)^-|J| factor and inverts ``-1``.
    Dense kernels only: the recovery selects it only for q <= DENSE_MAX_Q.
    """
    return _dense_transform(values, q, n, "support", sign)


def superset_transform(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """Forward :func:`support_transform` of the superset sums of ``values``.

    The superset sums at a word total the values over the words that agree
    with it on its support (per axis, digit 0 becomes the line total).  That
    step folds into the transform's axis kernel, so it costs nothing extra.
    """
    return _dense_transform(values, q, n, "superset", -1)


def closing_transform(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """Values from the solved coefficients of full recovery, in one pass.

    Per axis (x_0, x_1) -> (x_0 + x_1, (q-1) x_0 - x_1), digits 2..q-1
    kept, then the inverse support transform (``sign = +1``).  In the
    support-spectral basis the inverse Fourier kernel of one axis is that
    2 x 2 block plus a block C on digits 2..q-1: given y with C applied to
    digits 2..q-1 of every axis, this pass returns
    ``axis_transform(support_transform(y, q, n, +1), q, n, +1)``.  Up to
    ``DENSE_MAX_Q`` one grouped-gemm pass with the fused axis kernel;
    above it, axis by axis, the two strided lines and numpy's inverse FFT
    over digits 1..q-1, so no q x q kernel is built.
    """
    if q <= DENSE_MAX_Q:
        return _dense_transform(values, q, n, "closing", +1)
    out = values.astype(np.complex128)
    words = out.reshape(out.shape[:-1] + (q,) * n)
    for axis in range(words.ndim - n, words.ndim):
        head = (slice(None),) * axis
        nonzero = head + (slice(1, None),)
        x0, x1 = words[head + (0,)].copy(), words[head + (1,)].copy()
        words[head + (0,)] = x0 + x1
        words[head + (1,)] = (q - 1) * x0 - x1
        words[nonzero] = np.fft.ifft(words[nonzero], axis=axis)
    return out


def fourier_transform(f: VertexFunction) -> VertexFunction:
    """f^(a) = sum_b f(b) conj(xi^<a,b>)."""
    out = axis_transform(f.values, f.params.q, f.params.n, sign=-1)
    return VertexFunction(f.params, out)


def inverse_fourier(g: VertexFunction) -> VertexFunction:
    """f(c) = q^-n sum_a g(a) xi^<a,c>; inverse of :func:`fourier_transform`."""
    out = axis_transform(g.values, g.params.q, g.params.n, sign=+1)
    return VertexFunction(g.params, out / g.params.size)


# ---------------------------------------------------------------------------
# distance operators


def _neighbor_axis_sum(t: np.ndarray, axis: int) -> np.ndarray:
    # sum of f over words whose digit at `axis` differs: the line total minus the word itself
    return t.sum(axis=axis, keepdims=True) - t


def distance_tensor_stack(values: np.ndarray, q: int, n: int, up_to: int) -> list[np.ndarray]:
    """[D_0 f, ..., D_up_to f] as tensors, via the subset-sum recurrence.

    Processing axes one at a time and keeping the elementary symmetric
    combinations of the per-axis neighbor sums enumerates every sphere
    exactly once without ever materializing a q^n x q^n matrix.  Works
    for any alphabet size q >= 2 (the sub-scheme solvers use q - 1).
    The last axis of ``values`` holds the q^n word values; leading axes
    are a batch, so each tensor has shape ``values.shape[:-1] + (q,) * n``.
    """
    values = np.asarray(values, dtype=np.complex128)
    t = values.reshape(values.shape[:-1] + (q,) * n)
    acc: list = [t] + [None] * up_to
    for done, axis in enumerate(range(t.ndim - n, t.ndim)):
        for m in range(min(up_to, done + 1), 0, -1):
            contrib = _neighbor_axis_sum(acc[m - 1], axis)
            acc[m] = contrib if acc[m] is None else acc[m] + contrib
    return [a if a is not None else np.zeros_like(t) for a in acc]


def apply_distance_operator(f: VertexFunction, i: int) -> VertexFunction:
    """(D_i f)(a) = sum of f over the radius-i sphere around a."""
    if not 0 <= i <= f.params.n:
        raise ValueError(f"distance index {i} outside [0, {f.params.n}]")
    t = distance_tensor_stack(f.values, f.params.q, f.params.n, i)[i]
    return VertexFunction(f.params, t.reshape(-1))


def eigen_residual(f: VertexFunction, h: int) -> float:
    """max_a |sum_{b in W_1(a)} f(b) - lambda_h f(a)|."""
    # D_1 is the adjacency matrix, so lambda_h is its eigenvalue P_1(h; n)
    lam = krawtchouk_value(f.params.q, 1, h, f.params.n)
    d1 = apply_distance_operator(f, 1)
    return float(np.max(np.abs(d1.values - lam * f.values)))


# ---------------------------------------------------------------------------
# eigenspace projection


def project_eigenspace(f: VertexFunction, h: int) -> VertexFunction:
    """Orthogonal projection onto the eigenspace V_h.

    Zeroes the Fourier transform off the weight-h sphere and inverts it.
    """
    params = f.params
    if not 0 <= h <= params.n:
        raise ValueError(f"eigenindex {h} outside [0, {params.n}]")
    ghat = fourier_transform(f).values
    ghat[weight_table(params.q, params.n) != h] = 0
    out = inverse_fourier(VertexFunction(params, ghat)).values
    return VertexFunction(params, out, eigenindex=h)


# Draws before random_eigenfunction gives up on a vanishing projection.
_MAX_DRAWS = 8


def random_eigenfunction(params: SchemeParams, h: int, seed: int) -> VertexFunction:
    """Seeded random element of V_h, rescaled to max modulus 1.

    Projects a uniform random complex vector onto the eigenspace;
    deterministic for a fixed seed.  Regenerates (from the same stream)
    in the measure-zero event that the projection vanishes.
    """
    if not 0 <= h <= params.n:
        raise ValueError(f"eigenindex {h} outside [0, {params.n}]")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        raw = rng.uniform(-1.0, 1.0, size=2 * params.size)
        f = VertexFunction(params, raw[: params.size] + 1j * raw[params.size :])
        proj = project_eigenspace(f, h)
        scale = proj.max_abs()
        if scale > 1e-12:
            return VertexFunction(params, proj.values / scale, eigenindex=h)
    raise RuntimeError(
        f"eigenspace projection degenerate after {_MAX_DRAWS} attempts (q={params.q},"
        f" n={params.n}, h={h}, seed={seed})"
    )


# ---------------------------------------------------------------------------
# JSON form
#
# {"d": 2, "eigenindex": 2, "n": 4, "q": 3, "values": [{"im": .., "re": .., "w": "0120"}, ...]}
#
# Words are base-q digit strings, most significant position first.  Entries
# come in ascending word rank and zero values are omitted: words absent from
# "values" carry the value 0.  A sphere or a recovered ball is zero off its
# region, so its file lists words of that region only.  Sphere and ball files
# carry their radius "d"; full functions omit it.  "eigenindex" is present
# when known.  Files are written by vertex_json_chunks, which formats the
# entries straight from the value array, _CHUNK_WORDS words at a time, so a
# write holds one chunk's text, not one object per word.  The bytes are those
# of json.dumps(payload, sort_keys=True, indent=1) plus a newline: keys
# sorted, one-space indent, stable for a fixed seed and flags.  Reading
# rejects header numbers that are not integers, malformed words, duplicate
# words, and values that are booleans or not finite.

# Words per piece of file text: about 0.3 MB of text, so a write holds
# little, and few enough pieces that the per-piece numpy calls do not show.
_CHUNK_WORDS = 4096

_ENTRY = '  {\n   "im": %s,\n   "re": %s,\n   "w": "%s"\n  }'


def _float_texts(xs: np.ndarray) -> list[str]:
    # float.__repr__ is how json spells a finite float; NaN and the
    # infinities take json's own spellings
    texts = list(map(float.__repr__, xs.tolist()))
    for i in np.flatnonzero(~np.isfinite(xs)):
        texts[i] = json.dumps(float(xs[i]))
    return texts


def values_to_entries(params: SchemeParams, values: np.ndarray, ranks: np.ndarray) -> list[str]:
    """File text of the entries of the words at ``ranks``, one string per word."""
    picked = values[ranks]
    rows = zip(_float_texts(picked.imag), _float_texts(picked.real), rank_texts(params, ranks))
    return [_ENTRY % row for row in rows]


def vertex_json_chunks(
    params: SchemeParams, values: np.ndarray, eigenindex: int | None, d: int | None = None
) -> Iterator[str]:
    """File text of a vertex function, or of sphere/ball data with radius ``d``, in pieces.

    The pieces joined equal ``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``
    for the payload that lists one ``{"w", "re", "im"}`` entry per nonzero
    value, in ascending word rank.
    """
    header: dict = {"q": params.q, "n": params.n}
    if d is not None:
        header["d"] = int(d)
    if eigenindex is not None:
        header["eigenindex"] = int(eigenindex)
    text = json.dumps({**header, "values": []}, sort_keys=True, indent=1) + "\n"
    ranks = np.flatnonzero((values.real != 0) | (values.imag != 0))
    if not ranks.size:
        yield text
        return
    # a newline cannot occur inside a JSON string, so this is the top-level key
    head, tail = text.split('\n "values": []', 1)
    yield head + '\n "values": [\n'
    for start in range(0, ranks.size, _CHUNK_WORDS):
        # looked up as a module global per chunk, so the span recorder's rebinding sees each call
        entries = values_to_entries(params, values, ranks[start : start + _CHUNK_WORDS])
        yield (",\n" if start else "") + ",\n".join(entries)
    yield "\n ]" + tail


def _entry_floats(entries, key: str, texts: list[str]) -> np.ndarray:
    raw = [entry[key] for entry in entries]
    # bool is a subclass of int, but true is no value
    kinds = list(map(type, raw))
    if bool in kinds:
        raise ValueError(f"boolean {key!r} for word {texts[kinds.index(bool)]!r}")
    return np.array(list(map(float, raw)), dtype=np.float64)


def entries_to_values(params: SchemeParams, entries) -> np.ndarray:
    """Dense values from the JSON entries of a file written by :func:`vertex_json_chunks`.

    Raises KeyError or TypeError on a malformed entry, ValueError on a
    malformed or duplicate word and on a value that is a boolean or not
    finite.
    """
    values = np.zeros(params.size, dtype=np.complex128)
    texts = [entry["w"] for entry in entries]
    ranks = text_ranks(params, texts)
    counts = np.bincount(ranks, minlength=params.size)
    repeated = counts[ranks] > 1
    if repeated.any():
        raise ValueError(f"duplicate word {texts[int(np.argmax(repeated))]!r}")
    re = _entry_floats(entries, "re", texts)
    im = _entry_floats(entries, "im", texts)
    finite = np.isfinite(re) & np.isfinite(im)
    if not finite.all():
        raise ValueError(f"non-finite value for word {texts[int(np.argmin(finite))]!r}")
    values.real[ranks] = re
    values.imag[ranks] = im
    return values


def _header_int(key: str, value) -> int | None:
    # bool is a subclass of int, but true is no count
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"header field {key!r} must be an integer, got {value!r}")
    return value


def read_vertex_dict(data: dict) -> tuple[SchemeParams, np.ndarray, int | None, int | None]:
    """Parameters, dense values, eigenindex and radius ``d`` of a JSON payload.

    An absent eigenindex or radius reads as None.  A header number that is
    not an integer (a float such as 2.9, or a bool) raises ValueError.
    """
    params = SchemeParams(_header_int("q", data["q"]), _header_int("n", data["n"]))
    values = entries_to_values(params, data.get("values", []))
    eigenindex = _header_int("eigenindex", data.get("eigenindex"))
    return params, values, eigenindex, _header_int("d", data.get("d"))


def function_from_dict(data: dict) -> VertexFunction:
    params, values, eigenindex, _ = read_vertex_dict(data)
    return VertexFunction(params, values, eigenindex)
