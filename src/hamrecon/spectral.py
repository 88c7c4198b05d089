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
axes, so the solvers transform a whole stack of faces in one call, and
:func:`full_support_transform` evaluates it at the full-support words alone.

Combinatorial coefficients are always exact integers and are converted to
floats only at the point where they multiply complex data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .krawtchouk import krawtchouk_value
from .scheme import (
    SchemeParams,
    check_word,
    digits_table,
    rank_texts,
    text_ranks,
    weight,
    weight_ranks,
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
def _group_kernel(q: int, g: int, sign: int, full_support: bool) -> np.ndarray:
    """K[b, a] = xi^(sign <a,b>) over g-digit words b and a, read off a table of powers.

    With ``full_support`` the columns a are only the words whose digits are
    all nonzero, in rank order.
    """
    words = digits_table(q, g)
    cols = words[np.all(words != 0, axis=1)] if full_support else words
    powers = np.exp(sign * 2j * np.pi * np.arange(q) / q)
    kernel = powers[(words @ cols.T) % q]
    kernel.setflags(write=False)
    return kernel


def _dense_transform(values: np.ndarray, q: int, n: int, sign: int, full_support: bool):
    """The character sums of :func:`axis_transform`, one axis group per gemm.

    Each step multiplies the last g word axes by the group kernel and moves
    the contracted group to the front of the word axes, so after the last
    group the axes are back in rank order.  The steps ping-pong between two
    buffers sized for the first, largest step.
    """
    out_q = q - 1 if full_support else q
    group = _group_size(q)
    sizes = [min(group, n - done) for done in range(0, n, group)]
    rows = values.size // q**n
    first = rows * q ** (n - sizes[0]) * out_q ** sizes[0]
    buffers = np.empty(first, dtype=np.complex128), np.empty(first, dtype=np.complex128)
    src, left, done = values, n, 0
    for g in sizes:
        left -= g
        kernel = _group_kernel(q, g, sign, full_support)
        rest = out_q**done * q**left
        wide = rows * rest * out_q**g
        product, rotated = buffers[0][:wide], buffers[1][:wide]
        np.matmul(src.reshape(-1, q**g), kernel, out=product.reshape(-1, out_q**g))
        np.copyto(
            rotated.reshape(rows, out_q**g, rest),
            product.reshape(rows, rest, out_q**g).transpose(0, 2, 1),
        )
        src, done = rotated, done + g
    return src.reshape(values.shape[:-1] + (out_q**n,))


def axis_transform(values: np.ndarray, q: int, n: int, sign: int) -> np.ndarray:
    """out[..., a] = sum_b values[..., b] xi^(sign <a,b>) over the last axis.

    The last axis holds the q^n values of a function on Z_q^n, indexed by
    word rank; leading axes are a batch, each transformed on its own.
    ``sign = -1`` is the forward transform, ``+1`` the inverse without its
    q^-n factor.
    """
    if q <= DENSE_MAX_Q:
        return _dense_transform(values, q, n, sign, full_support=False)
    t = values.reshape(values.shape[:-1] + (q,) * n)
    axes = tuple(range(t.ndim - n, t.ndim))
    if sign < 0:
        t = np.fft.fftn(t, axes=axes)
    else:
        t = np.fft.ifftn(t, axes=axes, norm="forward")
    return t.reshape(values.shape)


def full_support_transform(values: np.ndarray, q: int, n: int, sign: int) -> np.ndarray:
    """:func:`axis_transform` read only at the (q-1)^n full-support words, in rank order.

    The dense path contracts each axis group with the kernel's nonzero-digit
    columns alone, so the tensor shrinks at every step; the FFT path
    transforms in full and picks the words out.
    """
    if q <= DENSE_MAX_Q:
        return _dense_transform(values, q, n, sign, full_support=True)
    return axis_transform(values, q, n, sign)[..., weight_ranks(q, n, n)]


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
# when known.  Files are written by dumps_vertex_json: keys sorted, one-space
# indent, the same bytes as json.dumps(payload, sort_keys=True, indent=1) plus
# a newline, so they are stable for a fixed seed and flags.  Reading rejects
# header numbers that are not integers, malformed words, duplicate words and
# non-finite values.


def values_to_entries(params: SchemeParams, values: np.ndarray) -> list[dict]:
    """JSON entries of the nonzero values, in ascending word rank."""
    values = np.asarray(values)
    ranks = np.flatnonzero((values.real != 0) | (values.imag != 0))
    picked = values[ranks]
    texts = rank_texts(params, ranks)
    return [
        {"w": w, "re": re, "im": im}
        for w, re, im in zip(texts, picked.real.tolist(), picked.imag.tolist())
    ]


def entries_to_values(params: SchemeParams, entries) -> np.ndarray:
    """Dense values from JSON entries; inverse of :func:`values_to_entries`.

    Raises KeyError or TypeError on a malformed entry, ValueError on a
    malformed or duplicate word and on a value that is not finite.
    """
    values = np.zeros(params.size, dtype=np.complex128)
    texts = [entry["w"] for entry in entries]
    ranks = text_ranks(params, texts)
    counts = np.bincount(ranks, minlength=params.size)
    repeated = counts[ranks] > 1
    if repeated.any():
        raise ValueError(f"duplicate word {texts[int(np.argmax(repeated))]!r}")
    re = np.array([float(entry["re"]) for entry in entries], dtype=np.float64)
    im = np.array([float(entry["im"]) for entry in entries], dtype=np.float64)
    finite = np.isfinite(re) & np.isfinite(im)
    if not finite.all():
        raise ValueError(f"non-finite value for word {texts[int(np.argmin(finite))]!r}")
    values.real[ranks] = re
    values.imag[ranks] = im
    return values


def vertex_dict(
    params: SchemeParams, values: np.ndarray, eigenindex: int | None, d: int | None = None
) -> dict:
    """The JSON payload of a vertex function, or of sphere/ball data with radius ``d``."""
    data: dict = {"q": params.q, "n": params.n}
    if d is not None:
        data["d"] = int(d)
    if eigenindex is not None:
        data["eigenindex"] = int(eigenindex)
    data["values"] = values_to_entries(params, values)
    return data


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


_ENTRY = '  {\n   "im": %s,\n   "re": %s,\n   "w": "%s"\n  }'


def _float_texts(xs: list[float]) -> list[str]:
    # float.__repr__ is how json spells a finite float; NaN and the
    # infinities take json's own spellings
    texts = list(map(float.__repr__, xs))
    for i in np.flatnonzero(~np.isfinite(xs)):
        texts[i] = json.dumps(xs[i])
    return texts


def dumps_vertex_json(payload: dict) -> str:
    """File text of a JSON payload, without the stdlib's pure-Python indenting encoder.

    The text equals ``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``
    when ``payload["values"]`` holds entries as made by :func:`values_to_entries`.
    """
    entries = payload.get("values")
    if not entries:
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"
    text = json.dumps({**payload, "values": []}, sort_keys=True, indent=1) + "\n"
    rows = zip(
        _float_texts([e["im"] for e in entries]),
        _float_texts([e["re"] for e in entries]),
        [e["w"] for e in entries],
    )
    body = ",\n".join([_ENTRY % row for row in rows])
    # a newline cannot occur inside a JSON string, so the top-level key is unique
    return text.replace('\n "values": []', '\n "values": [\n' + body + "\n ]", 1)


def function_to_dict(f: VertexFunction) -> dict:
    return vertex_dict(f.params, f.values, f.eigenindex)


def function_from_dict(data: dict) -> VertexFunction:
    params, values, eigenindex, _ = read_vertex_dict(data)
    return VertexFunction(params, values, eigenindex)
