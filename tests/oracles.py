"""Brute-force references for the test suite; none of this is ``hamrecon`` API.

Tuple-level references walk words one at a time, the way the paper
defines the regions: the sphere, face and full-support enumerators, the
Hamming distance, the weight and support of a word, the value of a
local enumerator, and the totals of a full function over orthogonal
faces by direct summation.  The layer operator M and the eigenspace
projector (the scheme idempotent q^-n sum_i P_h(i; n) D_i) are applied
through the distance stack, never through their Fourier diagonals.

Per-support references redo the batched recovery drivers the way the
paper states the algorithm: each weight layer one support set at a
time, and the closing step of full recovery one face at a time.  The
code shares no batching, chunking or transform routine with
``hamrecon.recon``: Phi is gathered subset by subset, Psi is one
distance-stack pass per face, the layer solve builds its own dense
q x q kernel, and the Fourier coefficients come from the eta sums
themselves (``eta_face_values``), not from their diagonal form.  The
paper's closing route (``per_support_full``) stays here as a reference for
the package's full recovery, which divides by the spectrum of the square
sphere restriction T = [chi_a(x)] instead.  Two more references build T
and its Gram matrix T*T densely and solve them with ``np.linalg.solve``
(``dense_restriction_full``, ``dense_gram_full``).

The JSON payload of a vertex function is built one word at a time as a
dict, and its file text comes from the stdlib's ``json.dumps``: the
reference the package's streaming writer must match byte for byte.
"""

import itertools
import json

import numpy as np

import hamrecon as hr
from hamrecon.coeffs import layer_column
from hamrecon.scheme import (
    check_positions,
    check_word,
    digits_table,
    position_weights,
    weight_ranks,
    weight_table,
)
from hamrecon.spectral import distance_tensor_stack


# ---------------------------------------------------------------------------
# words and regions, one tuple at a time


def hamming_distance(a, b):
    """Number of positions where the two words differ."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def weight_support(a):
    """(weight, 1-based support) of a word."""
    s = hr.support(a)
    return len(s), s


def sphere(params, center, radius):
    """Words at Hamming distance exactly ``radius`` from the center."""
    c = check_word(params, center)
    if not 0 <= radius <= params.n:
        raise ValueError(f"radius {radius} outside [0, {params.n}]")
    for pos_subset in itertools.combinations(range(params.n), radius):
        choices = [[x for x in range(params.q) if x != c[p]] for p in pos_subset]
        for vals in itertools.product(*choices):
            w = list(c)
            for p, v in zip(pos_subset, vals):
                w[p] = v
            yield tuple(w)


def face(params, positions, anchor):
    """The subcube of words agreeing with ``anchor`` outside ``positions``."""
    a = check_word(params, anchor)
    pos = check_positions(positions, params.n)
    for vals in itertools.product(range(params.q), repeat=len(pos)):
        w = list(a)
        for p, v in zip(pos, vals):
            w[p - 1] = v
        yield tuple(w)


def full_support(params, positions):
    """Words whose support is exactly ``positions``, in lexicographic order."""
    pos = check_positions(positions, params.n)
    for vals in itertools.product(range(1, params.q), repeat=len(pos)):
        w = [0] * params.n
        for p, v in zip(pos, vals):
            w[p - 1] = v
        yield tuple(w)


def enumerator_eval(dist, x, y):
    """Value of the local enumerator sum_j v_j y^j x^(k-j) of a local distribution."""
    k = len(dist.face)
    return complex(sum(dist.components[j] * y**j * x ** (k - j) for j in range(k + 1)))


def orthogonal_face_totals(f, positions):
    """Totals of a full function over the orthogonal faces through the face on ``positions``.

    The sum over the axes off ``positions``; entry r belongs to the face
    word whose digits on ``positions`` spell r in base q.
    """
    q, n = f.params.q, f.params.n
    comp_axes = tuple(p - 1 for p in hr.complement(positions, n))
    return f.values.reshape((q,) * n).sum(axis=comp_axes).reshape(-1)


def _distance_combination(values, q, k, column):
    """sum_i column[i] D_i values on the q-ary k-cube, by one distance stack."""
    tensors = distance_tensor_stack(values, q, k, len(column) - 1)
    return sum(float(c) * t for c, t in zip(column, tensors)).reshape(np.shape(values))


def apply_layer_operator(q, n, h, d, k, vec):
    """M vec, M = sum_i r_{i,d-k} D_i on the (q-1)-ary k-cube (residual-check reference)."""
    return _distance_combination(vec, q - 1, k, layer_column(q, n, h, d, k))


def project_by_distance(f, h):
    """Projection onto V_h as q^-n sum_i P_h(i; n) D_i f: the scheme idempotent."""
    q, n = f.params.q, f.params.n
    column = [hr.krawtchouk_value(q, h, i, n) for i in range(n + 1)]
    return hr.VertexFunction(f.params, _distance_combination(f.values, q, n, column) / q**n, h)


# ---------------------------------------------------------------------------
# batched drivers, one support set at a time


def _dense_transform(values, q, n, sign):
    powers = np.exp(sign * 2j * np.pi * np.arange(q) / q)
    kernel = powers[np.outer(np.arange(q), np.arange(q)) % q]
    t = values.reshape((q,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(kernel, t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)


def _full_support_ranks(params, positions):
    k = len(positions)
    return (digits_table(params.q - 1, k) + 1) @ position_weights(params, positions)


def support_rhs(sphere, ball, positions, h):
    """Full-support ranks and Phi - Psi on one support set, Psi by a distance stack."""
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    k = len(positions)
    column = layer_column(q, n, h, d, k)
    ranks_full = _full_support_ranks(params, positions)
    comp = hr.complement(positions, n)
    if d == k:
        tau = np.zeros(1, dtype=np.int64)
    else:
        subsets = itertools.combinations(comp, d - k)
        tau = np.concatenate([_full_support_ranks(params, s) for s in subsets])
    phi = sphere.values[ranks_full[:, None] + tau[None, :]].sum(axis=1)
    face_values = ball[digits_table(q, k) @ position_weights(params, positions)]
    full_rows = weight_ranks(q, k, k)
    face_values[full_rows] = 0
    psi = _distance_combination(face_values, q, k, column)[full_rows]
    return ranks_full, phi - psi


def _support_solve(rhs, q, n, h, d, k):
    sums = hr.eigen_sums(q, n, h, d, k)
    sub_q = q - 1
    divisors = np.array([float(s) for s in sums])[weight_table(sub_q, k)]
    spectrum = _dense_transform(rhs, sub_q, k, -1) / divisors
    return _dense_transform(spectrum, sub_q, k, +1) / sub_q**k


def per_support_ball(sphere, h):
    """Radius-d ball values, one support set per solve; the sphere is copied through."""
    params = sphere.params
    q, n, d = params.q, params.n, sphere.d
    ball = np.zeros(params.size, dtype=np.complex128)
    ball[0] = hr.reconstruct_origin(sphere, h)
    for k in range(1, d + 1):
        for positions in itertools.combinations(range(1, n + 1), k):
            ranks, rhs = support_rhs(sphere, ball, positions, h)
            ball[ranks] = _support_solve(rhs, q, n, h, d, k) if k < d else sphere.values[ranks]
    return ball


def per_support_full(sphere, h):
    """The whole function (d = h), one h-face per Fourier block."""
    params = sphere.params
    q, n = params.q, params.n
    ball = hr.VertexFunction(params, per_support_ball(sphere, h), eigenindex=h)
    fhat = np.zeros(params.size, dtype=np.complex128)
    full_rows = weight_ranks(q, h, h)
    for positions in itertools.combinations(range(1, n + 1), h):
        ranks_face = digits_table(q, h) @ position_weights(params, positions)
        spectrum = _dense_transform(hr.eta_face_values(ball, positions), q, h, -1)
        fhat[ranks_face[full_rows]] = spectrum[full_rows]
    return _dense_transform(fhat, q, n, +1) / params.size


# ---------------------------------------------------------------------------
# full recovery as one dense linear system


def dense_gram(q, n, h):
    """G = [P_h(rho(a, b); n)] over a, b in W_h, in rank order, from the pairwise distances."""
    words = digits_table(q, n)[weight_ranks(q, n, h)]
    dist = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    column = np.array([hr.krawtchouk_value(q, h, i, n) for i in range(n + 1)], dtype=float)
    return column[dist]


def dense_gram_full(sphere, h):
    """f = sum_{a in W_h} g(a) chi_a with g = np.linalg.solve(G, T*s) (d = h).

    T[x, a] = chi_a(x) over x, a in W_h maps coefficients to the sphere, so
    T*s is the sphere's forward transform read at W_h.  Both transforms are
    this module's own per-axis tensordot.
    """
    params = sphere.params
    q, n = params.q, params.n
    ranks = weight_ranks(q, n, h)
    g = np.zeros(params.size, dtype=np.complex128)
    sphere_hat = _dense_transform(sphere.values, q, n, -1)
    g[ranks] = np.linalg.solve(dense_gram(q, n, h), sphere_hat[ranks])
    return _dense_transform(g, q, n, +1)


def dense_restriction(q, n, h):
    """T = [chi_a(x)] over x (rows) and a (columns) in W_h, in rank order."""
    words = digits_table(q, n)[weight_ranks(q, n, h)]
    return np.exp(2j * np.pi * ((words @ words.T) % q) / q)


def dense_restriction_full(sphere, h):
    """f = sum_{a in W_h} g(a) chi_a with g = np.linalg.solve(T, s) (d = h)."""
    params = sphere.params
    q, n = params.q, params.n
    ranks = weight_ranks(q, n, h)
    g = np.zeros(params.size, dtype=np.complex128)
    g[ranks] = np.linalg.solve(dense_restriction(q, n, h), sphere.values[ranks])
    return _dense_transform(g, q, n, +1)


# ---------------------------------------------------------------------------
# the JSON file form, one word at a time


def vertex_payload(params, values, eigenindex, d=None):
    """JSON payload of a vertex function: one entry per nonzero value, in rank order."""
    data = {"q": params.q, "n": params.n}
    if d is not None:
        data["d"] = d
    if eigenindex is not None:
        data["eigenindex"] = eigenindex
    data["values"] = [
        {"w": hr.word_text(hr.rank_word(params, rank)), "re": value.real, "im": value.imag}
        for rank, value in enumerate(values.tolist())
        if value != 0
    ]
    return data


def vertex_json_text(params, values, eigenindex, d=None):
    """File text of :func:`vertex_payload` as written by the stdlib encoder."""
    payload = vertex_payload(params, values, eigenindex, d)
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"
