"""Brute-force references for the test suite; none of this is ``hamrecon`` API.

Tuple-level references walk words one at a time, the way the paper
defines the regions: the sphere, face and full-support enumerators, the
Hamming distance, the weight and support of a word, the value of a
local enumerator, and the totals of a full function over orthogonal
faces by direct summation.  The layer operator M and the eigenspace
projector (the scheme idempotent q^-n sum_i P_h(i; n) D_i) are applied
through the distance stack, never through their Fourier diagonals, and
``dense_layer_matrix`` builds M as an integer matrix by distance
classes: the reference that the package's exact nondegeneracy sums are
checked against, with the certified singularity test of
``tests/rankcheck.py`` deciding its rank.

Per-support references redo recovery the way the paper states the
algorithm: each weight layer one support set at a time, where the
package composes the whole ball at once, and the closing step of full
recovery one face at a time.  The code shares no layout or transform
routine with ``hamrecon.recon``: Phi is gathered subset by subset, Psi is one
distance-stack pass per face, the layer solve builds its own dense
q x q kernel, and the Fourier coefficients come from the eta sums
themselves (``eta_face_values``), not from their diagonal form.  The
paper's closing route (``per_support_full``) stays here as a reference for
the package's full recovery, which divides by the spectrum of the square
sphere restriction T = [chi_a(x)] instead.  Two more references build T
and its Gram matrix T*T densely and solve them with ``np.linalg.solve``
(``dense_restriction_full``, ``dense_gram_full``); for a sphere of radius
d < h, T_d has rows W_d only, and ``dense_restriction_lstsq`` takes its
min-norm least-squares solution from ``np.linalg.lstsq``.  On one
pattern of digits >= 2, ``dense_pattern_block`` builds the block of T_d
between subsets of the other axes, and ``inclusion_sum`` the matrix of
a sum of inclusion products, the form the exact coefficients of
``hamrecon.coeffs`` take; ``gram_route_restriction_inverse`` derives the
coefficients of the restriction pseudo-inverse the long way, through the
spectrum of the Gram matrix T_d* T_d (``gram_eigenvalue``).  The
support-spectral transform (``support_transform``), in the real Hartley
frame recovery uses, is applied axis by axis with its own q x q kernel.

The JSON payload of a vertex function is built one word at a time as a
dict, and its file text comes from the stdlib's ``json.dumps``: the
reference the package's streaming writer must match byte for byte.
"""

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

import hamrecon as hr
from hamrecon.coeffs import _solve_exact
from hamrecon.krawtchouk import krawtchouk_series
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


# ---------------------------------------------------------------------------
# the layer operator and the scheme idempotent, by distance classes


@lru_cache(maxsize=None)
def layer_column(q: int, n: int, h: int, d: int, k: int) -> tuple[int, ...]:
    """r_{i,d-k} for i = 0..min(k, d-k): the layer operator M = sum_i r_{i,d-k} D_i.

    The k-face has components i = 0..k, and r_{ij} = 0 for i > j.  Only
    the oracles build M from its column; recovery reads M's eigenvalues
    from ``hamrecon.eigen_sums``.
    """
    return tuple(hr.coefficient(q, n, h, k, i, d - k) for i in range(min(k, d - k) + 1))


def dense_layer_matrix(q: int, n: int, h: int, d: int, k: int) -> np.ndarray:
    """M = sum_i r_{i,d-k} D_i on the (q-1)-ary k-cube, as an int64 matrix.

    Rows and columns are indexed by the relabeled full-support points in
    lexicographic order; entry (a, b) is r_{rho(a,b), d-k}.  Built by
    distance classification only, so it is independent of the eigenvalue
    bookkeeping that ``hamrecon.eigen_sums`` relies on.
    """
    if not 1 <= k <= d <= h:
        raise ValueError(f"need 1 <= k <= d <= h, got k={k}, d={d}, h={h}")
    column = layer_column(q, n, h, d, k)
    # distances past the end of the column carry weight zero
    padded = np.zeros(k + 1, dtype=np.int64)
    padded[: len(column)] = column
    pts = digits_table(q - 1, k)
    dist = (pts[:, None, :] != pts[None, :, :]).sum(axis=2)
    return padded[dist]


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


def support_transform(values, q, n, sign):
    """Each support block's (q-1)-ary Hartley transform with ``sign``, over the last axis.

    Per axis, digit 0 is kept and digits 1..q-1 (as 0..q-2) go through the
    real kernel cas(2 pi a b / (q-1)) = cos + sin, so the words of support
    exactly J are mapped among themselves; ``sign = +1`` carries the
    (q-1)^-|J| factor and inverts ``-1``.  Leading axes are a batch.
    """
    angles = 2 * np.pi * np.outer(np.arange(q - 1), np.arange(q - 1)) / (q - 1)
    kernel = np.zeros((q, q))
    kernel[0, 0] = 1
    kernel[1:, 1:] = np.cos(angles) + np.sin(angles)
    if sign > 0:
        kernel[1:, 1:] /= q - 1
    t = np.asarray(values, dtype=np.complex128).reshape(np.shape(values)[:-1] + (q,) * n)
    for axis in range(t.ndim - n, t.ndim):
        t = np.moveaxis(np.tensordot(kernel, t, axes=(1, axis)), 0, axis)
    return t.reshape(np.shape(values))


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


def dense_gram(q, n, h, d):
    """G = T_d* T_d = [P_d(rho(a, b); n)] over a, b in W_h, in rank order.

    Entry (a, b) sums chi_(b-a) over the weight-d sphere; built from the
    pairwise distances.
    """
    words = digits_table(q, n)[weight_ranks(q, n, h)]
    dist = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    column = np.array([hr.krawtchouk_value(q, d, i, n) for i in range(n + 1)], dtype=float)
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
    g[ranks] = np.linalg.solve(dense_gram(q, n, h, h), sphere_hat[ranks])
    return _dense_transform(g, q, n, +1)


def dense_restriction(q, n, h, d):
    """T_d = [chi_a(x)] over x in W_d (rows) and a in W_h (columns), in rank order."""
    words = digits_table(q, n)
    rows, columns = words[weight_ranks(q, n, d)], words[weight_ranks(q, n, h)]
    return np.exp(2j * np.pi * ((rows @ columns.T) % q) / q)


def dense_restriction_full(sphere, h):
    """f = sum_{a in W_h} g(a) chi_a with g = np.linalg.solve(T, s) (d = h)."""
    params = sphere.params
    q, n = params.q, params.n
    ranks = weight_ranks(q, n, h)
    g = np.zeros(params.size, dtype=np.complex128)
    g[ranks] = np.linalg.solve(dense_restriction(q, n, h, h), sphere.values[ranks])
    return _dense_transform(g, q, n, +1)


def dense_restriction_lstsq(spheres, h):
    """f = sum_{a in W_h} g(a) chi_a per sphere, g the min-norm least-squares fit of T_d g = s.

    The spheres share one cell; one ``np.linalg.lstsq`` call fits them all.
    """
    params, d = spheres[0].params, spheres[0].d
    q, n = params.q, params.n
    data = np.stack([sphere.values[sphere.domain_ranks()] for sphere in spheres], axis=1)
    fits = np.linalg.lstsq(dense_restriction(q, n, h, d), data, rcond=None)[0]
    functions = []
    for fit in fits.T:
        g = np.zeros(params.size, dtype=np.complex128)
        g[weight_ranks(q, n, h)] = fit
        functions.append(_dense_transform(g, q, n, +1))
    return functions


def dense_pattern_block(q, axes, m, p):
    """E with entry (-1)^x (q-1)^(p-x), x = |A & X|, from the m-sets A to the p-sets X.

    Over the subsets of ``axes`` axes, rows X and columns A in
    itertools.combinations order: the block of the sphere restriction T_p
    on one pattern of digits >= 2.  Returns (E, rows, columns).
    """
    rows = [set(x) for x in itertools.combinations(range(axes), p)]
    columns = [set(a) for a in itertools.combinations(range(axes), m)]
    sizes = np.array([[len(x & a) for a in columns] for x in rows]).reshape(len(rows), -1)
    return (-1.0) ** sizes * float(q - 1) ** (p - sizes), rows, columns


def inclusion_sum(coefficients, rows, columns):
    """The matrix sum_i coefficients[i] C(|R & S|, i) over row sets R and column sets S."""
    sizes = [[len(r & s) for s in columns] for r in rows]
    return np.array(
        [[float(sum(c * math.comb(z, i) for i, c in enumerate(coefficients))) for z in row]
         for row in sizes]
    ).reshape(len(rows), len(columns))


def gram_eigenvalue(q, n, h, d, t, j):
    """theta_d(t, j) = q^(t+2j) K(d-k; h-k, n-k-h+t) K(h-k; d-k, n-k-d+t), k = t + j.

    The eigenvalue of the Gram matrix T_d* T_d of the sphere restriction
    on the eigenspace of t digits >= 2 and Johnson index j, q^t times
    that of E_t^T E_t; 0 for k > d.  At d = h it is q^t epsilon(t, j)^2,
    epsilon(t, j) = (-1)^j q^j s with s the nondegeneracy sum
    ``eigen_sums(q, n, h, h, k)[t]``.
    """
    k = t + j
    return (
        q ** (t + 2 * j)
        * krawtchouk_series(q, d - k, h - k, n - k - h + t)
        * krawtchouk_series(q, h - k, d - k, n - k - d + t)
    )


def gram_route_restriction_inverse(q, n, h, d):
    """c[t][i] of ``coeffs.restriction_inverse_coefficients``, by way of the Gram matrix.

    The package reads E_t^+ off the eigenspace scalars of E_t alone.  This
    reference takes the longer route through E_t^T E_t, which lies in the
    Bose-Mesner algebra of the binary Johnson scheme J(N, m), N = n - t,
    m = h - t, p = d - t, with eigenvalue lambda_j = theta_d(t, j) / q^t
    (:func:`gram_eigenvalue`) on its eigenspace V_j, j = 0..J = min(m, n - h).
    The inclusion product C(|B & B'|, i) on m-sets has eigenvalue
    C(m-j, i-j) C(N-i-j, m-i) on V_j (0 when i < j), and the top ranks
    i = m-J..m span the algebra, so the pseudo-inverse
    (E_t^T E_t)^+ = sum_i psi_i C(|B & B'|, i) solves

        sum_i psi_i C(m-j, i-j) C(N-i-j, m-i) = 1 / lambda_j  (0 where lambda_j = 0).

    Composing it with E_t^T sums over the m-sets B, grouped by y = |A & B|:
    the part of B inside A and the part outside give the Krawtchouk values
    P_y(x; m) and P_(m-y)(p-x; N-m), so E_t^+ has the entry

        sum_y (E_t^T E_t)^+(y) P_y(x; m) P_(m-y)(p-x; N-m)

    at |A & X| = x.  The sizes x that occur run from max(0, p + m - N) to
    p, and over them C(x, i) is unit lower triangular, so the c[t][i]
    follow by substitution; the lower ranks get 0.
    """
    table = []
    for t in range(d + 1):
        N, m, p = n - t, h - t, d - t
        top = min(m, n - h)
        lam = [gram_eigenvalue(q, n, h, d, t, j) // q**t for j in range(top + 1)]
        ranks = range(m - top, m + 1)
        rows = [
            [math.comb(m - j, i - j) * math.comb(N - i - j, m - i) if i >= j else 0 for i in ranks]
            for j in range(top + 1)
        ]
        # the right-hand side 1/lambda, scaled to integers by the lcm of the nonzero ones;
        # every sum below is an integer over the one denominator det * scale
        scale = math.lcm(*filter(None, lam))
        psi, det = _solve_exact(rows, [scale // e if e else 0 for e in lam])
        # the entry of (E_t^T E_t)^+ at |B & B'| = y
        gram = [sum(c * math.comb(y, i) for i, c in zip(ranks, psi)) for y in range(m + 1)]
        low = max(0, p + m - N)
        c = []
        for x in range(low, p + 1):
            # P_y(x; m) and P_i(p-x; N-m) for every y and i
            inside = hr.generating_coefficients(q, x, m)
            outside = hr.generating_coefficients(q, p - x, N - m)
            sizes = range(max(0, 2 * m - N), m + 1)
            entry = sum(gram[y] * inside[y] * outside[m - y] for y in sizes)
            c.append(entry - sum(ci * math.comb(x, i) for i, ci in enumerate(c, low)))
        table.append((Fraction(0),) * low + tuple(Fraction(a, det * scale) for a in c))
    return tuple(table)


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
