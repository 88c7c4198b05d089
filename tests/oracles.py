"""Per-support references for the batched recovery drivers.

Each weight layer is solved one support set at a time, and the closing
step of full recovery runs one face at a time, the way the paper states
the algorithm.  The code shares no batching, chunking or transform
routine with ``hamrecon.recon``: Phi is gathered subset by subset, Psi is
one distance-stack pass per face, the layer solve builds its own dense
q x q kernel, and the Fourier coefficients come from the eta sums
themselves (``eta_face_values``), not from their diagonal form.
"""

import itertools

import numpy as np

import hamrecon as hr
from hamrecon.coeffs import layer_column
from hamrecon.scheme import digits_table, position_weights, weight_ranks, weight_table
from hamrecon.spectral import distance_tensor_stack


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
    face = ball[digits_table(q, k) @ position_weights(params, positions)]
    full_rows = weight_ranks(q, k, k)
    face[full_rows] = 0
    tensors = distance_tensor_stack(face, q, k, len(column) - 1)
    psi = sum(float(c) * t for c, t in zip(column, tensors)).reshape(-1)[full_rows]
    return ranks_full, phi - psi


def _support_solve(rhs, q, n, h, d, k):
    sums = hr.eigen_sums(q, n, h, d, k).sums
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
    ball = hr.BallData(params, h, per_support_ball(sphere, h), eigenindex=h)
    fhat = np.zeros(params.size, dtype=np.complex128)
    full_rows = weight_ranks(q, h, h)
    for positions in itertools.combinations(range(1, n + 1), h):
        ranks_face = digits_table(q, h) @ position_weights(params, positions)
        spectrum = _dense_transform(hr.eta_face_values(ball, positions), q, h, -1)
        fhat[ranks_face[full_rows]] = spectrum[full_rows]
    return _dense_transform(fhat, q, n, +1) / params.size
