import itertools
import math

import numpy as np
import pytest

import hamrecon as hr

from helpers import eigfn, params, tol_for
from oracles import enumerator_eval, face, full_support, hamming_distance, weight_support


def _brute_local(f, positions, anchor):
    v = np.zeros(len(positions) + 1, dtype=complex)
    for w in face(f.params, positions, anchor):
        v[hamming_distance(w, anchor)] += f.values[hr.word_rank(f.params, w)]
    return v


def test_local_distribution_matches_brute_force():
    f = eigfn(3, 4, 2)
    rng = np.random.default_rng(20)
    for _ in range(25):
        k = int(rng.integers(0, 5))
        positions = tuple(sorted(rng.choice(np.arange(1, 5), size=k, replace=False).tolist()))
        anchor = tuple(rng.integers(0, 3, 4))
        dist = hr.local_distribution(f, positions, anchor)
        assert np.max(np.abs(dist.components - _brute_local(f, positions, anchor))) < 1e-12


def test_local_distribution_of_constant_counts_spheres():
    p = params(3, 4)
    ones = hr.VertexFunction(p, np.ones(p.size))
    for k, positions in ((0, ()), (2, (1, 3)), (4, (1, 2, 3, 4))):
        v = hr.local_distribution(ones, positions, (0, 1, 2, 0)).components
        for j in range(k + 1):
            assert v[j] == math.comb(k, j) * 2**j


def test_local_distribution_edge_faces():
    f = eigfn(3, 4, 1)
    anchor = (2, 0, 1, 0)
    # empty face: the single component is the value at the anchor
    v = hr.local_distribution(f, (), anchor).components
    assert v.shape == (1,) and abs(v[0] - f(anchor)) < 1e-15
    # the whole cube: the weight distribution around the anchor
    v_full = hr.local_distribution(f, (1, 2, 3, 4), anchor).components
    for j in range(5):
        dj = hr.apply_distance_operator(f, j)
        assert abs(v_full[j] - dj(anchor)) < 1e-9


def test_enumerator_eval():
    f = eigfn(3, 4, 2)
    dist = hr.local_distribution(f, (1, 3), (0, 0, 0, 0))
    total = enumerator_eval(dist, 1, 1)
    assert abs(total - dist.components.sum()) < 1e-12
    assert abs(enumerator_eval(dist, 1, 0) - dist.components[0]) < 1e-12

    p = params(3, 3)
    ones = hr.VertexFunction(p, np.ones(p.size))
    d1 = hr.local_distribution(ones, (1, 2), (0, 0, 0)[:3])
    for x, y in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        assert abs(enumerator_eval(d1, x, y) - (x + 2 * y) ** 2) < 1e-9


def test_substituted_coefficients_against_sampling():
    f = eigfn(3, 4, 2, seed=3)
    q = 3
    for positions in ((1, 2), (2, 3, 4), (1,)):
        k = len(positions)
        dist = hr.local_distribution(f, positions, (1, 0, 2, 0))
        coeffs = hr.substituted_coefficients(dist)
        assert abs(coeffs[0] - dist.components[0]) < 1e-12
        for x, y in ((1, 1), (2, 1), (1, -1)):
            direct = enumerator_eval(dist, x + (q - 2) * y, -y)
            sampled = sum(coeffs[l] * y**l * x ** (k - l) for l in range(k + 1))
            assert abs(direct - sampled) <= 1e-9


def test_transfer_orthogonal_j0_and_regimes():
    f = eigfn(3, 4, 2)
    anchor = (0, 2, 1, 1)
    dist = hr.local_distribution(f, (1, 2), anchor)
    out = hr.transfer_orthogonal(dist, 2)
    assert out.face == (3, 4)
    assert abs(out.components[0] - f(anchor)) < 1e-9
    # a face with k > h has no transfer formula and is refused
    g = eigfn(3, 4, 1)
    with pytest.raises(hr.RegimeError):
        hr.transfer_orthogonal(hr.local_distribution(g, (1, 2), anchor), 1)


def test_transfer_matches_direct_enumeration():
    rng = np.random.default_rng(21)
    for q, n in ((3, 4), (4, 3), (5, 3)):
        for h in range(n + 1):
            for seed in (0, 1):
                f = eigfn(q, n, h, seed)
                for k in range(n + 1):
                    if k > h:  # no transfer formula
                        continue
                    for positions in itertools.combinations(range(1, n + 1), k):
                        anchor = tuple(rng.integers(0, q, n))
                        moved = hr.transfer_orthogonal(
                            hr.local_distribution(f, positions, anchor), h
                        )
                        direct = hr.local_distribution(f, hr.complement(positions, n), anchor)
                        assert np.max(np.abs(moved.components - direct.components)) <= 1e-9


def test_transfer_constant_function_counts():
    # h = 0 admits only k = 0; the transfer reproduces the sphere counts
    # of the whole cube
    p = params(3, 4)
    ones = hr.VertexFunction(p, np.ones(p.size))
    moved = hr.transfer_orthogonal(hr.local_distribution(ones, (), (0, 0, 0, 0)), 0)
    for j in range(5):
        assert abs(moved.components[j] - math.comb(4, j) * 2**j) < 1e-9


def test_verify_face_relation_eigenfunctions():
    rng = np.random.default_rng(22)
    for q, n in ((3, 4), (4, 3)):
        for h in range(n + 1):
            f = eigfn(q, n, h)
            for _ in range(20):
                k = int(rng.integers(0, n + 1))
                positions = tuple(
                    sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
                )
                anchor = tuple(rng.integers(0, q, n))
                assert hr.verify_face_relation(f, positions, anchor, h) <= tol_for(f)


def test_verify_face_relation_reduced_cases():
    # f constant (h = 0): a pure counting identity
    p = params(3, 4)
    ones = hr.VertexFunction(p, np.ones(p.size))
    assert hr.verify_face_relation(ones, (1, 2), (0, 0, 0, 0), 0) <= 1e-9
    # I empty: reduces to the weight-distribution identity of an eigenfunction
    f = eigfn(3, 4, 2)
    assert hr.verify_face_relation(f, (), (1, 0, 2, 0), 2) <= tol_for(f)


def test_verify_face_relation_negative_control():
    f = eigfn(3, 4, 2, seed=5)
    perturbed = f.copy()
    anchor = (1, 2, 0, 0)
    perturbed.values[hr.word_rank(f.params, anchor)] += 0.05
    residual = hr.verify_face_relation(perturbed, (1, 2), anchor, 2)
    assert residual > 1e-3


def test_sigma_delta_split():
    f = eigfn(3, 4, 2, seed=1)
    with pytest.raises(ValueError):
        hr.sigma_delta_split(f, (0, 0, 0, 0))
    for anchor in ((1, 2, 0, 0), (0, 2, 2, 1), (1, 1, 1, 1)):
        k, positions = weight_support(anchor)
        sigma, delta = hr.sigma_delta_split(f, anchor)
        assert sigma.shape == delta.shape == (k + 1,)
        # distance zero picks out the anchor itself, a full-weight word
        assert abs(sigma[0] - f(anchor)) < 1e-12 and delta[0] == 0
        # the split partitions the face distribution
        v = hr.local_distribution(f, positions, anchor).components
        assert np.max(np.abs(sigma + delta - v)) < 1e-12
        # sigma really collects the full-support words, by enumeration
        brute_sigma = np.zeros(k + 1, dtype=complex)
        for w in full_support(f.params, positions):
            brute_sigma[hamming_distance(w, anchor)] += f.values[hr.word_rank(f.params, w)]
        assert np.max(np.abs(sigma - brute_sigma)) < 1e-12
        # and the face total is preserved
        face_total = sum(f.values[hr.word_rank(f.params, w)] for w in face(f.params, positions, anchor))
        assert abs((sigma + delta).sum() - face_total) < 1e-12
