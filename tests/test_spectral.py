import functools
import json
import tracemalloc

import numpy as np
import pytest

import hamrecon as hr
from hamrecon.scheme import digits_table, weight_ranks, weight_table
from hamrecon.spectral import (
    DENSE_MAX_Q,
    _dense_transform,
    _group_kernel,
    axis_transform,
    closing_transform,
)

from helpers import eigfn, params, tol_for
from oracles import project_by_distance, sphere, support_transform, vertex_json_text


def test_fourier_context_invariants():
    # the characters read a table of q-th roots of unity: along the first
    # axis, the weight-1 character takes every power of xi = exp(2 pi i / q)
    for q in (3, 4, 5, 7):
        p = params(q, 2)
        xi = np.exp(2j * np.pi / q)
        line = hr.character(p, (1, 0)).values[::q]
        assert np.max(np.abs(line - xi ** np.arange(q))) < 1e-12
        assert abs(line.sum()) < 1e-12


def test_character_basics():
    p = params(3, 4)
    chi0 = hr.character(p, (0, 0, 0, 0))
    assert chi0.eigenindex == 0
    assert np.allclose(chi0.values, 1.0)

    beta = (1, 0, 2, 0)
    chi = hr.character(p, beta)
    assert chi.eigenindex == 2
    assert hr.eigen_residual(chi, 2) <= 1e-10


def test_character_orthogonality():
    p = params(3, 3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        beta = tuple(rng.integers(0, 3, 3))
        gamma = tuple(rng.integers(0, 3, 3))
        inner = np.vdot(hr.character(p, gamma).values, hr.character(p, beta).values)
        expect = p.size if beta == gamma else 0.0
        assert abs(inner - expect) < 1e-9


def test_fourier_of_character_is_scaled_delta():
    p = params(3, 4)
    beta = (0, 2, 1, 0)
    ghat = hr.fourier_transform(hr.character(p, beta)).values
    expect = np.zeros(p.size, dtype=complex)
    expect[hr.word_rank(p, beta)] = p.size
    assert np.max(np.abs(ghat - expect)) <= 1e-9 * p.size


def test_axis_transform_matches_character_sums():
    # every kernel against the character definition, on a batch with two
    # leading axes: axis groups of 4 plus 1 (2,5), a pair plus 1 (3,3) and
    # (4,3), single axes (5,2) and (DENSE_MAX_Q,1), the FFT above
    cases = ((2, 5), (3, 3), (4, 3), (5, 2), (DENSE_MAX_Q, 1), (DENSE_MAX_Q + 1, 2), (64, 1))
    for q, n in cases:
        # chars[a, b] = chi_a(b); q = 2 is a sub-scheme alphabet, below SchemeParams' range
        words = digits_table(q, n)
        chars = np.exp(2j * np.pi * ((words @ words.T) % q) / q)
        rng = np.random.default_rng(q + n)
        rows = rng.normal(size=(2, 3, q**n)) + 1j * rng.normal(size=(2, 3, q**n))
        for sign, matrix in ((-1, chars.conj()), (+1, chars)):
            expect = rows @ matrix.T
            got = axis_transform(rows, q, n, sign)
            assert got.shape == rows.shape
            assert np.max(np.abs(got - expect)) <= 1e-9 * q**n, (q, n, sign)


def test_one_letter_transform_is_the_identity():
    # Z_1^n has the one word 0 and the one character 1: the (q-1)-ary
    # transform of the binary cube's support blocks
    rows = np.array([[1.5 - 2j], [0.25 + 3j]])
    for n in range(4):
        for sign in (-1, +1):
            assert np.array_equal(axis_transform(rows, 1, n, sign), rows), (n, sign)


def test_support_transform_matches_block_character_sums():
    # words of one support only, each pair weighed by the product over the
    # support of the (q-1)-ary Hartley kernel cas = cos + sin at their
    # digits less one: the real stand-in for the block's character
    for q, n in ((3, 3), (4, 3), (5, 2), (7, 2), (3, 5)):
        words = digits_table(q, n)
        nonzero = words != 0
        same_block = np.all(nonzero[:, None, :] == nonzero[None, :, :], axis=2)
        angles = 2 * np.pi * (words - 1)[:, None, :] * (words - 1)[None, :, :] / (q - 1)
        both = nonzero[:, None, :] & nonzero[None, :, :]
        cas = np.where(both, np.cos(angles) + np.sin(angles), 1).prod(axis=2)
        chars = np.where(same_block, cas, 0)
        rng = np.random.default_rng(q * 10 + n)
        rows = rng.normal(size=(2, q**n)) + 1j * rng.normal(size=(2, q**n))
        block_size = (q - 1.0) ** nonzero.sum(axis=1)
        forward = support_transform(rows, q, n, -1)
        assert np.max(np.abs(forward - rows @ chars.T)) <= 1e-9 * q**n, (q, n)
        inverse = support_transform(rows, q, n, +1)
        assert np.max(np.abs(inverse - (rows @ chars.T) / block_size)) <= 1e-9 * q**n, (q, n)
        assert np.max(np.abs(support_transform(forward, q, n, +1) - rows)) <= 1e-12 * q**n


def _pair_map(rows, q, n):
    """Per axis (x_0, x_1) -> (x_0 + x_1, (q-1) x_0 - x_1), digits 2..q-1 kept."""
    out = rows.copy()
    words = out.reshape(rows.shape[:-1] + (q,) * n)
    for axis in range(words.ndim - n, words.ndim):
        x0 = np.take(words, 0, axis=axis).copy()
        x1 = np.take(words, 1, axis=axis).copy()
        head = (slice(None),) * axis
        words[head + (0,)] = x0 + x1
        words[head + (1,)] = (q - 1) * x0 - x1
    return out


def test_support_basis_splits_the_inverse_fourier_kernel():
    # per axis, S F^-1 S^-1 = [[1, 1], [q-1, -1]] on digits 0 and 1 (as an
    # operator on columns) plus a block C on digits 2..q-1 with C C* = q I,
    # S the real Hartley support kernel; C itself is complex
    for q in range(3, 12):
        # the kernels act on rows: out = x @ K, so the operator is K^T
        fourier = _group_kernel(q, 1, "fourier", +1).T
        forward = _group_kernel(q, 1, "support", -1).T
        inverse = _group_kernel(q, 1, "support", +1).T
        m = forward @ fourier @ inverse
        assert np.max(np.abs(m[:2, :2] - [[1, 1], [q - 1, -1]])) <= 1e-12, q
        assert np.max(np.abs(m[:2, 2:])) <= 1e-12 and np.max(np.abs(m[2:, :2])) <= 1e-12, q
        c = m[2:, 2:]
        assert np.max(np.abs(c @ c.conj().T - q * np.eye(q - 2))) <= 1e-12, q


def test_closing_transform_matches_two_passes():
    # the fused pass against the (x_0, x_1) map followed by the inverse
    # support transform, both in the Hartley frame, on a batch; and, with
    # digits >= 2 first taken to the inverse Fourier frame by C, it is the
    # inverse Fourier transform of the inverse support transform: axis
    # pairs (3,3), (4,3), (3,5) and single axes (5,2), (6,2), (5,3) with
    # dense kernels, the FFT branch at q = 23 and 256
    for q, n in ((3, 3), (4, 3), (5, 2), (6, 2), (3, 5), (5, 3), (23, 2), (256, 2)):
        rng = np.random.default_rng(q * 100 + n)
        rows = rng.normal(size=(2, q**n)) + 1j * rng.normal(size=(2, q**n))
        # the pass overwrites its input
        got = closing_transform(rows.copy(), q, n)
        assert got.shape == rows.shape
        # the reference support_transform builds a q x q kernel, 256 x 256 at most here
        expect = support_transform(_pair_map(rows, q, n), q, n, +1)
        assert np.max(np.abs(got - expect)) <= 1e-9 * q**n, (q, n)
        # C on digits 2..q-1 of each axis, as a row kernel
        frame = _group_kernel(q, 1, "support", +1) @ _group_kernel(q, 1, "fourier", +1)
        frame = frame @ _group_kernel(q, 1, "support", -1)
        frame[:2, :] = np.eye(q)[:2]
        frame[:, :2] = np.eye(q)[:, :2]
        framed = rows.reshape((2,) + (q,) * n)
        for axis in range(1, n + 1):
            framed = np.moveaxis(np.moveaxis(framed, axis, -1) @ frame, -1, axis)
        expect = axis_transform(support_transform(rows, q, n, +1), q, n, +1)
        got = closing_transform(framed.reshape(rows.shape), q, n)
        assert np.max(np.abs(got - expect)) <= 1e-9 * q**n, (q, n)


def _kronecker_reference(rows, q, n, kind, sign):
    """The n-th Kronecker power of the one-axis kernel, as one matrix up to 1024 words."""
    axis = _group_kernel(q, 1, kind, sign)
    if q**n <= 1024:
        return rows @ functools.reduce(np.kron, [axis] * n, np.ones((1, 1), dtype=axis.dtype))
    t = rows.reshape(rows.shape[:-1] + (q,) * n)
    for a in range(t.ndim - n, t.ndim):
        t = np.moveaxis(np.tensordot(t, axis, axes=(a, 0)), -1, a)
    return t.reshape(rows.shape)


def test_dense_transform_is_the_kronecker_kernel():
    # the grouped contraction against the Kronecker power of the axis
    # kernel, for every kind, on real and complex batches: q = 2..20 and
    # n = 0..5 wherever q^n <= 2^16, so groups of 4, 2 and 1 axes and the
    # mixed last group all run; the input is never written
    kinds = (("fourier", -1), ("fourier", +1), ("hartley", +1), ("support", -1), ("support", +1),
             ("closing", +1))
    for q in range(2, DENSE_MAX_Q + 1):
        for n in range(6):
            if q**n > 2**16:
                continue
            rng = np.random.default_rng(q * 10 + n)
            real = rng.normal(size=(2, q**n))
            for rows in (real, real + 1j * rng.normal(size=real.shape)):
                kept = rows.copy()
                for kind, sign in kinds:
                    got = _dense_transform(rows, q, n, kind, sign)
                    expect = _kronecker_reference(rows, q, n, kind, sign)
                    assert got.dtype == expect.dtype, (q, n, kind, sign, got.dtype)
                    gap = np.max(np.abs(got - expect))
                    assert gap <= 1e-12 * np.max(np.abs(expect)), (q, n, kind, sign, gap)
                assert np.array_equal(rows, kept), (q, n)


def test_dense_transform_copies_at_zero_axes():
    # Z_q^0 has one word and the kernel is [[1]]: a new array of the same
    # values, and no pair of ping-pong buffers beside it
    rows = np.random.default_rng(0).normal(size=(8192, 1)) * (1 + 2j)
    for kind, sign in (("fourier", -1), ("hartley", +1), ("closing", +1)):
        tracemalloc.start()
        try:
            got = _dense_transform(rows, 5, 0, kind, sign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, rows) and not np.shares_memory(got, rows), kind
        assert peak < 1.5 * rows.nbytes, (kind, peak)


def test_fourier_inversion_and_delta():
    for q, n in ((3, 4), (4, 3), (5, 3)):
        p = params(q, n)
        rng = np.random.default_rng(4)
        f = hr.VertexFunction(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
        back = hr.inverse_fourier(hr.fourier_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-9 * f.max_abs()

        delta = np.zeros(p.size, dtype=complex)
        delta[0] = 1.0
        ghat = hr.fourier_transform(hr.VertexFunction(p, delta)).values
        assert np.max(np.abs(ghat - 1.0)) < 1e-12


def test_parseval():
    p = params(4, 4)
    rng = np.random.default_rng(5)
    f = hr.VertexFunction(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
    ghat = hr.fourier_transform(f)
    lhs = float(np.sum(np.abs(f.values) ** 2))
    rhs = float(np.sum(np.abs(ghat.values) ** 2)) / p.size
    assert abs(lhs - rhs) <= 1e-8 * lhs


def test_distance_operator_basics():
    p = params(3, 4)
    rng = np.random.default_rng(6)
    f = hr.VertexFunction(p, rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
    assert np.array_equal(hr.apply_distance_operator(f, 0).values, f.values)
    with pytest.raises(ValueError):
        hr.apply_distance_operator(f, 5)

    # brute-force comparison on small cubes, past q = 3
    for q, n in ((3, 3), (4, 3), (5, 2)):
        p2 = params(q, n)
        g = hr.VertexFunction(p2, rng.normal(size=p2.size) + 1j * rng.normal(size=p2.size))
        for i in range(n + 1):
            got = hr.apply_distance_operator(g, i)
            for rank in range(p2.size):
                center = hr.rank_word(p2, rank)
                brute = sum(g.values[hr.word_rank(p2, w)] for w in sphere(p2, center, i))
                assert abs(got.values[rank] - brute) < 1e-10, (q, n, i, rank)


def test_distance_operator_eigen_equations():
    for q, n in ((3, 4), (4, 3)):
        for h in range(n + 1):
            f = eigfn(q, n, h)
            assert hr.eigen_residual(f, h) <= tol_for(f)
            for d in range(n + 1):
                got = hr.apply_distance_operator(f, d)
                lam = hr.krawtchouk_value(q, d, h, n)
                assert np.max(np.abs(got.values - lam * f.values)) <= tol_for(f)


def test_projection_on_characters():
    p = params(3, 3)
    beta = (1, 2, 0)
    chi = hr.character(p, beta)
    kept = hr.project_eigenspace(chi, 2)
    assert np.max(np.abs(kept.values - chi.values)) <= 1e-9
    for h in (0, 1, 3):
        killed = hr.project_eigenspace(chi, h)
        assert np.max(np.abs(killed.values)) <= 1e-9


def test_projection_methods_agree():
    rng = np.random.default_rng(7)
    for q in (3, 4):
        for n in range(1, 5):
            p = params(q, n)
            for h in range(n + 1):
                for _ in range(50):
                    f = hr.VertexFunction(
                        p, rng.uniform(-1, 1, p.size) + 1j * rng.uniform(-1, 1, p.size)
                    )
                    a = hr.project_eigenspace(f, h)
                    b = project_by_distance(f, h)
                    assert np.max(np.abs(a.values - b.values)) <= 1e-9


def test_projection_idempotent():
    f = eigfn(3, 4, 2, seed=9)
    # start from something generic
    g = hr.VertexFunction(f.params, f.values + np.arange(f.params.size))
    once = hr.project_eigenspace(g, 2)
    twice = hr.project_eigenspace(once, 2)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-9


def test_random_eigenfunction_properties():
    for q, n in ((3, 4), (4, 3)):
        p = params(q, n)
        for h in range(n + 1):
            f = hr.random_eigenfunction(p, h, seed=42)
            assert f.eigenindex == h
            assert abs(f.max_abs() - 1.0) < 1e-12
            assert hr.eigen_residual(f, h) <= tol_for(f)
            # identical seed, identical bits
            g = hr.random_eigenfunction(p, h, seed=42)
            assert np.array_equal(f.values, g.values)
            # fourier support inside the weight-h sphere
            ghat = hr.fourier_transform(f).values
            off = ghat[weight_table(q, n) != h]
            if off.size:
                assert np.max(np.abs(off)) <= 1e-9 * p.size


def test_fourier_support_characterization():
    # f in V_h  <=>  transform supported on the weight-h sphere (both ways)
    rng = np.random.default_rng(8)
    for q in (3, 4):
        for n in range(1, 5):
            p = params(q, n)
            for h in range(n + 1):
                f = hr.random_eigenfunction(p, h, seed=13)
                ghat = hr.fourier_transform(f).values
                off = ghat[weight_table(q, n) != h]
                if off.size:
                    assert np.max(np.abs(off)) <= 1e-9 * p.size
                # reverse: plant a spectrum on W_h, must be an eigenfunction
                spectrum = np.zeros(p.size, dtype=complex)
                ranks = weight_ranks(q, n, h)
                spectrum[ranks] = rng.normal(size=ranks.size) + 1j * rng.normal(size=ranks.size)
                g = hr.inverse_fourier(hr.VertexFunction(p, spectrum))
                assert hr.eigen_residual(g, h) <= tol_for(g)


def _writer_text(params, values, eigenindex, d=None):
    return "".join(hr.vertex_json_chunks(params, values, eigenindex, d))


def test_json_round_trip():
    f = eigfn(3, 4, 2)
    data = json.loads(_writer_text(f.params, f.values, f.eigenindex))
    assert data["q"] == 3 and data["n"] == 4 and data["eigenindex"] == 2
    g = hr.function_from_dict(data)
    assert np.array_equal(g.values, f.values)
    assert g.eigenindex == 2

    # omitted words mean zero
    sparse = {"q": 3, "n": 2, "values": [{"w": "01", "re": 1.5, "im": -2.0}]}
    g2 = hr.function_from_dict(sparse)
    assert g2.values[hr.word_rank(g2.params, (0, 1))] == 1.5 - 2.0j
    assert np.count_nonzero(g2.values) == 1
    with pytest.raises(ValueError):
        hr.function_from_dict(
            {"q": 3, "n": 2, "values": [{"w": "01", "re": 1, "im": 0}, {"w": "01", "re": 2, "im": 0}]}
        )

    # every malformed entry raises the exception type the per-word reader raised
    bad_entries = [
        ({"w": "012", "re": 1.0, "im": 0.0}, ValueError),  # wrong length
        ({"w": "03", "re": 1.0, "im": 0.0}, ValueError),  # digit >= q
        ({"w": "0a", "re": 1.0, "im": 0.0}, ValueError),  # not a digit
        ({"w": "\u0660\u0661", "re": 1.0, "im": 0.0}, ValueError),  # non-ASCII digits
        ({"re": 1.0, "im": 0.0}, KeyError),  # no word
        ({"w": 1, "re": 1.0, "im": 0.0}, TypeError),  # word not a string
        ({"w": "02", "im": 0.0}, KeyError),  # no real part
        ({"w": "02", "re": None, "im": 0.0}, TypeError),
        ({"w": "02", "re": "x", "im": 0.0}, ValueError),
        ({"w": "02", "re": True, "im": 0.0}, ValueError),  # float(True) is 1.0
        ({"w": "02", "re": 1.0, "im": False}, ValueError),
    ]
    for entry, exc in bad_entries:
        with pytest.raises(exc):
            hr.function_from_dict({"q": 3, "n": 2, "values": [{"w": "11", "re": 1, "im": 0}, entry]})
    with pytest.raises(ValueError, match="'12'"):
        hr.function_from_dict(
            {
                "q": 3,
                "n": 2,
                "values": [
                    {"w": "01", "re": 1, "im": 0},
                    {"w": "12", "re": 1, "im": 0},
                    {"w": "12", "re": 2, "im": 0},
                ],
            }
        )
    # numbers given as ints or numeric strings are read as before
    g3 = hr.function_from_dict({"q": 3, "n": 2, "values": [{"w": "21", "re": 1, "im": "1.5"}]})
    assert g3.values[hr.word_rank(g3.params, (2, 1))] == 1 + 1.5j
    # booleans and non-finite values are rejected, naming the word
    for bad in (True, False, float("nan"), float("inf"), -float("inf")):
        for entry in ({"w": "10", "re": bad, "im": 0.0}, {"w": "10", "re": 0.0, "im": bad}):
            with pytest.raises(ValueError, match="'10'"):
                hr.function_from_dict({"q": 3, "n": 2, "values": [entry]})


def test_vertex_json_writer_matches_json_dumps():
    f = eigfn(4, 5, 3, seed=4)
    data = hr.SphereData.from_function(f, 3)
    ball = hr.reconstruct_ball(data, 3)
    empty = np.zeros(81, dtype=np.complex128)
    edge = np.zeros(9, dtype=np.complex128)
    for word, re, im in [
        ((0, 1), -0.0, 5e-324),
        ((0, 2), 1e300, 1e-05),
        ((1, 0), 1.0, -1.0),
        ((1, 1), 0.0, 0.1),
        ((1, 2), float("nan"), float("inf")),
        ((2, 0), -float("inf"), 2.5),
    ]:
        rank = hr.word_rank(params(3, 2), word)
        edge.real[rank], edge.imag[rank] = re, im
    cases = [
        (f.params, f.values, 3),
        (f.params, f.values, None),  # no eigenindex
        (data.params, data.values, 3, 3),
        (ball.params, ball.values, 3, 3),
        (params(3, 4), empty, 2, 2),
        (params(3, 4), empty, None),
        (params(3, 2), edge, 1),
    ]
    for case in cases:
        assert _writer_text(*case) == vertex_json_text(*case)
    text = _writer_text(params(3, 2), edge, 1)
    assert "NaN" in text and "-Infinity" in text and "5e-324" in text


def test_vertex_json_writer_matches_json_dumps_across_chunks():
    # 65,536 words at (4,8); 8,064 sphere and 12,585 ball words at (3,10):
    # every file spans several chunks of entries
    p = hr.SchemeParams(4, 8)
    full = hr.reconstruct_full(hr.SphereData.from_function(eigfn(4, 8, 2, seed=3), 2), 2)
    data = hr.SphereData.from_function(eigfn(3, 10, 5, seed=3), 5)
    ball = hr.reconstruct_ball(data, 5)
    cases = [
        (p, full.values, full.eigenindex),
        (data.params, data.values, 5, 5),
        (ball.params, ball.values, 5, 5),
    ]
    for case in cases:
        assert _writer_text(*case) == vertex_json_text(*case)


def test_vertex_json_writer_memory_is_bounded(tmp_path):
    # the writer holds one chunk's text at a time, not one object per word
    f = hr.reconstruct_full(hr.SphereData.from_function(eigfn(4, 8, 2, seed=3), 2), 2)
    path = tmp_path / "f.json"
    tracemalloc.start()
    try:
        with open(path, "w") as out:
            out.writelines(hr.vertex_json_chunks(f.params, f.values, f.eigenindex))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5_000_000
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
