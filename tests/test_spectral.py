import json

import numpy as np
import pytest

import hamrecon as hr
from hamrecon.scheme import digits_table, weight_ranks, weight_table
from hamrecon.spectral import DENSE_MAX_Q, axis_transform, full_support_transform, vertex_dict

from helpers import eigfn, params, tol_for
from oracles import project_by_distance, sphere


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
    # (4,3), single axes (5,2) and (DENSE_MAX_Q,1), the FFT above; the
    # full-support read at the full-support rows
    cases = ((2, 5), (3, 3), (4, 3), (5, 2), (DENSE_MAX_Q, 1), (DENSE_MAX_Q + 1, 2), (64, 1))
    for q, n in cases:
        # chars[a, b] = chi_a(b); q = 2 is a sub-scheme alphabet, below SchemeParams' range
        words = digits_table(q, n)
        chars = np.exp(2j * np.pi * ((words @ words.T) % q) / q)
        rng = np.random.default_rng(q + n)
        rows = rng.normal(size=(2, 3, q**n)) + 1j * rng.normal(size=(2, 3, q**n))
        full_rows = weight_ranks(q, n, n)
        for sign, matrix in ((-1, chars.conj()), (+1, chars)):
            expect = rows @ matrix.T
            got = axis_transform(rows, q, n, sign)
            assert got.shape == rows.shape
            assert np.max(np.abs(got - expect)) <= 1e-9 * q**n, (q, n, sign)
            got = full_support_transform(rows, q, n, sign)
            assert got.shape == (2, 3, (q - 1) ** n)
            assert np.max(np.abs(got - expect[..., full_rows])) <= 1e-9 * q**n, (q, n, sign)


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


def test_json_round_trip():
    f = eigfn(3, 4, 2)
    data = hr.function_to_dict(f)
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
    # non-finite values are rejected, naming the word
    for bad in (float("nan"), float("inf"), -float("inf")):
        for entry in ({"w": "10", "re": bad, "im": 0.0}, {"w": "10", "re": 0.0, "im": bad}):
            with pytest.raises(ValueError, match="'10'"):
                hr.function_from_dict({"q": 3, "n": 2, "values": [entry]})


def _oracle_text(payload):
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_vertex_json_writer_matches_json_dumps():
    f = eigfn(4, 5, 3, seed=4)
    sphere = hr.SphereData.from_function(f, 3)
    payloads = [
        hr.function_to_dict(f),
        hr.function_to_dict(hr.VertexFunction(f.params, f.values)),  # no eigenindex
        sphere.to_dict(),
        vertex_dict(f.params, hr.reconstruct_ball(sphere, 3).values, 3, 3),
        {"q": 3, "n": 4, "d": 2, "eigenindex": 2, "values": []},
        {"q": 3, "n": 4, "values": []},
        {
            "q": 3,
            "n": 2,
            "eigenindex": 1,
            "values": [
                {"w": "01", "re": -0.0, "im": 5e-324},
                {"w": "02", "re": 1e300, "im": 1e-05},
                {"w": "10", "re": 1.0, "im": -1.0},
                {"w": "11", "re": 0.0, "im": 0.1},
                {"w": "12", "re": float("nan"), "im": float("inf")},
                {"w": "20", "re": -float("inf"), "im": 2.5},
            ],
        },
    ]
    for payload in payloads:
        assert hr.dumps_vertex_json(payload) == _oracle_text(payload)
    assert "NaN" in hr.dumps_vertex_json(payloads[-1])
    assert "-Infinity" in hr.dumps_vertex_json(payloads[-1])
