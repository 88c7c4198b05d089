import itertools
import json

import numpy as np
import pytest

import hamrecon as hr
from hamrecon import recon, spectral
from hamrecon.recon import _sub_assignments
from hamrecon.scheme import (
    DEFAULT_MAX_STATES,
    digits_table,
    position_weights,
    weight_ranks,
    weight_table,
)
from hamrecon.spectral import DENSE_MAX_Q, axis_transform, support_transform

from helpers import desk_cells, eigfn, load_cells, params, tol_for
from oracles import (
    apply_layer_operator,
    face,
    full_support,
    hamming_distance,
    orthogonal_face_totals,
    per_support_ball,
    per_support_full,
    sphere,
    support_rhs,
)


def _ball_mask(q, n, d):
    return weight_table(q, n) <= d


def test_reconstruct_origin_character_oracle():
    q, n, h, d = 3, 4, 2, 2
    p = params(q, n)
    beta = (1, 0, 2, 0)  # weight h
    chi = hr.character(p, beta)
    # brute-force the character sum over the sphere
    brute = sum(chi.values[hr.word_rank(p, w)] for w in sphere(p, (0, 0, 0, 0), d))
    assert abs(brute - hr.krawtchouk_value(q, d, h, n)) <= 1e-9
    data = hr.SphereData.from_function(chi, d)
    assert abs(hr.reconstruct_origin(data, h) - 1.0) <= 1e-9


def test_reconstruct_origin_edge_cases():
    p = params(3, 4)
    f = eigfn(3, 4, 3)
    sphere0 = hr.SphereData.from_function(f, 0)
    assert hr.reconstruct_origin(sphere0, 3) == f.values[0]  # P_0 = 1
    zero = hr.SphereData(p, 2, np.zeros(p.size, dtype=complex))
    assert hr.reconstruct_origin(zero, 2) == 0
    # Krawtchouk zero: P_1(2; 3) = 0
    p33 = params(3, 3)
    bad = hr.SphereData(p33, 1, np.zeros(p33.size, dtype=complex))
    with pytest.raises(hr.ConditionError):
        hr.reconstruct_origin(bad, 2)


def test_layer_rhs_matches_brute_force():
    # (3,5,4,4) and (4,4,4,4) reach coefficients past i = 1, and q = 4
    for q, n, h, d in ((3, 4, 2, 2), (3, 5, 4, 4), (4, 4, 4, 4)):
        p = params(q, n)
        f = eigfn(q, n, h, seed=2)
        sphere = hr.SphereData.from_function(f, d)
        wt = weight_table(q, n)
        rng = np.random.default_rng(q * 100 + n)
        for k in range(1, d + 1):
            # partial ball holding exactly the weights below k
            partial = hr.VertexFunction(p, np.where(wt <= k - 1, f.values, 0))
            # the same ball polluted at weights >= k, which layer_rhs must ignore
            noise = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
            polluted = hr.VertexFunction(p, f.values + np.where(wt >= k, noise, 0))
            column = [
                float(hr.coefficient(q, n, h, k, i, d - k)) for i in range(min(k, d - k) + 1)
            ]
            for positions in itertools.combinations(range(1, n + 1), k):
                system = hr.layer_rhs(sphere, partial, positions, h)
                assert np.array_equal(
                    hr.layer_rhs(sphere, polluted, positions, h).rhs, system.rhs
                ), (q, n, h, d, positions)
                for idx, alpha in enumerate(full_support(p, positions)):
                    # Phi by enumeration, asserting the weight bookkeeping
                    phi = 0j
                    for w in face(p, hr.complement(positions, n), alpha):
                        if hamming_distance(w, alpha) == d - k:
                            assert hr.weight(w) == d
                            phi += sphere.values[hr.word_rank(p, w)]
                    _, delta = hr.sigma_delta_split(partial, alpha)
                    psi = sum(column[i] * delta[i] for i in range(len(column)))
                    assert abs(system.rhs[idx] - (phi - psi)) <= 1e-9, (q, n, h, d, alpha)
                # the layer equation itself: M applied to the true values gives the rhs
                truth = f.values[_sub_assignments(q, k) @ position_weights(p, positions)]
                applied = apply_layer_operator(q, n, h, d, k, truth)
                assert np.max(np.abs(applied - system.rhs)) <= tol_for(f)


def test_layer_rhs_zero_input():
    p = params(3, 4)
    zero_sphere = hr.SphereData(p, 2, np.zeros(p.size, dtype=complex))
    zero_ball = hr.VertexFunction(p, np.zeros(p.size, dtype=complex))
    system = hr.layer_rhs(zero_sphere, zero_ball, (2,), 2)
    assert np.all(system.rhs == 0)
    with pytest.raises(ValueError):
        hr.layer_rhs(zero_sphere, zero_ball, (1, 2, 3), 2)  # k > d


def test_solve_layer_dense_oracle_and_linearity():
    q, n, h, d = 3, 4, 2, 2
    rng = np.random.default_rng(30)
    rhs = rng.normal(size=2) + 1j * rng.normal(size=2)  # S^I has (q-1)^1 = 2 points
    system = hr.LayerSystem(positions=(2,), rhs=rhs.copy())
    got = hr.solve_layer(system, q, n, h, d)
    dense = np.array(
        [[float(x) for x in row] for row in hr.dense_layer_matrix(q, n, h, d, 1)]
    )
    expect = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(got - expect)) <= 1e-9
    assert system.solution is got

    # scaling and residual
    scaled = hr.solve_layer(hr.LayerSystem((2,), 3.5 * rhs), q, n, h, d)
    assert np.max(np.abs(scaled - 3.5 * got)) <= 1e-9
    back = apply_layer_operator(q, n, h, d, 1, got)
    assert np.max(np.abs(back - rhs)) <= 1e-9

    # a singular layer is refused with a diagnosis
    bad = hr.LayerSystem((2,), rhs)
    with pytest.raises(hr.ConditionError) as err:
        hr.solve_layer(bad, 3, 4, 3, 2)
    assert err.value.report is not None and (1, 1) in err.value.report.failures


def test_reconstruct_ball_round_trips():
    for q, n in ((3, 4), (4, 3)):
        p = params(q, n)
        for h in range(n + 1):
            f = eigfn(q, n, h, seed=4)
            for d in range(h + 1):
                if not hr.check_conditions(q, n, h, d).passed:
                    continue
                sphere = hr.SphereData.from_function(f, d)
                got = hr.reconstruct_ball(sphere, h)
                mask = _ball_mask(q, n, d)
                err = np.max(np.abs(got.values[mask] - f.values[mask]))
                assert err <= 1e-8 * f.max_abs(), (q, n, h, d, err)
                assert got.eigenindex == h
                # off the ball everything is zero
                assert np.all(got.values[~mask] == 0)
                # the given sphere values are copied through bit-for-bit
                smask = weight_table(q, n) == d
                assert np.array_equal(got.values[smask], sphere.values[smask])


def test_reconstruct_ball_d0_and_zero_and_linearity():
    p = params(3, 4)
    f = eigfn(3, 4, 2, seed=6)
    s0 = hr.SphereData.from_function(f, 0)
    b0 = hr.reconstruct_ball(s0, 2)
    assert b0.values[0] == f.values[0] and np.count_nonzero(b0.values) <= 1

    zero = hr.SphereData(p, 2, np.zeros(p.size, dtype=complex))
    bz = hr.reconstruct_ball(zero, 2)
    assert np.all(bz.values == 0)

    g = eigfn(3, 4, 2, seed=7)
    sf = hr.SphereData.from_function(f, 2)
    sg = hr.SphereData.from_function(g, 2)
    ssum = hr.SphereData(p, 2, sf.values + sg.values)
    combined = hr.reconstruct_ball(ssum, 2)
    separate = hr.reconstruct_ball(sf, 2).values + hr.reconstruct_ball(sg, 2).values
    assert np.max(np.abs(combined.values - separate)) <= 1e-9


def test_reconstruct_ball_condition_failure():
    p = params(3, 4)
    zero = hr.SphereData(p, 2, np.zeros(p.size, dtype=complex))
    with pytest.raises(hr.ConditionError) as err:
        hr.reconstruct_ball(zero, 3)
    assert err.value.report.failures == ((1, 1),)
    # origin failure propagates the same way
    p33 = params(3, 3)
    zero33 = hr.SphereData(p33, 1, np.zeros(p33.size, dtype=complex))
    with pytest.raises(hr.ConditionError):
        hr.reconstruct_ball(zero33, 2)


def test_reconstruct_ball_non_eigen_data_is_reproduced():
    # arbitrary sphere data still comes back verbatim on the sphere itself
    p = params(3, 4)
    rng = np.random.default_rng(31)
    vals = np.where(weight_table(3, 4) == 2, rng.normal(size=p.size) + 0j, 0)
    sphere = hr.SphereData(p, 2, vals)
    got = hr.reconstruct_ball(sphere, 2)
    smask = weight_table(3, 4) == 2
    assert np.array_equal(got.values[smask], vals[smask])


@pytest.mark.parametrize("budget", [1, 2000])
def test_batched_drivers_match_per_support_reference(monkeypatch, budget):
    # the chunked per-support path on every passing desk cell, the cells
    # the size rule sends to the tensor path included; a small chunk budget
    # splits layers into several chunks: of one support each at budget 1, of
    # several supports at 2000
    monkeypatch.setattr(recon, "_tensor_path", lambda q, n, d: False)
    monkeypatch.setattr(recon, "_CHUNK_WORDS", budget)
    chunks = []
    batched_rhs = recon._layer_rhs

    def recorded(sphere, ball, q, n, h, d, supports):
        chunks.append(((q, n, h, d, supports.shape[1]), len(supports)))
        return batched_rhs(sphere, ball, q, n, h, d, supports)

    monkeypatch.setattr(recon, "_layer_rhs", recorded)
    compared = 0
    for q, n, h, d in desk_cells():
        if not hr.check_conditions(q, n, h, d).passed:
            continue
        sphere = hr.SphereData.from_function(eigfn(q, n, h), d)
        got = hr.reconstruct_ball(sphere, h).values
        assert np.max(np.abs(got - per_support_ball(sphere, h))) <= 1e-12, (q, n, h, d)
        if 0 < d == h:
            got = hr.reconstruct_full(sphere, h).values
            assert np.max(np.abs(got - per_support_full(sphere, h))) <= 1e-12, (q, n, h)
        compared += 1
    assert compared >= 100
    per_layer = {}
    for layer, size in chunks:
        per_layer.setdefault(layer, []).append(size)
    assert any(len(sizes) > 1 for sizes in per_layer.values())
    if budget == 1:
        assert max(size for _, size in chunks) == 1
    else:
        assert any(len(sizes) > 1 and min(sizes) > 1 for sizes in per_layer.values())


def _tensor_ball_matches(q, n, h, d, bound):
    sphere = hr.SphereData.from_function(eigfn(q, n, h), d)
    got = hr.reconstruct_ball(sphere, h).values
    gap = np.max(np.abs(got - per_support_ball(sphere, h)))
    assert gap <= bound, (q, n, h, d, gap)
    assert not np.any(got[~_ball_mask(q, n, d)]), (q, n, h, d)
    if 0 < d == h:
        gap = np.max(np.abs(hr.reconstruct_full(sphere, h).values - per_support_full(sphere, h)))
        assert gap <= bound, (q, n, h, gap)


def test_tensor_path_matches_per_support_reference(monkeypatch):
    # the whole-tensor path on every passing desk cell, forced where the
    # size rule picks the per-support path; no support is solved on its own.
    # Each layer lifts Psi on the smaller of its stack of k-faces and the
    # tensor (the tensor on a tie), and both routes run.
    monkeypatch.setattr(recon, "_tensor_path", lambda q, n, d: True)
    monkeypatch.setattr(recon, "_layer_rhs", None)
    lifted = []
    lift = recon._lift

    def recorded(xhat, q, n, h, d, k, axes):
        lifted.append((q, n, k, axes, xhat.size))
        return lift(xhat, q, n, h, d, k, axes)

    monkeypatch.setattr(recon, "_lift", recorded)
    compared = 0
    for q, n, h, d in desk_cells():
        if hr.check_conditions(q, n, h, d).passed:
            _tensor_ball_matches(q, n, h, d, 1e-12)
            compared += 1
    assert compared >= 100
    assert {axes == n for q, n, k, axes, size in lifted} == {True, False}
    for q, n, k, axes, size in lifted:
        faces = len(recon._supports(n, k)) * q**k
        assert axes in (k, n) and size == (q**n if axes == n else faces), (q, n, k, axes)
        assert size <= min(faces, q**n), (q, n, k, axes)


def test_full_recovery_never_builds_the_ball(monkeypatch):
    # on every passing desk d = h cell, both sides of the size rule, full
    # recovery divides by the spectrum of the square sphere restriction: it
    # recovers no origin, solves no layer and lifts nothing
    called = []
    names = (
        "reconstruct_ball",
        "reconstruct_origin",
        "_layers_by_tensor",
        "_layers_by_support",
        "_lift",
    )
    for name in names:

        def recorded(*args, name=name, original=getattr(recon, name)):
            called.append(name)
            return original(*args)

        monkeypatch.setattr(recon, name, recorded)
    compared, tensor_cells = 0, 0
    for q, n, h, d in desk_cells():
        if 0 < d == h and hr.check_conditions(q, n, h, h).passed:
            sphere = hr.SphereData.from_function(eigfn(q, n, h), h)
            got = hr.reconstruct_full(sphere, h).values
            assert not called, (q, n, h, called)
            gap = np.max(np.abs(got - per_support_full(sphere, h)))
            assert gap <= 1e-12, (q, n, h, gap)
            compared += 1
            tensor_cells += recon._tensor_path(q, n, h)
    assert compared >= 40 and tensor_cells >= 10, (compared, tensor_cells)


def test_tensor_path_matches_per_support_reference_at_cap_scale(monkeypatch):
    # the size rule's own choice on the four cap cells; the bound is relative
    # to the largest value, 1
    monkeypatch.setattr(recon, "_layer_rhs", None)
    for q, n, h in ((4, 8, 6), (3, 10, 8), (3, 10, 10), (4, 8, 8)):
        assert recon._tensor_path(q, n, h)
        _tensor_ball_matches(q, n, h, h, 1e-11)


def test_full_recovery_is_accurate_at_cap_scale_and_on_large_alphabets():
    # relative to max |f|: 1e-13 on the four full-cap cells, where the
    # layer-by-layer route lost about 50x of that at (3,10,8) in the step
    # that read the Fourier coefficients off the recovered ball (1.1e-12),
    # and on the four h near n/2 cells where T spans the widest range of
    # eigenvalues, which the normal equations G = T*T squared (up to 2.1e-13
    # at (3,10,5)); 1e-12 above DENSE_MAX_Q, where the sphere's block
    # transform and the closing pass are FFTs
    cases = [((4, 8, 6), 1e-13), ((3, 10, 8), 1e-13), ((3, 10, 10), 1e-13), ((4, 8, 8), 1e-13)]
    cases += [((3, 8, 4), 1e-13), ((3, 9, 5), 1e-13), ((3, 10, 5), 1e-13), ((3, 10, 6), 1e-13)]
    cases += [((23, 3, 3), 1e-12), ((256, 2, 2), 1e-12), ((65536, 1, 1), 1e-12)]
    for (q, n, h), bound in cases:
        f = eigfn(q, n, h)
        got = hr.reconstruct_full(hr.SphereData.from_function(f, h), h)
        err = np.max(np.abs(got.values - f.values)) / f.max_abs()
        assert err <= bound, (q, n, h, err)


def test_tensor_lift_matches_distance_stack_psi():
    # values that are no eigenfunction on the weights below k: Psi at every
    # weight-k word, from the lift over the whole tensor and from the lift over
    # each layer's stack of faces, against one distance stack per face
    layers = 0
    for q, n, h, d in desk_cells():
        p = params(q, n)
        wt = weight_table(q, n)
        rng = np.random.default_rng(q * 1000 + n * 100 + h * 10 + d)
        zero_sphere = hr.SphereData(p, d, np.zeros(p.size, dtype=complex))
        for k in range(1, d):
            raw = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
            lower = np.where(wt < k, raw, 0)
            xhat = support_transform(lower, q, n, -1)
            psi_hat = recon._lift(xhat, q, n, h, d, k, n)
            psi = support_transform(np.where(wt == k, psi_hat, 0), q, n, +1)
            supports = recon._supports(n, k)
            stack_ranks, stack_rhs = recon._layer_rhs(
                zero_sphere.values, xhat, q, n, h, d, supports
            )
            for index, positions in enumerate(supports):
                ranks, rhs = support_rhs(zero_sphere, lower, tuple(positions), h)
                gap = np.max(np.abs(psi[ranks] + rhs))
                assert gap <= 1e-12 * np.max(np.abs(rhs)), (q, n, h, d, k, positions, gap)
                rhs_hat = axis_transform(rhs, q - 1, k, -1)
                assert np.array_equal(stack_ranks[index], ranks)
                gap = np.max(np.abs(stack_rhs[index] - rhs_hat))
                assert gap <= 1e-12 * np.max(np.abs(rhs_hat)), (q, n, h, d, k, positions, gap)
            layers += 1
    assert layers >= 150


def test_tensor_path_selection():
    cells = load_cells()
    # every ball-wide and cli-roundtrip cell stays on the per-support path
    for q, n in cells.BALL_QN:
        assert not any(recon._tensor_path(q, n, d) for d in cells.BALL_RADII), (q, n)
    for q, n, h in cells.CLI_CELLS:
        assert not recon._tensor_path(q, n, h)
    # every full-cap cell takes the tensor path
    for q, n, h in cells.FULL_CAP_CELLS:
        assert recon._tensor_path(q, n, h)
    # inside the default state cap only q <= 6 ever selects it, so no dense
    # q x q kernel is built above DENSE_MAX_Q
    cap = DEFAULT_MAX_STATES
    chosen = set()
    for q in range(3, cap + 1):
        n = 1
        while q**n <= cap:
            if any(recon._tensor_path(q, n, d) for d in range(n + 1)):
                chosen.add(q)
            n += 1
    assert chosen == {3, 4, 5, 6} and max(chosen) <= DENSE_MAX_Q


def test_layer_rhs_matches_per_support_reference_at_cap_scale():
    # the lifted Psi on a face stack against one distance stack per face, on
    # the first, a middle and the last support of every layer of two
    # cap-scale cells, in each support's (q-1)-ary basis
    for q, n, h in ((3, 10, 8), (4, 8, 8)):
        f = eigfn(q, n, h)
        sphere = hr.SphereData.from_function(f, h)
        xhat = support_transform(f.values, q, n, -1)
        for k in range(1, h + 1):
            supports = recon._supports(n, k)
            for index in sorted({0, len(supports) // 2, len(supports) - 1}):
                positions = tuple(int(p) for p in supports[index])
                ranks, rhs = recon._layer_rhs(
                    sphere.values, xhat, q, n, h, h, supports[index : index + 1]
                )
                ref_ranks, ref_rhs = support_rhs(sphere, f.values, positions, h)
                ref_hat = axis_transform(ref_rhs, q - 1, k, -1)
                assert np.array_equal(ranks[0], ref_ranks)
                gap = np.max(np.abs(rhs[0] - ref_hat))
                assert gap <= 1e-10 * np.max(np.abs(ref_hat)), (q, n, h, k, positions, gap)


def test_large_alphabet_layers_round_trip_without_dense_kernels(monkeypatch):
    # per-support layers above DENSE_MAX_Q: every transform of the recovery,
    # the (q-1)-ary ones included, takes the FFT branch
    built = []
    group_kernel = spectral._group_kernel

    def recorded(q, g, kind, sign):
        built.append(q)
        return group_kernel(q, g, kind, sign)

    monkeypatch.setattr(spectral, "_group_kernel", recorded)
    for q, n, h, d in ((23, 3, 3, 3), (37, 3, 3, 2), (256, 2, 2, 2)):
        assert not recon._tensor_path(q, n, d)
        f = eigfn(q, n, h)
        sphere = hr.SphereData.from_function(f, d)
        if d == h:
            err = np.max(np.abs(hr.reconstruct_full(sphere, h).values - f.values))
        else:
            mask = _ball_mask(q, n, d)
            err = np.max(np.abs(hr.reconstruct_ball(sphere, h).values[mask] - f.values[mask]))
        assert err <= 1e-8 * f.max_abs(), (q, n, h, d, err)
    assert all(q <= DENSE_MAX_Q for q in built), sorted(set(built))


def test_eta_spectrum_is_diagonal_on_full_support_rows():
    # FFT(eta) on a face equals q^(n-h), the closing step's factor, times
    # FFT(face values) at the full-support frequencies, for any ball values
    for q, n, h in ((3, 4, 2), (4, 3, 3), (5, 3, 1), (3, 5, 3)):
        p = params(q, n)
        rng = np.random.default_rng(q * 10 + n + h)
        raw = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
        ball = hr.VertexFunction(p, np.where(_ball_mask(q, n, h), raw, 0))
        full_rows = weight_ranks(q, h, h)
        scale = float(q ** (n - h))
        for positions in itertools.combinations(range(1, n + 1), h):
            ranks_face = digits_table(q, h) @ position_weights(p, positions)
            direct = axis_transform(hr.eta_face_values(ball, positions), q, h, -1)[full_rows]
            diagonal = scale * axis_transform(ball.values[ranks_face], q, h, -1)[full_rows]
            assert np.max(np.abs(direct - diagonal)) <= 1e-12 * (1 + np.max(np.abs(direct)))


def test_eta_sum_against_direct_oracle():
    q, n, h = 3, 4, 2
    p = params(q, n)
    rng = np.random.default_rng(32)
    checked = 0
    for seed in range(4):
        f = eigfn(q, n, h, seed)
        ball = hr.VertexFunction(p, np.where(_ball_mask(q, n, h), f.values, 0), eigenindex=h)
        for positions in itertools.combinations(range(1, n + 1), h):
            totals = orthogonal_face_totals(f, positions)
            for _ in range(5):
                beta = [0] * n
                for pos in positions:
                    beta[pos - 1] = int(rng.integers(0, q))
                beta = tuple(beta)
                face_rank = hr.word_rank(params(q, h), [beta[pos - 1] for pos in positions])
                closed = hr.eta_face_values(ball, positions)[face_rank]
                direct = totals[face_rank]
                assert abs(closed - direct) <= tol_for(f)
                checked += 1
    assert checked >= 100
    # n = 2h: the prefactor q^(n-2h) collapses to 1
    assert params(3, 4).n - 2 * h == 0


def test_eta_sum_validation_and_linearity():
    p = params(3, 4)
    f = eigfn(3, 4, 2, seed=8)
    ball_vals = np.where(_ball_mask(3, 4, 2), f.values, 0)
    ball = hr.VertexFunction(p, ball_vals)
    for positions in ((1, 5), (2, 2)):  # a position outside 1..n, a repeated one
        with pytest.raises(ValueError):
            hr.eta_face_values(ball, positions)
    doubled = hr.VertexFunction(p, 2 * ball_vals)
    gap = hr.eta_face_values(doubled, (1, 2)) - 2 * hr.eta_face_values(ball, (1, 2))
    assert np.max(np.abs(gap)) <= 1e-9


def test_eta_face_values_read_only_the_ball():
    # the h-face through the origin holds words of weight <= h only, so a full
    # eigenfunction and the same function zeroed off B_h give the same totals
    cells = [(q, n, h) for q, n, h, d in desk_cells() if 0 < d == h] + [(4, 8, 6)]
    for q, n, h in cells:
        f = eigfn(q, n, h)
        ball = hr.VertexFunction(f.params, np.where(_ball_mask(q, n, h), f.values, 0))
        for positions in itertools.combinations(range(1, n + 1), h):
            assert np.array_equal(
                hr.eta_face_values(f, positions), hr.eta_face_values(ball, positions)
            ), (q, n, h, positions)


def test_reconstruct_ball_is_zero_off_the_ball_at_cap_scale():
    checked = 0
    for q, n in ((3, 10), (4, 8)):
        d = 3
        off_ball = ~_ball_mask(q, n, d)
        for h in range(d, n + 1):
            if not hr.check_conditions(q, n, h, d).passed:
                continue
            got = hr.reconstruct_ball(hr.SphereData.from_function(eigfn(q, n, h), d), h)
            assert got.eigenindex == h, (q, n, h)
            assert not np.any(got.values[off_ball]), (q, n, h)
            checked += 1
    assert checked >= 8


def test_eta_discrepancy_small_for_eigenfunctions():
    for q, n, h in ((3, 4, 2), (4, 3, 2), (3, 3, 3)):
        f = eigfn(q, n, h, seed=9)
        assert hr.eta_discrepancy(f, h) <= 1e-8 * f.max_abs()


def test_reconstruct_full_round_trips():
    for q, n in ((3, 4), (4, 3), (3, 3)):
        for h in range(n + 1):
            if not hr.check_conditions(q, n, h, h).passed:
                continue
            f = eigfn(q, n, h, seed=10)
            sphere = hr.SphereData.from_function(f, h)
            got = hr.reconstruct_full(sphere, h)
            assert np.max(np.abs(got.values - f.values)) <= 1e-8 * f.max_abs(), (q, n, h)
            assert got.eigenindex == h
            assert hr.eigen_residual(got, h) <= 1e-8 * (1 + got.max_abs())


def test_reconstruct_full_characters_and_zero():
    q, n, h = 3, 4, 2
    p = params(q, n)
    beta = (0, 1, 0, 2)
    chi = hr.character(p, beta)
    got = hr.reconstruct_full(hr.SphereData.from_function(chi, h), h)
    assert np.max(np.abs(got.values - chi.values)) <= 1e-9

    zero = hr.SphereData(p, h, np.zeros(p.size, dtype=complex), eigenindex=h)
    out = hr.reconstruct_full(zero, h)
    assert np.all(out.values == 0)  # the sphere is a reconstructive set


def test_reconstruct_full_validation_and_h0():
    p = params(3, 4)
    f = eigfn(3, 4, 2, seed=11)
    sphere = hr.SphereData.from_function(f, 1)  # d != h
    with pytest.raises(ValueError):
        hr.reconstruct_full(sphere, 2)

    const = hr.VertexFunction(p, np.full(p.size, 2.5 - 1j), eigenindex=0)
    got = hr.reconstruct_full(hr.SphereData.from_function(const, 0), 0)
    assert np.max(np.abs(got.values - const.values)) == 0


def test_sphere_and_ball_json_round_trip():
    p = params(3, 4)
    f = eigfn(3, 4, 2, seed=12)
    sphere = hr.SphereData.from_function(f, 2)
    text = "".join(hr.vertex_json_chunks(sphere.params, sphere.values, 2, 2))
    back = hr.SphereData.from_dict(json.loads(text))
    assert back.d == 2 and back.eigenindex == 2
    assert np.array_equal(back.values, sphere.values)

    ballr = hr.reconstruct_ball(sphere, 2)
    text = "".join(hr.vertex_json_chunks(ballr.params, ballr.values, 2, 2))
    back_ball = hr.function_from_dict(json.loads(text))
    assert np.array_equal(back_ball.values, ballr.values)

    # omitted words mean zero; the radius comes from the explicit field
    empty = hr.SphereData.from_dict({"q": 3, "n": 4, "d": 2, "eigenindex": 2, "values": []})
    assert empty.d == 2 and np.all(empty.values == 0)
    # without the field the radius is inferred from the words present
    inferred = hr.SphereData.from_dict(
        {"q": 3, "n": 4, "eigenindex": 2, "values": [{"w": "0110", "re": 1.0, "im": 0.0}]}
    )
    assert inferred.d == 2
    with pytest.raises(ValueError):
        hr.SphereData.from_dict(
            {
                "q": 3,
                "n": 4,
                "values": [
                    {"w": "0110", "re": 1.0, "im": 0.0},
                    {"w": "1110", "re": 1.0, "im": 0.0},
                ],
            }
        )
    with pytest.raises(ValueError):
        hr.SphereData.from_dict({"q": 3, "n": 4, "values": []})
    # constructing sphere data with off-domain values is rejected
    with pytest.raises(ValueError):
        hr.SphereData(p, 2, f.values)


def test_uniqueness_via_difference():
    # two eigenfunctions agreeing on W_d agree on B_d: reconstruct their
    # difference's (zero) sphere data
    p = params(3, 4)
    zero = hr.SphereData(p, 2, np.zeros(p.size, dtype=complex))
    out = hr.reconstruct_ball(zero, 2)
    assert np.all(out.values == 0)
