import itertools
import json
import math

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
from hamrecon.spectral import DENSE_MAX_Q, axis_transform

from helpers import desk_cells, eigfn, load_cells, params, tol_for
from oracles import (
    apply_layer_operator,
    dense_layer_matrix,
    dense_pattern_block,
    dense_restriction_lstsq,
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
    dense = np.array([[float(x) for x in row] for row in dense_layer_matrix(q, n, h, d, 1)])
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


@pytest.mark.parametrize("seed", [1, 2000])
def test_batched_drivers_match_per_support_reference(monkeypatch, seed):
    # the composition on every passing desk cell, the cells the work rule
    # sends to the tensor path included, against the paper's recursion run
    # one support set at a time, for two seeded eigenfunctions per cell
    monkeypatch.setattr(recon, "_tensor_path", lambda q, n, d: False)
    monkeypatch.setattr(recon, "_restriction_solve", None)
    compared = 0
    for q, n, h, d in desk_cells():
        if not hr.check_conditions(q, n, h, d).passed:
            continue
        sphere = hr.SphereData.from_function(eigfn(q, n, h, seed=seed), d)
        got = hr.reconstruct_ball(sphere, h).values
        assert np.max(np.abs(got - per_support_ball(sphere, h))) <= 1e-12, (q, n, h, d)
        compared += 1
    assert compared >= 100


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
    # the whole-tensor route on every passing desk cell, forced where the
    # work rule picks the composition: the min-norm solve of the sphere
    # restriction, cut to the ball, with no composed layer
    monkeypatch.setattr(recon, "_tensor_path", lambda q, n, d: True)
    monkeypatch.setattr(recon, "_compose_ball", None)
    compared = 0
    for q, n, h, d in desk_cells():
        if hr.check_conditions(q, n, h, d).passed:
            _tensor_ball_matches(q, n, h, d, 1e-12)
            compared += 1
    assert compared >= 100


def test_full_recovery_never_builds_the_ball(monkeypatch):
    # on every passing desk d = h cell, both sides of the work rule, full
    # recovery divides by the spectrum of the square sphere restriction: it
    # recovers no origin, solves no layer and composes no ball
    called = []
    names = (
        "reconstruct_ball",
        "reconstruct_origin",
        "layer_rhs",
        "solve_layer",
        "_compose_ball",
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


def test_restriction_solve_is_the_min_norm_fit():
    # on every passing desk cell with d < h, the whole tensor against the
    # dense min-norm least-squares solution of T_d g = s: for the sphere of a
    # seeded eigenfunction, and for seeded random sphere data that no
    # eigenfunction restricts to
    compared = 0
    for q, n, h, d in desk_cells():
        if d == h or not hr.check_conditions(q, n, h, d).passed:
            continue
        p = params(q, n)
        rng = np.random.default_rng(q * 1000 + n * 100 + h * 10 + d)
        raw = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
        spheres = [
            hr.SphereData.from_function(eigfn(q, n, h), d),
            hr.SphereData(p, d, np.where(weight_table(q, n) == d, raw, 0)),
        ]
        for sphere, expect in zip(spheres, dense_restriction_lstsq(spheres, h)):
            gap = np.max(np.abs(recon._restriction_solve(sphere, h) - expect))
            assert gap <= 1e-12, (q, n, h, d, gap)
        compared += 1
    assert compared >= 70, compared


def _random_sphere(q, n, h, d):
    """Seeded random values on W_d: no index-h eigenfunction restricts to them when h > n - d."""
    p = params(q, n)
    rng = np.random.default_rng(q * 1000 + n * 100 + h * 10 + d)
    raw = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
    return hr.SphereData(p, d, np.where(weight_table(q, n) == d, raw, 0))


def _ball_on_route(monkeypatch, sphere, h, tensor):
    monkeypatch.setattr(recon, "_tensor_path", lambda q, n, d: tensor)
    return hr.reconstruct_ball(sphere, h).values


def test_both_routes_give_the_ball_of_the_min_norm_fit(monkeypatch):
    # seeded random sphere data on every passing desk cell with d < h, the
    # route forced each way: the dense min-norm least-squares fit of
    # T_d g = s, cut to B_(d-1), with the sphere itself on W_d
    compared = 0
    for q, n, h, d in desk_cells():
        if not 0 < d < h or not hr.check_conditions(q, n, h, d).passed:
            continue
        sphere = _random_sphere(q, n, h, d)
        expect = np.where(weight_table(q, n) < d, dense_restriction_lstsq([sphere], h)[0], 0)
        expect = expect + sphere.values
        for tensor in (True, False):
            got = _ball_on_route(monkeypatch, sphere, h, tensor)
            gap = np.max(np.abs(got - expect))
            assert gap <= 1e-12, (q, n, h, d, tensor, gap)
        compared += 1
    assert compared >= 70, compared


def test_recovery_never_writes_into_the_sphere(monkeypatch):
    # both ball routes and full recovery read the caller's sphere in place,
    # so its values must come back byte for byte
    for q, n, h, d in ((3, 4, 2, 2), (4, 5, 4, 3), (5, 4, 3, 3), (3, 6, 5, 3), (4, 8, 8, 8)):
        assert hr.check_conditions(q, n, h, d).passed, (q, n, h, d)
        sphere = hr.SphereData.from_function(eigfn(q, n, h), d)
        before = sphere.values.tobytes()
        for tensor in (True, False):
            _ball_on_route(monkeypatch, sphere, h, tensor)
            assert sphere.values.tobytes() == before, (q, n, h, d, tensor)
        if d == h:
            hr.reconstruct_full(sphere, h)
            assert sphere.values.tobytes() == before, (q, n, h, d)


def test_permuting_positions_permutes_the_ball(monkeypatch):
    # f(x o pi) on the sphere gives the ball x -> ball(x o pi), on both
    # routes, for data no eigenfunction restricts to: no truth is needed,
    # and an index slip in either layout breaks the symmetry
    cells = [(4, 5, 4, 3), (3, 6, 5, 3), (5, 4, 3, 2), (3, 6, 6, 4), (4, 8, 8, 6)]
    for q, n, h, d in cells:
        assert hr.check_conditions(q, n, h, d).passed, (q, n, h, d)
        sphere = _random_sphere(q, n, h, d)
        perm = np.random.default_rng(n).permutation(n)
        moved = digits_table(q, n)[:, perm] @ (q ** np.arange(n - 1, -1, -1))
        permuted = hr.SphereData(sphere.params, d, sphere.values[moved])
        for tensor in (True, False):
            ball = _ball_on_route(monkeypatch, sphere, h, tensor)
            got = _ball_on_route(monkeypatch, permuted, h, tensor)
            gap = np.max(np.abs(got - ball[moved])) / np.max(np.abs(ball))
            assert gap <= 1e-12, (q, n, h, d, tensor, gap)
            assert np.max(np.abs(got - ball)) > 1e-3, (q, n, h, d, tensor)


def _composition_cells():
    """Every passing cell on the composition side: the desk grid, (23,3), (16,4) and (256,2)."""
    wide = ((q, n, h, d) for q, n in ((23, 3), (16, 4), (256, 2)) for h in range(n + 1)
            for d in range(h + 1))
    for q, n, h, d in itertools.chain(desk_cells(), wide):
        if hr.check_conditions(q, n, h, d).passed and not recon._tensor_path(q, n, d):
            yield q, n, h, d


def test_johnson_layout_holds_each_word_once():
    # the W_d grids hold every word of the sphere spectrum once, except the
    # words with no digit 1, which no layer below d reads, and the stacked
    # grids hold B_(d-1) once
    layouts = {(q, n, d) for q, n, _, d in _composition_cells()}
    for q, n, d in sorted(layouts):
        gather, scatter, shapes, codes = recon._johnson_layout(q, n, d)
        blocks = np.broadcast_to(np.arange((q - 1) ** d), (math.comb(n, d), (q - 1) ** d))
        unread = np.flatnonzero(~(_sub_assignments(q, d) == 1).any(axis=1)[blocks])
        sphere_size = math.comb(n, d) * (q - 1) ** d
        assert np.array_equal(np.sort(np.r_[gather, unread]), np.arange(sphere_size)), (q, n, d)
        below = sum(math.comb(n, k) * (q - 1) ** k for k in range(d))
        assert np.array_equal(np.sort(scatter), np.arange(below)), (q, n, d)
        assert gather.size == sum(rows * patterns for rows, _, patterns in shapes), (q, n, d)
        assert [code.shape for code in codes] == [(out, rows) for rows, out, _ in shapes], (q, n, d)
    assert len(layouts) >= 50, len(layouts)


def _johnson_words(q, n, layers, positions):
    """(k, pattern, X) at each position of the block order of ``layers`` laid end to end.

    The pattern is the (axis, digit) pairs of the digits >= 2, and X the
    digits 1 as indices into the axes off the pattern.
    """
    starts = np.cumsum([0] + [math.comb(n, k) * (q - 1) ** k for k in layers])
    words = []
    for position in positions.reshape(-1).tolist():
        layer = int(np.searchsorted(starts, position, side="right")) - 1
        k = layers[layer]
        block, assignment = divmod(position - int(starts[layer]), (q - 1) ** k)
        axes = recon._supports(n, k)[block].tolist()
        digits = _sub_assignments(q, k)[assignment].tolist()
        pattern = tuple((a, v) for a, v in zip(axes, digits) if v >= 2)
        off = [a for a in range(1, n + 1) if a not in dict(pattern)]
        words.append((k, pattern, frozenset(off.index(a) for a, v in zip(axes, digits) if v == 1)))
    return [words[i : i + positions.shape[1]] for i in range(0, len(words), positions.shape[1])]


def test_johnson_kernels_are_the_dense_pattern_blocks():
    # on each pattern size t, every column of both grids carries one
    # pattern of t digits >= 2, every row one digit-1 set, and the stacked
    # kernel is E^(k)_t E_t^+ from the dense blocks, rows and columns
    # matched by set
    cells = ((3, 4, 2, 2), (4, 5, 4, 3), (5, 4, 3, 3), (3, 6, 5, 3), (4, 6, 5, 4), (16, 4, 4, 3))
    for q, n, h, d in cells:
        assert hr.check_conditions(q, n, h, d).passed and not recon._tensor_path(q, n, d)
        gather, scatter, shapes, _ = recon._johnson_layout(q, n, d)
        kernels = recon._johnson_kernels(q, n, h, d)
        read = write = 0
        for t, ((rows, out, patterns), kernel) in enumerate(zip(shapes, kernels)):
            grid = gather[read : read + rows * patterns].reshape(rows, patterns)
            stack = scatter[write : write + out * patterns].reshape(out, patterns)
            read, write = read + grid.size, write + stack.size
            top = _johnson_words(q, n, [d], grid)
            low = _johnson_words(q, n, list(range(d)), stack)
            for words in (top, low):
                assert all(len(w[1]) == t for row in words for w in row), (q, n, d, t)
                same = all(w[1] == top[0][c][1] for row in words for c, w in enumerate(row))
                assert same, (q, n, d, t)
                assert all(w[::2] == row[0][::2] for row in words for w in row), (q, n, d, t)
            E_d, sets_d, _ = dense_pattern_block(q, n - t, h - t, d - t)
            inverse = np.linalg.pinv(E_d, rcond=1e-10)
            expect = np.zeros((out, rows))
            for s, (k, _, X) in enumerate(row[0] for row in low):
                E_k, sets_k, _ = dense_pattern_block(q, n - t, h - t, k - t)
                block = E_k[sets_k.index(X)] @ inverse
                expect[s] = [block[sets_d.index(row[0][2])] for row in top]
            gap = np.max(np.abs(kernel - expect)) / max(1.0, np.max(np.abs(expect)))
            assert gap <= 1e-13, (q, n, h, d, t, gap)


def _restriction_prefix(q, n, h, d):
    """Words of W_h that the restriction solve writes: those with at most d digits >= 2."""
    return sum(math.comb(n - t, h - t) * math.comb(n, t) * (q - 2) ** t for t in range(d + 1))


def test_restriction_grids_hold_each_word_of_w_h_once():
    # sorted by the layer keys, W_h's block order is permuted, and the
    # prefix that the solve scatters into holds exactly the words with at
    # most d digits >= 2: every passing desk cell, (16,4) and (23,3)
    wide = ((q, n, h, d) for q, n in ((16, 4), (23, 3)) for h in range(n + 1)
            for d in range(h + 1))
    cells = [c for c in itertools.chain(desk_cells(), wide) if hr.check_conditions(*c).passed]
    for q, n, h, d in cells:
        order = recon._grid_order(q, n, h)
        size = math.comb(n, h) * (q - 1) ** h
        assert np.array_equal(np.sort(order), np.arange(size)), (q, n, h)
        high = (_sub_assignments(q, h) >= 2).sum(axis=1)
        reached = np.flatnonzero(np.broadcast_to(high <= d, (math.comb(n, h), high.size)))
        prefix = order[: _restriction_prefix(q, n, h, d)]
        assert np.array_equal(np.sort(prefix), reached), (q, n, h, d)
    assert len(cells) >= 80, len(cells)


def test_restriction_kernels_are_the_dense_pseudo_inverses():
    # on each pattern size t <= d, every column of the W_d and W_h grids
    # carries one pattern of t digits >= 2 and every row one digit-1 set,
    # and the kernel is pinv(E_t) of the dense pattern block, rows and
    # columns matched by set: d = h and d < h, with (q-2)^t > 1 at
    # (4,5,4,3) and (16,4,4,3)
    cells = ((3, 4, 2, 2), (4, 4, 3, 3), (5, 3, 3, 3), (3, 5, 4, 4), (4, 5, 4, 3), (5, 4, 3, 2),
             (3, 6, 5, 3), (4, 6, 5, 4), (16, 4, 4, 3), (16, 3, 3, 3))
    for q, n, h, d in cells:
        assert hr.check_conditions(q, n, h, d).passed, (q, n, h, d)
        kernels = recon._restriction_kernels(q, n, h, d)
        assert len(kernels) == d + 1, (q, n, h, d)
        read = write = 0
        for t, kernel in enumerate(kernels):
            out, rows = kernel.shape
            patterns = math.comb(n, t) * (q - 2) ** t
            grid = recon._grid_order(q, n, d)[read : read + rows * patterns]
            solved = recon._grid_order(q, n, h)[write : write + out * patterns]
            read, write = read + grid.size, write + solved.size
            top = _johnson_words(q, n, [d], grid.reshape(rows, patterns))
            low = _johnson_words(q, n, [h], solved.reshape(out, patterns))
            for words in (top, low):
                assert all(len(w[1]) == t for row in words for w in row), (q, n, h, d, t)
                same = all(w[1] == top[0][c][1] for row in words for c, w in enumerate(row))
                assert same, (q, n, h, d, t)
                assert all(w[::2] == row[0][::2] for row in words for w in row), (q, n, h, d, t)
            E, sets_d, sets_h = dense_pattern_block(q, n - t, h - t, d - t)
            inverse = np.linalg.pinv(E, rcond=1e-10)
            ys, xs = [row[0][2] for row in top], [row[0][2] for row in low]
            expect = np.array([[inverse[sets_h.index(x), sets_d.index(y)] for y in ys] for x in xs])
            expect = expect.reshape(out, rows)
            gap = np.max(np.abs(kernel - expect)) / max(1.0, np.max(np.abs(expect)))
            assert gap <= 1e-13, (q, n, h, d, t, gap)
        assert write == _restriction_prefix(q, n, h, d), (q, n, h, d)


def test_tensor_path_matches_per_support_reference_at_cap_scale(monkeypatch):
    # both routes, forced, on the four cap cells; the bound is relative to
    # the largest value, 1.  Three balls with d < h against the seeded
    # eigenfunction itself.
    for q, n, h in ((4, 8, 6), (3, 10, 8), (3, 10, 10), (4, 8, 8)):
        sphere = hr.SphereData.from_function(eigfn(q, n, h), h)
        reference = per_support_ball(sphere, h)
        for tensor in (True, False):
            monkeypatch.setattr(recon, "_tensor_path", lambda q, n, d, tensor=tensor: tensor)
            gap = np.max(np.abs(hr.reconstruct_ball(sphere, h).values - reference))
            assert gap <= 1e-11, (q, n, h, tensor, gap)
        gap = np.max(np.abs(hr.reconstruct_full(sphere, h).values - per_support_full(sphere, h)))
        assert gap <= 1e-11, (q, n, h, gap)
    for q, n, h, d in ((3, 10, 10, 8), (3, 10, 8, 6), (4, 8, 8, 6)):
        f = eigfn(q, n, h)
        mask = _ball_mask(q, n, d)
        for tensor in (True, False):
            monkeypatch.setattr(recon, "_tensor_path", lambda q, n, d, tensor=tensor: tensor)
            got = hr.reconstruct_ball(hr.SphereData.from_function(f, d), h).values
            assert not np.any(got[~mask]), (q, n, h, d, tensor)
            err = np.max(np.abs(got[mask] - f.values[mask])) / f.max_abs()
            assert err <= 1e-13, (q, n, h, d, tensor, err)


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


def test_tensor_path_selection():
    cells = load_cells()
    # every ball-wide and cli-roundtrip cell stays on the composition
    for q, n in cells.BALL_QN:
        assert not any(recon._tensor_path(q, n, d) for d in cells.BALL_RADII), (q, n)
    for q, n, h in cells.CLI_CELLS:
        assert not recon._tensor_path(q, n, h)
    # the measured window of the rule: sum_{k<=d} |B_k| / q^n is 1.10 at
    # (4,8,.,6), where the composition is the faster, and 1.45 at (3,10,.,7)
    assert not recon._tensor_path(4, 8, 6) and recon._tensor_path(3, 10, 7)
    assert not recon._tensor_path(3, 10, 6) and recon._tensor_path(4, 8, 7)
    # inside the default state cap only q <= 10 ever selects it (q = 10
    # only at (10,4,4)), so no dense q x q kernel is built above DENSE_MAX_Q
    cap = DEFAULT_MAX_STATES
    chosen = set()
    for q in range(3, cap + 1):
        n = 1
        while q**n <= cap:
            if any(recon._tensor_path(q, n, d) for d in range(n + 1)):
                chosen.add(q)
            n += 1
    assert chosen == set(range(3, 11)) and max(chosen) <= DENSE_MAX_Q


def test_layer_rhs_matches_per_support_reference_at_cap_scale():
    # the paper's step on the first, a middle and the last support of every
    # layer of two cap-scale cells: the right-hand side against the
    # reference's, and its solve against the seeded eigenfunction
    for q, n, h in ((3, 10, 8), (4, 8, 8)):
        f = eigfn(q, n, h)
        p = params(q, n)
        sphere = hr.SphereData.from_function(f, h)
        for k in range(1, h):
            supports = recon._supports(n, k)
            for index in sorted({0, len(supports) // 2, len(supports) - 1}):
                positions = tuple(int(x) for x in supports[index])
                system = hr.layer_rhs(sphere, f, positions, h)
                ranks, rhs = support_rhs(sphere, f.values, positions, h)
                gap = np.max(np.abs(system.rhs - rhs))
                assert gap <= 1e-10 * np.max(np.abs(rhs)), (q, n, h, k, positions, gap)
                solution = hr.solve_layer(system, q, n, h, h)
                assert np.array_equal(ranks, _sub_assignments(q, k) @ position_weights(p, positions))
                err = np.max(np.abs(solution - f.values[ranks]))
                assert err <= 1e-11, (q, n, h, k, positions, err)


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
    # the closed form against direct axis sums on every h-face
    for q, n, h in ((3, 4, 2), (4, 3, 2), (3, 3, 3)):
        f = eigfn(q, n, h, seed=9)
        for positions in itertools.combinations(range(1, n + 1), h):
            gap = np.abs(hr.eta_face_values(f, positions) - orthogonal_face_totals(f, positions))
            assert np.max(gap) <= 1e-8 * f.max_abs(), (q, n, h, positions)


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
    # a word of another weight, with the radius inferred and with it given
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
        hr.SphereData.from_dict(
            {"q": 3, "n": 4, "d": 2, "values": [{"w": "1110", "re": 1.0, "im": 0.0}]}
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
