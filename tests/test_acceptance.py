"""Acceptance suite: one test per release criterion, desk-scale grids.

Desk grid: q in {3, 4, 5}, n in {3, 4, 5, 6} with q^n <= 4096, all
0 <= h <= n, all 0 <= d <= h.  Every test prints a single PASS line with
its measured runtime; tolerances and budgets are pinned here and nowhere
else.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

import hamrecon as hr
from hamrecon.cli import main as cli_main
from hamrecon.scheme import weight_ranks, weight_table

from helpers import DESK_QN, desk_cells, eigfn, params
from oracles import orthogonal_face_totals


def _finish(name: str, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS {name}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_krawtchouk_cross_check():
    started = time.perf_counter()
    checked = 0
    for q in (2, 3, 4, 5):
        for N in range(13):
            for t in range(N + 1):
                row = [hr.krawtchouk_value(q, i, t, N) for i in range(N + 1)]
                assert hr.generating_coefficients(q, t, N) == row
                checked += N + 1
    _finish(
        "criterion 1",
        started,
        1.0,
        f"defining sum == generating polynomial on {checked} values (q<=5, N<=12)",
    )


def test_criterion_2_eigen_machinery():
    started = time.perf_counter()
    cells = 0
    for q, n in DESK_QN:
        size = q**n
        for h in range(n + 1):
            f = eigfn(q, n, h)
            tol = 1e-9 * (1.0 + f.max_abs())
            assert hr.eigen_residual(f, h) <= tol, (q, n, h)
            for d in range(n + 1):
                lam = hr.krawtchouk_value(q, d, h, n)
                moved = hr.apply_distance_operator(f, d)
                assert np.max(np.abs(moved.values - lam * f.values)) <= tol, (q, n, h, d)
            ghat = hr.fourier_transform(f).values
            off = ghat[weight_table(q, n) != h]
            if off.size:
                assert np.max(np.abs(off)) <= 1e-9 * size, (q, n, h)
            cells += 1
    _finish(
        "criterion 2",
        started,
        30.0,
        f"ball equation, D_d eigenvalues and Fourier support on {cells} (q,n,h) cells",
    )


def test_criterion_3_face_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    triples = 0
    for q, n in ((3, 4), (4, 3)):
        for h in range(n + 1):
            fs = [eigfn(q, n, h, seed) for seed in range(5)]
            for trial in range(100):
                f = fs[trial % len(fs)]
                k = int(rng.integers(0, n + 1))
                positions = tuple(
                    sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
                )
                anchor = tuple(rng.integers(0, q, n))
                residual = hr.verify_face_relation(f, positions, anchor, h)
                assert residual <= 1e-9 * f.max_abs(), (q, n, h, positions, anchor, residual)
                triples += 1
    # negative control: a point perturbation is not an eigenfunction
    f = eigfn(3, 4, 2, seed=0)
    broken = f.copy()
    anchor = (1, 2, 0, 0)
    broken.values[hr.word_rank(broken.params, anchor)] += 0.05
    assert hr.verify_face_relation(broken, (1, 2), anchor, 2) > 1e-3
    _finish(
        "criterion 3",
        started,
        30.0,
        f"orthogonal-face identity on {triples} random (f, I, a) triples + negative control",
    )


def test_criterion_4_transfer_end_to_end():
    started = time.perf_counter()
    q = 3
    pairs = 0
    for n in (3, 4):
        p = params(q, n)
        anchors = [hr.rank_word(p, r) for r in range(p.size)]
        for h in range(n + 1):
            for k in range(n + 1):
                if k > h:  # no transfer formula
                    continue
                for positions in itertools.combinations(range(1, n + 1), k):
                    comp = hr.complement(positions, n)
                    for seed in range(10):
                        f = eigfn(q, n, h, seed)
                        for anchor in anchors:
                            moved = hr.transfer_orthogonal(
                                hr.local_distribution(f, positions, anchor), h
                            )
                            direct = hr.local_distribution(f, comp, anchor)
                            err = np.max(np.abs(moved.components - direct.components))
                            assert err <= 1e-9, (n, h, k, positions, anchor, seed, err)
                            pairs += 1
    _finish(
        "criterion 4",
        started,
        60.0,
        f"transfer == direct enumeration on {pairs} (h, k, I, a, f) combinations (q=3, n<=4)",
    )


def test_criterion_5_condition_operator_equivalence():
    started = time.perf_counter()
    tuples = 0
    for q, n, h, d in desk_cells():
        for k in range(1, d + 1):
            has_zero = 0 in hr.eigen_sums(q, n, h, d, k)
            singular = hr.is_singular(hr.dense_layer_matrix(q, n, h, d, k))
            assert has_zero == singular, (q, n, h, d, k)
            tuples += 1
    _finish(
        "criterion 5",
        started,
        60.0,
        f"zero nondegeneracy sum <=> exactly singular dense operator on {tuples} layers",
    )


def test_criterion_6_ball_round_trip():
    started = time.perf_counter()
    recovered = skipped = 0
    for q, n, h, d in desk_cells():
        if not hr.check_conditions(q, n, h, d).passed:
            skipped += 1
            continue
        f = eigfn(q, n, h)
        sphere = hr.SphereData.from_function(f, d)
        got = hr.reconstruct_ball(sphere, h)
        mask = weight_table(q, n) <= d
        err = np.max(np.abs(got.values[mask] - f.values[mask]))
        assert err <= 1e-8 * f.max_abs(), (q, n, h, d, err)
        recovered += 1
    # zero data recovers the zero ball exactly
    p = params(3, 4)
    zero = hr.SphereData(p, 2, np.zeros(p.size, dtype=complex))
    assert np.all(hr.reconstruct_ball(zero, 2).values == 0)
    _finish(
        "criterion 6",
        started,
        120.0,
        f"sphere-to-ball recovery on {recovered} passing cells ({skipped} condition-fail cells skipped)",
    )


def test_criterion_7_full_round_trip():
    started = time.perf_counter()
    recovered = 0
    for q, n in DESK_QN:
        p = params(q, n)
        for h in range(n + 1):
            if not hr.check_conditions(q, n, h, h).passed:
                continue
            f = eigfn(q, n, h)
            got = hr.reconstruct_full(hr.SphereData.from_function(f, h), h)
            err = np.max(np.abs(got.values - f.values))
            assert err <= 1e-8 * f.max_abs(), (q, n, h, err)
            assert hr.eigen_residual(got, h) <= 1e-8 * (1.0 + got.max_abs()), (q, n, h)
            # characters come back essentially exactly
            beta = hr.rank_word(p, int(weight_ranks(q, n, h)[0]))
            chi = hr.character(p, beta)
            chi_back = hr.reconstruct_full(hr.SphereData.from_function(chi, h), h)
            assert np.max(np.abs(chi_back.values - chi.values)) <= 1e-9, (q, n, h)
            recovered += 1
    _finish(
        "criterion 7",
        started,
        120.0,
        f"sphere-to-function recovery (d = h) on {recovered} passing cells incl. characters",
    )


def test_criterion_8_eta_closed_form():
    started = time.perf_counter()
    q, n, h = 3, 4, 2
    p = params(q, n)
    rng = np.random.default_rng(101)
    checked = 0
    faces = list(itertools.combinations(range(1, n + 1), h))
    while checked < 100:
        f = eigfn(q, n, h, seed=checked % 7)
        ball = hr.VertexFunction(p, np.where(weight_table(q, n) <= h, f.values, 0), eigenindex=h)
        positions = faces[int(rng.integers(0, len(faces)))]
        beta = [0] * n
        for pos in positions:
            beta[pos - 1] = int(rng.integers(0, q))
        # the face routine returns eta for every word of the face, in base-q order
        face_rank = hr.word_rank(params(q, h), [beta[pos - 1] for pos in positions])
        closed = hr.eta_face_values(ball, positions)[face_rank]
        direct = orthogonal_face_totals(f, positions)[face_rank]
        assert abs(closed - direct) <= 1e-9 * (1.0 + f.max_abs())
        checked += 1
    _finish(
        "criterion 8",
        started,
        10.0,
        f"orthogonal-face total closed form == direct summation on {checked} samples",
    )


def test_criterion_9_exactness_and_determinism(capsys, tmp_path):
    started = time.perf_counter()
    # exactness: every coefficient survives an exact serialization round trip
    audited = 0
    for q, n, h, d in desk_cells():
        if (h + d) % 3 or d == 0:  # representative subsample, k both <= n-h and > n-h
            continue
        for k in range(1, d + 1):
            table = hr.coefficient_table(q, n, h, k)
            for row in table:
                for x in row:
                    assert isinstance(x, (int, Fraction)) and not isinstance(x, float)
                    assert Fraction(str(x)) == x
                    audited += 1
            for s in hr.eigen_sums(q, n, h, d, k):
                assert isinstance(s, (int, Fraction)) and not isinstance(s, float)
                assert Fraction(str(s)) == s
                audited += 1

    # determinism: identical seeds and flags give bitwise-identical reports
    outputs = []
    for _ in range(2):
        assert cli_main(["check", "--q", "3", "--n", "5", "--h", "3", "--d", "3"]) == 0
        assert (
            cli_main(
                ["verify", "--mode", "full", "--q", "3", "--n", "4", "--h", "2", "--seed", "9"]
            )
            == 0
        )
        assert cli_main(["sweep", "--q", "3", "--n", "3,4"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0].splitlines()[0])  # reports stay machine-parseable

    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"gen-{tag}.json"
        assert (
            cli_main(
                ["generate", "--q", "4", "--n", "3", "--h", "2", "--seed", "3",
                 "--d", "2", "--output", str(path)]
            )
            == 0
        )
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    _finish(
        "criterion 9",
        started,
        60.0,
        f"{audited} exact values round-tripped; CLI reports bitwise reproducible",
    )
