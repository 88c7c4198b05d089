"""The three workloads: their cells, seeded inputs, one operation and its check.

Each workload object builds its inputs from the seed when it is created,
which is part of set-up, then exposes ``cells``, ``operate(cell)`` (the
timed call) and ``check(cell, output)`` (run outside the timed interval;
raises ``OpFailed`` on a miss and returns quality numbers otherwise).
Package functions are looked up on their module at call time, so the
span recorder sees every call made here.

Importing this module imports hamrecon and numpy, so a worker imports it
only after its set-up clock has started.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from hamrecon import cli, coeffs, localdist, recon, scheme, spectral

from cells import BALL_QN, BALL_RADII, CLI_CELLS, FULL_CAP_CELLS
from child import run_child

# The acceptance suite's tolerance (criteria 6 and 7), not loosened.
TOLERANCE = 1e-8

STEP_TIMEOUT_S = 120


class OpFailed(Exception):
    """An operation failed in a named way: "check", "exit=<code>", ..."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


def subseed(seed: int, *tag: int) -> int:
    """Independent, reproducible seed for one input of one workload."""
    return int(np.random.SeedSequence([seed % 2**32, *tag]).generate_state(1)[0])


def seeded_eigenfunction(seed: int, q: int, n: int, h: int):
    params = scheme.SchemeParams(q, n)
    return spectral.random_eigenfunction(params, h, subseed(seed, q, n, h))


def warm_caches(q: int, n: int, h: int, d: int) -> None:
    """Fill the cached tables a recovery of this cell reads."""
    scheme.weight_ranks(q, n, d)
    coeffs.check_conditions(q, n, h, d)
    for k in range(1, d + 1):
        scheme.digits_table(q - 1, k)
        scheme.digits_table(q, k)


def full_error(f, out) -> float:
    return float(np.max(np.abs(out.values - f.values))) / f.max_abs()


class FullCap:
    """reconstruct_full (d = h) on the cap-scale cells, one cell per process."""

    name = "full-cap"

    def __init__(self, seed: int, cells=FULL_CAP_CELLS):
        self.cells = list(cells)
        self.inputs = {}
        for q, n, h in self.cells:
            f = seeded_eigenfunction(seed, q, n, h)
            self.inputs[(q, n, h)] = (f, recon.SphereData.from_function(f, h))
            warm_caches(q, n, h, h)

    def operate(self, cell):
        return recon.reconstruct_full(self.inputs[cell][1], cell[2])

    def check(self, cell, out) -> dict:
        f = self.inputs[cell][0]
        error = full_error(f, out)
        residual = spectral.eigen_residual(out, cell[2])
        if error > TOLERANCE or residual > TOLERANCE * (1.0 + out.max_abs()):
            raise OpFailed("check", f"{cell}: error {error:.3e}, residual {residual:.3e}")
        return {"max_rel_error": error, "eigen_residual": residual}


class BallWide:
    """reconstruct_ball on every passing cell with 1 <= d <= 3 at (3,10) and (4,8)."""

    name = "ball-wide"

    def __init__(self, seed: int):
        self.cells = []
        self.inputs = {}
        functions = {}
        for q, n in BALL_QN:
            for d in BALL_RADII:
                for h in range(d, n + 1):
                    if not coeffs.check_conditions(q, n, h, d).passed:
                        continue
                    if (q, n, h) not in functions:
                        functions[(q, n, h)] = seeded_eigenfunction(seed, q, n, h)
                    f = functions[(q, n, h)]
                    self.cells.append((q, n, h, d))
                    self.inputs[(q, n, h, d)] = (f, recon.SphereData.from_function(f, d))
                    warm_caches(q, n, h, d)

    def operate(self, cell):
        return recon.reconstruct_ball(self.inputs[cell][1], cell[2])

    def check(self, cell, out) -> dict:
        q, n, h, d = cell
        f = self.inputs[cell][0]
        inside = scheme.weight_table(q, n) <= d
        error = float(np.max(np.abs(out.values[inside] - f.values[inside]))) / f.max_abs()
        if error > TOLERANCE:
            raise OpFailed("check", f"{cell}: error {error:.3e}")
        return {"max_rel_error": error}


class CliRoundtrip:
    """generate, reconstruct --mode full and local-dist, each as its own CLI process."""

    name = "cli-roundtrip"

    def __init__(self, seed: int, workdir: Path):
        self.cells = list(CLI_CELLS)
        self.truth, self.faces, self.paths, self.args = {}, {}, {}, {}
        rng = random.Random(subseed(seed))
        for q, n, h in self.cells:
            cell = (q, n, h)
            self.truth[cell] = seeded_eigenfunction(seed, q, n, h)
            positions = sorted(rng.sample(range(1, n + 1), 2))
            anchor = "".join(str(rng.randrange(q)) for _ in range(n))
            self.faces[cell] = (positions, anchor)
            sphere, full, local = (workdir / f"{q}-{n}-{h}-{part}.json"
                                   for part in ("sphere", "full", "local"))
            self.paths[cell] = (sphere, full, local)
            self.args[cell] = {
                "generate": ["generate", "--q", str(q), "--n", str(n), "--h", str(h),
                             "--seed", str(subseed(seed, q, n, h)), "--d", str(h),
                             "--output", str(sphere)],
                "reconstruct": ["reconstruct", "--mode", "full", "--input", str(sphere),
                                "--output", str(full)],
                "local_dist": ["local-dist", "--input", str(full),
                               "--positions", ",".join(map(str, positions)), "--anchor", anchor],
            }

    def operate(self, cell):
        """The three steps as child processes; returns per-step wall time."""
        steps = {}
        for step, args in self.args[cell].items():
            argv = [sys.executable, "-m", "hamrecon.cli", *args]
            if step == "local_dist":
                with open(self.paths[cell][2], "w") as out:
                    result = run_child(argv, timeout=STEP_TIMEOUT_S, stdout=out)
            else:
                result = run_child(argv, timeout=STEP_TIMEOUT_S, stdout=subprocess.DEVNULL)
            if result.kind is not None:
                raise OpFailed(result.kind, f"{step} on {cell}")
            steps[step] = result.seconds
        return {"steps": steps}

    def operate_in_process(self, cell):
        """The same three steps through ``hamrecon.cli.main`` in this process."""
        for step, args in self.args[cell].items():
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = cli.main(list(args))
            if code != 0:
                raise OpFailed(f"exit={code}", f"{step} on {cell}")
            if step == "local_dist":
                self.paths[cell][2].write_text(captured.getvalue())
        return {}

    def check(self, cell, out) -> dict:
        sphere_path, full_path, local_path = self.paths[cell]
        truth = self.truth[cell]
        got = spectral.function_from_dict(json.loads(full_path.read_text()))
        error = full_error(truth, got)
        if error > TOLERANCE:
            raise OpFailed("check", f"{cell}: written function off by {error:.3e}")
        positions, anchor = self.faces[cell]
        word = scheme.parse_word(truth.params, anchor)
        expect = localdist.local_distribution(truth, positions, word).components
        report = json.loads(local_path.read_text())
        comps = np.array([c["re"] + 1j * c["im"] for c in report["components"]])
        # each component sums q^|positions| values, each within the tolerance
        if np.max(np.abs(comps - expect)) > TOLERANCE * cell[0] ** len(positions):
            raise OpFailed("check", f"{cell}: local distribution read back differs")
        return {
            "max_rel_error": error,
            "bytes_written": sphere_path.stat().st_size + full_path.stat().st_size,
        }


def make(name: str, seed: int, workdir: Path, cell=None):
    if name == "full-cap":
        return FullCap(seed, FULL_CAP_CELLS if cell is None else [cell])
    if name == "ball-wide":
        return BallWide(seed)
    if name == "cli-roundtrip":
        return CliRoundtrip(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
