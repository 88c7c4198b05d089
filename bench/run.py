"""hamrecon benchmark: one workload, run in child processes, checked and summarized.

    python3 bench/run.py --workload ball-wide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports hamrecon from ``src/``.
The workloads, metric names, units and bounds are in ``BENCHMARK.json``,
and ``bench/plan.json`` records each workload's cells and which
end-to-end metric each per-layer metric should move.

This process only starts workers and does arithmetic: every operation
runs in a child under a shared address-space cap, and each run starts
from fresh processes, so the package's caches start cold.  With
``--trace 0`` the last line of standard output is the end-to-end result;
with ``--trace 1`` it holds the per-layer metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from statistics import median
import time
from pathlib import Path

from cells import FULL_CAP_CELLS
from child import ChildResult, child_env, run_child
from stats import fail_rate, tail_or_max

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUDGET_S = 170  # every child is killed before the run reaches this
SETUP_RUNS = 9  # set-up samples per run: the worker plus eight set-up-only children
STARTUP_RUNS = 3
CHECK_MISSES = ("check",)
# Per-layer metrics that include the work done during set-up.
SETUP_LAYERS = ("spectral.random_eigenfunction_s",)


class BenchError(RuntimeError):
    pass


class Launcher:
    """Starts workers for one run and collects what they report."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = child_env(ROOT)
        self.deadline = time.perf_counter() + BUDGET_S
        self.count = 0

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def worker(self, *extra, trace=None, seconds=None) -> tuple[dict | None, ChildResult]:
        self.count += 1
        out = self.workdir / f"worker-{self.count}.json"
        argv = [sys.executable, str(BENCH / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds if seconds is None else seconds),
                "--trace", str(self.args.trace if trace is None else trace),
                "--workdir", str(self.workdir), "--out", str(out), *extra]
        child = run_child(argv, timeout=self.remaining(), env=self.env, cwd=ROOT,
                          stdout=sys.stderr)
        result = json.loads(out.read_text()) if out.is_file() else None
        return result, child

    def main_worker(self) -> tuple[dict, ChildResult]:
        result, child = self.worker()
        if result is None or child.kind is not None:
            raise BenchError(f"{self.args.workload} worker ended with {child.kind}")
        return result, child

    def cell_worker(self, cell, trace=None) -> tuple[dict | None, ChildResult]:
        return self.worker("--cell", ",".join(map(str, cell)), trace=trace, seconds=0)

    def full_cap(self) -> dict:
        """One child per cell, so an out-of-memory cell costs only its own operation.

        A traced run first runs the first cell untraced.  That time only pairs
        with the traced time of the same cell for the tracing overhead; it is
        not an operation of the run.
        """
        records, setups, layers = [], [], []
        untraced_s = None
        if self.args.trace:
            result, child = self.cell_worker(FULL_CAP_CELLS[0], trace=0)
            if result is None or child.kind is not None:
                raise BenchError(f"untraced cell {FULL_CAP_CELLS[0]} ended with {child.kind}")
            untraced_s = result["records"][0]["s"]
        for cell in FULL_CAP_CELLS:
            result, child = self.cell_worker(cell)
            if result is None:  # died outside an operation: count the cell as failed
                recs = [{"cell": list(cell), "kind": child.kind or "error", "s": child.seconds}]
            else:
                recs = result["records"]
                setups.append(result["setup_s"])
                layers.append(result)
            for rec in recs:
                rec["rss_mb"] = child.rss_mb
            records.extend(recs)
        if not setups:
            raise BenchError("no full-cap cell got through set-up")
        return {"records": records, "setups": setups, "layers": layers,
                "rss_mb": max(r["rss_mb"] for r in records), "untraced_s": untraced_s}

    def pooled(self) -> dict:
        """Set-up-only children for the set-up median, then one worker for the passes.

        The worker's peak RSS from wait4 also covers the CLI children it waited for.
        """
        setups = []
        if not self.args.trace:
            for _ in range(SETUP_RUNS - 1):
                result, child = self.worker("--setup-only", seconds=0)
                if result is None:
                    raise BenchError(f"set-up child ended with {child.kind}")
                setups.append(result["setup_s"])
        result, child = self.main_worker()
        setups.append(result["setup_s"])
        return {"records": result["records"], "setups": setups, "layers": [result],
                "rss_mb": child.rss_mb}

    def startup_seconds(self) -> float:
        times = []
        for _ in range(STARTUP_RUNS):
            child = run_child([sys.executable, "-c", "import hamrecon.cli"],
                              timeout=self.remaining(), env=self.env, cwd=ROOT)
            if child.kind is not None:
                raise BenchError(f"importing hamrecon.cli ended with {child.kind}")
            times.append(child.seconds)
        return median(times)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: dict) -> tuple[dict[str, float], list[str]]:
    records = run["records"]
    ok = [r["s"] for r in records if r["kind"] is None]
    wall = sum(r["s"] for r in records)
    label, tail = tail_or_max(ok) if ok else ("max", 0.0)
    values = {
        "setup_s": median(run["setups"]),
        "ops_per_s": len(ok) / wall,
        "op_p50_s": median(ok) if ok else 0.0,
        "op_tail_s": tail,
        "ok_rate": 1.0 - fail_rate(r["kind"] for r in records),
        "peak_rss_mb": run["rss_mb"],
    }
    notes = [
        f"op_p50_s over {len(ok)} successful operations",
        f"op_tail_s is {label} of {len(ok)} successful operations",
        f"setup_s is the median of {len(run['setups'])} set-ups",
    ]
    return values, notes


def _overhead(untraced: list[float], traced: list[float]) -> tuple[float, float]:
    base = median(untraced)
    extra = median(traced) - base
    return extra, extra / base


def per_layer(run: dict, workload: str,
              startup_s: float | None) -> tuple[dict[str, float], list[str]]:
    records = run["records"]
    values: dict[str, float] = {}
    notes: list[str] = []
    for result in run["layers"]:
        passes = max(1, len(result["pass_seconds"].get("traced", []))
                     + len(result["pass_seconds"].get("in_process_traced", [])))
        for name, value in result["spans"].items():
            values[name] = values.get(name, 0.0) + value / passes
        for name in SETUP_LAYERS:
            values[name] = values.get(name, 0.0) + result["setup_spans"].get(name, 0.0)
    values["fail_rate"] = fail_rate(r["kind"] for r in records)
    for quality in ("max_rel_error", "eigen_residual"):
        seen = [r[quality] for r in records if quality in r]
        values[f"recon.{quality}"] = max(seen) if seen else 0.0

    if workload == "full-cap":
        for r in records:
            key = "cell." + "-".join(map(str, r["cell"]))
            values[f"{key}.s"] = r["s"]
            values[f"{key}.rss_mb"] = r["rss_mb"]
        for result in run["layers"]:
            for r in result["records"]:
                share = result["spans"].get("recon.layer_rhs_s", 0.0) / r["s"]
                notes.append(f"recon.layer_rhs is {share:.1%} of cell {tuple(r['cell'])}")
        first = records[0]
        if first["kind"] is None:
            values["trace.overhead_s"], values["trace.overhead_share"] = _overhead(
                [run["untraced_s"]], [first["s"]])
    else:
        seconds = run["layers"][0]["pass_seconds"]
        mode = "in_process_" if workload == "cli-roundtrip" else ""
        values["trace.overhead_s"], values["trace.overhead_share"] = _overhead(
            seconds[mode + "untraced"], seconds[mode + "traced"])

    if workload == "cli-roundtrip":
        values["cli.startup_s"] = startup_s
        child_ops = [r for r in records if not r["in_process"] and r["kind"] is None]
        by_pass: dict[int, list[dict]] = {}
        for r in child_ops:
            by_pass.setdefault(r["pass"], []).append(r)
        for step in ("generate", "reconstruct", "local_dist"):
            values[f"cli.{step}_s"] = median(
                sum(r["steps"][step] for r in ops) for ops in by_pass.values())
        values["cli.bytes_written"] = median(
            sum(r["bytes_written"] for r in ops) for ops in by_pass.values())
    return values, notes


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hamrecon" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: no hamrecon sources or BENCHMARK.json under {ROOT}\n")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    out_root = ROOT / ".bench_out"
    workdir = out_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        launcher = Launcher(args, workdir)
        run = launcher.full_cap() if args.workload == "full-cap" else launcher.pooled()
        if args.trace:
            startup = launcher.startup_seconds() if args.workload == "cli-roundtrip" else None
            (values, notes), declared = per_layer(run, args.workload, startup), spec["per_layer"]
            for spans in workdir.glob("spans-*.json"):
                spans.replace(out_root / f"{args.workload}-{spans.name}")
        else:
            (values, notes), declared = end_to_end(run), spec["end_to_end"]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = run["records"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    failed = [f"{r['cell']} {r['kind']}" for r in records if r["kind"] is not None]
    if failed:
        print(f"{args.workload} failed operations: " + ", ".join(failed))
    print(json.dumps({
        "correct": not any(r["kind"] in CHECK_MISSES for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
