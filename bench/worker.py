"""One benchmark worker process: set up, run timed passes, check, report.

Started by ``bench/run.py``::

    python3 bench/worker.py --workload ball-wide --seed 1 --seconds 20 \\
        --trace 0 --workdir .bench_out/run-1 --out .bench_out/run-1/result.json

A pass runs every cell of the workload once.  Whole passes repeat until
``--seconds`` have gone by, so a run times at least that long.  With
``--trace 1`` untraced and traced passes alternate, so the difference of
their wall times is the tracing overhead; only the traced passes feed the
span summary.  With ``--setup-only`` the worker stops after set-up, and
with ``--cell`` it runs one full-cap cell once.  The result is one JSON file.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from child import MEMORY_EXIT  # noqa: E402
from spans import Recorder, summarize  # noqa: E402
import workloads  # noqa: E402  (imports hamrecon: part of set-up)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cell", type=str, default=None, help="full-cap cell as q,n,h")
    return parser.parse_args(argv)


class Runner:
    """Runs passes over a workload and keeps one record per operation."""

    def __init__(self, workload, recorder: Recorder | None):
        self.workload = workload
        self.recorder = recorder
        self.records: list[dict] = []
        self.pass_seconds: dict[str, list[float]] = {}
        self.passes = 0
        self.summary: dict[str, float] = {}
        self.dump: list[list] = []

    def run_pass(self, traced: bool, in_process: bool = False) -> None:
        workload = self.workload
        operate = workload.operate_in_process if in_process else workload.operate
        wall = 0.0
        outputs = []
        for index, cell in enumerate(workload.cells):
            record = {"cell": list(cell), "pass": self.passes, "traced": traced,
                      "in_process": in_process, "kind": None}
            if traced:
                self.recorder.op = (self.passes, index)
                self.recorder.install()
            out = None
            started = time.perf_counter()
            try:
                out = operate(cell)
            except MemoryError:
                record["kind"] = "oom"
            except workloads.OpFailed as exc:
                record["kind"], record["detail"] = exc.kind, str(exc)
            except Exception:  # a failed operation is recorded, not fatal
                record["kind"], record["detail"] = "error", traceback.format_exc()
            record["s"] = time.perf_counter() - started
            if traced:
                self.recorder.uninstall()
            wall += record["s"]
            outputs.append(out)
            self.records.append(record)
        # checks run after the pass, outside every timed interval
        for record, out in zip(self.records[-len(outputs):], outputs):
            cell = tuple(record["cell"])
            if record["kind"] is None:
                if isinstance(out, dict):
                    record.update(out)
                try:
                    record.update(workload.check(cell, out))
                except workloads.OpFailed as exc:
                    record["kind"], record["detail"] = exc.kind, str(exc)
            if record["kind"] is not None:
                sys.stderr.write(f"operation failed: {record.get('detail', record['kind'])}\n")
        label = ("in_process_" if in_process else "") + ("traced" if traced else "untraced")
        self.pass_seconds.setdefault(label, []).append(wall)
        self.passes += 1
        if traced:
            self.absorb(*self.recorder.take())

    def absorb(self, spans, calls, into=None) -> None:
        """Add a batch of spans to the summary and to the span dump."""
        into = self.summary if into is None else into
        for name, value in summarize(spans, calls).items():
            into[name] = into.get(name, 0.0) + value
        offset = len(self.dump)
        self.dump.extend(
            [s.op, s.name, s.start, s.end, s.parent + offset if s.parent >= 0 else -1, s.counts]
            for s in spans
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.op = "setup"
        recorder.install()
    cell = tuple(int(x) for x in args.cell.split(",")) if args.cell else None
    workload = workloads.make(args.workload, args.seed, args.workdir, cell)
    setup_s = time.perf_counter() - STARTED
    runner = Runner(workload, recorder)
    setup_summary: dict[str, float] = {}
    if recorder is not None:
        recorder.uninstall()
        runner.absorb(*recorder.take(), into=setup_summary)

    if not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        # Untraced and traced passes alternate in a traced run.  For the CLI
        # the child-process steps give untraced per-step wall times, and the
        # in-process pairs give the spans and the tracing overhead.
        in_process = args.workload == "cli-roundtrip"
        if not args.trace:
            cycle = [(False, False)]
        elif cell is not None:
            cycle = [(True, False)]
        elif in_process:
            cycle = [(False, False), (False, True), (True, True)]
        else:
            cycle = [(False, False), (True, False)]
        # repeat whole cycles until the run has timed at least --seconds
        while True:
            for traced, inside in cycle:
                runner.run_pass(traced=traced, in_process=inside)
            if time.perf_counter() >= deadline:
                break

    result = {
        "setup_s": setup_s,
        "records": runner.records,
        "pass_seconds": runner.pass_seconds,
        "spans": runner.summary,
        "setup_spans": setup_summary,
    }
    args.out.write_text(json.dumps(result))
    if recorder is not None:
        (args.out.parent / f"spans-{args.out.stem}.json").write_text(json.dumps(runner.dump))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except MemoryError:
        sys.exit(MEMORY_EXIT)
