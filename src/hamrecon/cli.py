"""Batch command surface for condition sweeps, data generation and recovery.

Subcommands:

* ``check``            exact nondegeneracy report for one (q, n, h, d)
* ``sweep``            CSV of check outcomes over a (q, n) grid
* ``generate``         seeded random eigenfunction (full or sphere JSON)
* ``reconstruct``      sphere JSON -> ball or full-function JSON
* ``verify``           generate, mask, reconstruct, report the error
* ``krawtchouk-dump``  CSV table of exact polynomial values
* ``local-dist``       debug print of one local distribution as JSON

Exit codes: 0 success (conditions pass), 2 conditions fail, 3 input data
inconsistent, 64 invalid parameters or malformed input.  Reports are
bitwise deterministic for fixed flags and seed: exact integers are
serialized as decimal strings, and wall-clock timing goes to stderr,
never into the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coeffs import check_conditions
from .krawtchouk import KrawtchoukTable
from .recon import (
    ConditionError,
    DataInconsistencyError,
    SphereData,
    eta_discrepancy,
    reconstruct_ball,
    reconstruct_full,
)
from .localdist import local_distribution
from .scheme import SchemeParams, parse_word, weight_table, word_text
from .spectral import (
    dumps_vertex_json,
    function_from_dict,
    function_to_dict,
    random_eigenfunction,
)

EXIT_OK = 0
EXIT_CONDITION_FAIL = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


@dataclass
class JobConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    q: int | None = None
    n: int | None = None
    h: int | None = None
    d: int | None = None
    seed: int | None = None
    tolerance: float = 1e-8
    mode: str | None = None
    oracle_eta: bool = False
    input_path: str | None = None
    output_path: str | None = None
    q_list: tuple[int, ...] = ()
    n_list: tuple[int, ...] = ()
    positions: str | None = None
    anchor: str | None = None

    def validate(self) -> None:
        if self.tolerance <= 0:
            raise UsageError(f"tolerance must be positive, got {self.tolerance}")
        if self.q is not None:
            minimum = 2 if self.command == "krawtchouk-dump" else 3
            if self.q < minimum:
                raise UsageError(f"q must be at least {minimum}, got {self.q}")
            if self.command == "generate" and self.q > 10:
                raise UsageError(f"text form of words needs q <= 10, got q={self.q}")
        if self.n is not None and self.n < 1:
            raise UsageError(f"n must be at least 1, got {self.n}")
        if self.command in ("check", "verify", "generate"):
            try:
                SchemeParams(self.q, self.n)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        if self.h is not None and not 0 <= self.h <= (self.n or 0):
            raise UsageError(f"h={self.h} outside [0, n={self.n}]")
        if self.d is not None:
            top = self.n if self.command == "generate" else self.h
            if top is None or not 0 <= self.d <= top:
                raise UsageError(f"d={self.d} outside [0, {top}]")
        if self.seed is not None and self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")
        if self.command == "sweep":
            if not self.q_list or not self.n_list:
                raise UsageError("sweep needs nonempty --q and --n lists")
            for q in self.q_list:
                if q < 3:
                    raise UsageError(f"q must be at least 3, got {q}")
                for n in self.n_list:
                    try:
                        SchemeParams(q, n)
                    except ValueError as exc:
                        raise UsageError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 64
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hamrecon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="exact nondegeneracy conditions for one cell")
    p_check.add_argument("--q", type=int, required=True)
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--h", type=int, required=True)
    p_check.add_argument("--d", type=int, required=True)

    p_sweep = sub.add_parser("sweep", help="CSV of condition checks over a grid")
    p_sweep.add_argument("--q", type=str, required=True, help="comma-separated list")
    p_sweep.add_argument("--n", type=str, required=True, help="comma-separated list")
    p_sweep.add_argument("--output", type=str, default=None)

    p_gen = sub.add_parser("generate", help="seeded random eigenfunction as JSON")
    p_gen.add_argument("--q", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--h", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--d", type=int, default=None, help="restrict to the weight-d sphere")
    p_gen.add_argument("--output", type=str, default=None)

    p_rec = sub.add_parser("reconstruct", help="recover a ball or the full function")
    p_rec.add_argument("--mode", choices=("ball", "full"), required=True)
    p_rec.add_argument("--input", type=str, required=True)
    p_rec.add_argument("--output", type=str, required=True)
    p_rec.add_argument("--tolerance", type=float, default=1e-8)
    p_rec.add_argument("--oracle-eta", action="store_true")

    p_ver = sub.add_parser("verify", help="seeded mask-and-recover round trip")
    p_ver.add_argument("--mode", choices=("ball", "full"), required=True)
    p_ver.add_argument("--q", type=int, required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--h", type=int, required=True)
    p_ver.add_argument("--d", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tolerance", type=float, default=1e-8)

    p_dump = sub.add_parser("krawtchouk-dump", help="exact value table as CSV")
    p_dump.add_argument("--q", type=int, required=True)
    p_dump.add_argument("--n", type=int, required=True, help="table size N")
    p_dump.add_argument("--output", type=str, default=None)

    p_loc = sub.add_parser("local-dist", help="debug print of one local distribution")
    p_loc.add_argument("--input", type=str, required=True, help="vertex-function JSON")
    p_loc.add_argument("--positions", type=str, required=True, help="face positions, e.g. 2,4")
    p_loc.add_argument("--anchor", type=str, required=True, help="anchor word, e.g. 0120")

    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _print_json(data: dict) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command implementations


def run_check(config: JobConfig) -> int:
    report = check_conditions(config.q, config.n, config.h, config.d)
    _print_json(report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_CONDITION_FAIL


def run_sweep(config: JobConfig) -> int:
    lines = ["q,n,h,d,pass,fail_kind,first_fail_k,first_fail_l,origin_value"]
    for q in config.q_list:
        for n in config.n_list:
            for h in range(n + 1):
                for d in range(h + 1):
                    report = check_conditions(q, n, h, d)
                    if not report.origin_ok:
                        kind = "origin"
                    elif report.failures:
                        kind = "layer"
                    else:
                        kind = ""
                    first_k = str(report.failures[0][0]) if report.failures else ""
                    first_l = str(report.failures[0][1]) if report.failures else ""
                    lines.append(
                        f"{q},{n},{h},{d},{str(report.passed).lower()},{kind},"
                        f"{first_k},{first_l},{report.origin_value}"
                    )
    _emit("\n".join(lines) + "\n", config.output_path)
    return EXIT_OK


def run_generate(config: JobConfig) -> int:
    params = SchemeParams(config.q, config.n)
    f = random_eigenfunction(params, config.h, config.seed)
    if config.d is None:
        data = function_to_dict(f)
    else:
        data = SphereData.from_function(f, config.d).to_dict()
    _emit(dumps_vertex_json(data), config.output_path)
    return EXIT_OK


def run_reconstruct(config: JobConfig) -> int:
    try:
        raw = json.loads(Path(config.input_path).read_text())
        sphere = SphereData.from_dict(raw)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read sphere data from {config.input_path}: {exc}") from None
    if sphere.params.q > 10:
        # the result could not be written, so refuse before the solve
        raise UsageError(f"text form of words needs q <= 10, got q={sphere.params.q}")
    if sphere.eigenindex is None:
        raise UsageError("input data does not carry an eigenvalue index")
    h = sphere.eigenindex
    if not 0 <= h <= sphere.params.n:
        raise UsageError(f"eigenindex {h} outside [0, {sphere.params.n}]")
    if sphere.d > h:
        raise UsageError(f"sphere radius d={sphere.d} exceeds the eigenvalue index h={h}")
    summary: dict = {
        "command": "reconstruct",
        "mode": config.mode,
        "q": sphere.params.q,
        "n": sphere.params.n,
        "h": h,
        "d": sphere.d,
        "output": config.output_path,
    }
    if config.mode == "ball":
        result = reconstruct_ball(sphere, h)
        payload = result.to_dict()
    else:
        if sphere.d != h:
            raise UsageError(
                f"full mode needs sphere radius equal to the index: d={sphere.d}, h={h}"
            )
        out = reconstruct_full(sphere, h)
        payload = function_to_dict(out)
        if config.oracle_eta:
            gap = eta_discrepancy(out, h)
            summary["eta_oracle_max_discrepancy"] = gap
            if gap > config.tolerance * (1.0 + out.max_abs()):
                raise DataInconsistencyError(
                    f"eta oracle disagrees with the closed form by {gap:.3e}"
                )
    Path(config.output_path).write_text(dumps_vertex_json(payload))
    _print_json(summary)
    return EXIT_OK


def run_verify(config: JobConfig) -> int:
    params = SchemeParams(config.q, config.n)
    h = config.h
    d = config.d if config.d is not None else h
    if config.mode == "full" and d != h:
        raise UsageError(f"full mode needs d = h, got d={d}, h={h}")
    truth = random_eigenfunction(params, h, config.seed)
    sphere = SphereData.from_function(truth, d)
    started = time.perf_counter()
    if config.mode == "ball":
        result = reconstruct_ball(sphere, h)
        mask = weight_table(params.q, params.n) <= d
        diff = np.abs(result.values[mask] - truth.values[mask])
        scale = float(np.max(np.abs(truth.values[mask])))
    else:
        out = reconstruct_full(sphere, h)
        diff = np.abs(out.values - truth.values)
        scale = float(np.max(np.abs(truth.values)))
    elapsed = time.perf_counter() - started
    max_abs = float(np.max(diff)) if diff.size else 0.0
    max_rel = max_abs / scale if scale > 0 else max_abs
    passed = max_rel <= config.tolerance
    report = {
        "command": "verify",
        "mode": config.mode,
        "q": params.q,
        "n": params.n,
        "h": h,
        "d": d,
        "seed": config.seed,
        "tolerance": config.tolerance,
        "max_abs_error": max_abs,
        "max_rel_error": max_rel,
        "pass": passed,
    }
    _print_json(report)
    sys.stderr.write(f"elapsed_sec={elapsed:.3f}\n")
    return EXIT_OK if passed else 1


def run_local_dist(config: JobConfig) -> int:
    try:
        f = function_from_dict(json.loads(Path(config.input_path).read_text()))
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read function data from {config.input_path}: {exc}") from None
    positions = _int_list(config.positions) if config.positions else ()
    anchor = parse_word(f.params, config.anchor)
    dist = local_distribution(f, positions, anchor)
    _print_json(
        {
            "command": "local-dist",
            "q": f.params.q,
            "n": f.params.n,
            "face": list(dist.face),
            "anchor": word_text(dist.anchor),
            "components": [{"re": float(c.real), "im": float(c.imag)} for c in dist.components],
        }
    )
    return EXIT_OK


def run_krawtchouk_dump(config: JobConfig) -> int:
    table = KrawtchoukTable.build(config.q, config.n)
    lines = ["i," + ",".join(str(t) for t in range(config.n + 1))]
    for i, row in enumerate(table.values):
        lines.append(f"{i}," + ",".join(str(v) for v in row))
    _emit("\n".join(lines) + "\n", config.output_path)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = sorted({int(part) for part in text.split(",") if part.strip() != ""})
    except ValueError:
        raise UsageError(f"expected a comma-separated list of integers, got {text!r}") from None
    return tuple(items)


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    config = JobConfig(command=args.command)
    if args.command == "sweep":
        config.q_list = _int_list(args.q)
        config.n_list = _int_list(args.n)
        config.output_path = args.output
    else:
        for name in ("q", "n", "h", "d", "seed", "tolerance", "mode", "positions", "anchor"):
            if hasattr(args, name):
                setattr(config, name, getattr(args, name))
        config.oracle_eta = getattr(args, "oracle_eta", False)
        config.input_path = getattr(args, "input", None)
        config.output_path = getattr(args, "output", None)
    config.validate()
    return config


_RUNNERS = {
    "check": run_check,
    "sweep": run_sweep,
    "generate": run_generate,
    "reconstruct": run_reconstruct,
    "verify": run_verify,
    "krawtchouk-dump": run_krawtchouk_dump,
    "local-dist": run_local_dist,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return _RUNNERS[config.command](config)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ConditionError as exc:
        payload = exc.report.to_json_dict() if exc.report else {"error": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_CONDITION_FAIL
    except DataInconsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCONSISTENT
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
