"""Batch command surface for condition sweeps, data generation and recovery.

Subcommands:

* ``check``            exact nondegeneracy report for one (q, n, h, d)
* ``sweep``            CSV of check outcomes over a (q, n) grid
* ``generate``         seeded random eigenfunction (full or sphere JSON)
* ``reconstruct``      sphere JSON -> ball or full-function JSON
* ``verify``           generate, mask, reconstruct, report the error
* ``krawtchouk-dump``  CSV table of exact polynomial values
* ``local-dist``       debug print of one local distribution as JSON

Each subparser names its runner, which takes the argparse namespace.
Argparse types check the shape of each flag: q >= 3 (q >= 2 for
``krawtchouk-dump``), n >= 1, h, d and seed >= 0, a finite positive
tolerance, and comma-separated integer lists (``sweep`` sorts them and
drops repeats; ``--positions`` keeps them as given).  Every other rule is
the library's, whose ``ValueError`` exits 64 like a parser error: the
state cap (``SchemeParams``, for every ``sweep`` pair before any row), the
h and d ranges, distinct positions, and d = h in full mode.  The CLI
itself refuses, before any work, ``--oracle-eta`` in ball mode, q > 10
on ``generate`` and ``reconstruct`` (such words have no text form), and
a sphere file without an eigenvalue index or that it cannot read.

Exit codes: 0 success (conditions pass), 1 ``verify`` round-trip error
above ``--tolerance``, 2 conditions fail, 3 input data inconsistent, 64
invalid parameters or malformed input.  Reports are bitwise deterministic
for fixed flags and seed: exact integers are serialized as decimal
strings, and wall-clock timing goes to stderr, never into the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .coeffs import check_conditions
from .krawtchouk import krawtchouk_table
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
    vertex_dict,
)

EXIT_OK = 0
EXIT_CONDITION_FAIL = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 64


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 64
        raise UsageError(message)


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _tolerance(text: str) -> float:
    """argparse type: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers, in order and with repeats; empty parts skip."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="hamrecon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    alphabet, dimension, index = _at_least(3), _at_least(1), _at_least(0)

    p_check = sub.add_parser("check", help="exact nondegeneracy conditions for one cell")
    p_check.set_defaults(run=run_check)
    p_check.add_argument("--q", type=alphabet, required=True)
    p_check.add_argument("--n", type=dimension, required=True)
    p_check.add_argument("--h", type=index, required=True)
    p_check.add_argument("--d", type=index, required=True)

    p_sweep = sub.add_parser("sweep", help="CSV of condition checks over a grid")
    p_sweep.set_defaults(run=run_sweep)
    p_sweep.add_argument("--q", type=_int_list, required=True, help="comma-separated list")
    p_sweep.add_argument("--n", type=_int_list, required=True, help="comma-separated list")
    p_sweep.add_argument("--output", type=str, default=None)

    p_gen = sub.add_parser("generate", help="seeded random eigenfunction as JSON")
    p_gen.set_defaults(run=run_generate)
    p_gen.add_argument("--q", type=alphabet, required=True)
    p_gen.add_argument("--n", type=dimension, required=True)
    p_gen.add_argument("--h", type=index, required=True)
    p_gen.add_argument("--seed", type=index, default=0)
    p_gen.add_argument("--d", type=index, default=None, help="restrict to the weight-d sphere")
    p_gen.add_argument("--output", type=str, default=None)

    p_rec = sub.add_parser("reconstruct", help="recover a ball or the full function")
    p_rec.set_defaults(run=run_reconstruct)
    p_rec.add_argument("--mode", choices=("ball", "full"), required=True)
    p_rec.add_argument("--input", type=str, required=True)
    p_rec.add_argument("--output", type=str, required=True)
    p_rec.add_argument(
        "--tolerance",
        type=_tolerance,
        default=1e-8,
        help="largest eta oracle gap, relative to 1 + max |f|; read only with --oracle-eta",
    )
    p_rec.add_argument(
        "--oracle-eta",
        action="store_true",
        help="full mode only (refused with exit 64 in ball mode): check the eta closed"
        " form against direct sums on the recovered function, exit 3 with no output"
        " file beyond --tolerance",
    )

    p_ver = sub.add_parser("verify", help="seeded mask-and-recover round trip")
    p_ver.set_defaults(run=run_verify)
    p_ver.add_argument("--mode", choices=("ball", "full"), required=True)
    p_ver.add_argument("--q", type=alphabet, required=True)
    p_ver.add_argument("--n", type=dimension, required=True)
    p_ver.add_argument("--h", type=index, required=True)
    p_ver.add_argument("--d", type=index, default=None)
    p_ver.add_argument("--seed", type=index, default=0)
    p_ver.add_argument("--tolerance", type=_tolerance, default=1e-8)

    p_dump = sub.add_parser("krawtchouk-dump", help="exact value table as CSV")
    p_dump.set_defaults(run=run_krawtchouk_dump)
    p_dump.add_argument("--q", type=_at_least(2), required=True)
    p_dump.add_argument("--n", type=dimension, required=True, help="table size N")
    p_dump.add_argument("--output", type=str, default=None)

    p_loc = sub.add_parser("local-dist", help="debug print of one local distribution")
    p_loc.set_defaults(run=run_local_dist)
    p_loc.add_argument("--input", type=str, required=True, help="vertex-function JSON")
    p_loc.add_argument(
        "--positions", type=_int_list, required=True, help="distinct face positions, e.g. 2,4"
    )
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


def run_check(args: argparse.Namespace) -> int:
    SchemeParams(args.q, args.n)  # the state cap, before any output
    report = check_conditions(args.q, args.n, args.h, args.d)
    _print_json(report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_CONDITION_FAIL


def run_sweep(args: argparse.Namespace) -> int:
    grid = [SchemeParams(q, n) for q in sorted(set(args.q)) for n in sorted(set(args.n))]
    if not grid:
        raise UsageError("sweep needs nonempty --q and --n lists")
    lines = ["q,n,h,d,pass,fail_kind,first_fail_k,first_fail_l,origin_value"]
    for q, n in ((p.q, p.n) for p in grid):
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
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def run_generate(args: argparse.Namespace) -> int:
    if args.q > 10:
        raise UsageError(f"text form of words needs q <= 10, got q={args.q}")
    f = random_eigenfunction(SchemeParams(args.q, args.n), args.h, args.seed)
    if args.d is None:
        data = function_to_dict(f)
    else:
        data = SphereData.from_function(f, args.d).to_dict()
    _emit(dumps_vertex_json(data), args.output)
    return EXIT_OK


def run_reconstruct(args: argparse.Namespace) -> int:
    if args.oracle_eta and args.mode == "ball":
        raise UsageError("--oracle-eta acts in full mode only")
    try:
        sphere = SphereData.from_dict(json.loads(Path(args.input).read_text()))
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read sphere data from {args.input}: {exc}") from None
    if sphere.params.q > 10:
        # the result could not be written, so refuse before the solve
        raise UsageError(f"text form of words needs q <= 10, got q={sphere.params.q}")
    h = sphere.eigenindex
    if h is None:
        raise UsageError("input data does not carry an eigenvalue index")
    summary: dict = {
        "command": "reconstruct",
        "mode": args.mode,
        "q": sphere.params.q,
        "n": sphere.params.n,
        "h": h,
        "d": sphere.d,
        "output": args.output,
    }
    if args.mode == "ball":
        payload = vertex_dict(sphere.params, reconstruct_ball(sphere, h).values, h, sphere.d)
    else:
        out = reconstruct_full(sphere, h)
        payload = function_to_dict(out)
        if args.oracle_eta:
            gap = eta_discrepancy(out, h)
            summary["eta_oracle_max_discrepancy"] = gap
            if gap > args.tolerance * (1.0 + out.max_abs()):
                raise DataInconsistencyError(
                    f"eta oracle disagrees with the closed form by {gap:.3e}"
                )
    Path(args.output).write_text(dumps_vertex_json(payload))
    _print_json(summary)
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    params = SchemeParams(args.q, args.n)
    h = args.h
    d = h if args.d is None else args.d
    truth = random_eigenfunction(params, h, args.seed)
    sphere = SphereData.from_function(truth, d)
    started = time.perf_counter()
    if args.mode == "ball":
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
    passed = max_rel <= args.tolerance
    report = {
        "command": "verify",
        "mode": args.mode,
        "q": params.q,
        "n": params.n,
        "h": h,
        "d": d,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "max_abs_error": max_abs,
        "max_rel_error": max_rel,
        "pass": passed,
    }
    _print_json(report)
    sys.stderr.write(f"elapsed_sec={elapsed:.3f}\n")
    return EXIT_OK if passed else 1


def run_local_dist(args: argparse.Namespace) -> int:
    try:
        f = function_from_dict(json.loads(Path(args.input).read_text()))
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read function data from {args.input}: {exc}") from None
    anchor = parse_word(f.params, args.anchor)
    dist = local_distribution(f, args.positions, anchor)
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


def run_krawtchouk_dump(args: argparse.Namespace) -> int:
    lines = ["i," + ",".join(str(t) for t in range(args.n + 1))]
    for i, row in enumerate(krawtchouk_table(args.q, args.n)):
        lines.append(f"{i}," + ",".join(str(v) for v in row))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except ConditionError as exc:
        payload = exc.report.to_json_dict() if exc.report else {"error": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_CONDITION_FAIL
    except DataInconsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCONSISTENT
    except ValueError as exc:  # UsageError included
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
