"""Cap-scale regressions: cells inside the default state cap in bounded memory.

Each case runs in a child process that caps its own address space at
1 GiB with ``RLIMIT_AS`` and uses one BLAS thread, so a memory blow-up
shows as a failed child instead of taking the test runner down.

* Full recovery at (q, n, h) = (4, 8, 8), (3, 10, 8) and (3, 10, 10); the
  child prints its error figures and peak resident memory as one JSON line.
* The CLI at q = 65536, where a q x q transform kernel would need 32 GiB:
  ``verify`` recovers the function through the FFT, while ``generate`` and
  ``reconstruct``, whose text form cannot be written, exit 64 before any
  work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ADDRESS_CAP = 2**30
PEAK_RSS_MB = 256

CHILD = f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_CAP}, {ADDRESS_CAP}))
import numpy as np
import hamrecon as hr

q, n, h = map(int, sys.argv[1:])
f = hr.random_eigenfunction(hr.SchemeParams(q, n), h, seed=11)
out = hr.reconstruct_full(hr.SphereData.from_function(f, h), h)
print(json.dumps({{
    "rel_error": float(np.max(np.abs(out.values - f.values))) / f.max_abs(),
    "residual": hr.eigen_residual(out, h),
    "max_abs": out.max_abs(),
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
"""


CLI_CHILD = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_CAP}, {ADDRESS_CAP}))
from hamrecon.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_child(code, *args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def _check_full_recovery(q, n, h):
    proc = _run_child(CHILD, str(q), str(n), str(h))
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["rel_error"] <= 1e-8, got
    assert got["residual"] <= 1e-8 * (1.0 + got["max_abs"]), got
    assert got["rss_mb"] <= PEAK_RSS_MB, got


def test_full_recovery_4_8_8_within_memory_cap():
    _check_full_recovery(4, 8, 8)


@pytest.mark.parametrize("h", [8, 10])
def test_full_recovery_3_10_within_memory_cap(h):
    _check_full_recovery(3, 10, h)


def test_verify_large_alphabet_within_memory_cap():
    proc = _run_child(CLI_CHILD, "verify", "--mode", "full", "--q", "65536", "--n", "1", "--h", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["pass"] and report["max_rel_error"] <= 1e-8, report


def test_cli_refuses_large_alphabet_before_work(tmp_path):
    out = tmp_path / "out.json"
    proc = _run_child(CLI_CHILD, "generate", "--q", "65536", "--n", "1", "--h", "1")
    assert proc.returncode == 64 and "q <= 10" in proc.stderr, proc.stderr[-2000:]

    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps({"q": 65536, "n": 1, "d": 1, "eigenindex": 1, "values": []}))
    proc = _run_child(
        CLI_CHILD, "reconstruct", "--mode", "full", "--input", str(sphere), "--output", str(out)
    )
    assert proc.returncode == 64 and "q <= 10" in proc.stderr, proc.stderr[-2000:]
    assert not out.exists()
