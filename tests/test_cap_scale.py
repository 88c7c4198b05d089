"""Cap-scale regression: full recovery at (q, n, h) = (4, 8, 8) in bounded memory.

The cell lies inside the default state cap.  The recovery runs in a child
process that caps its own address space at 1 GiB with ``RLIMIT_AS`` and
uses one BLAS thread, so a memory blow-up shows as a failed child instead
of taking the test runner down.  The child prints its error figures and
peak resident memory as one JSON line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ADDRESS_CAP = 2**30
PEAK_RSS_MB = 256

CHILD = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_CAP}, {ADDRESS_CAP}))
import numpy as np
import hamrecon as hr

q, n, h = 4, 8, 8
f = hr.random_eigenfunction(hr.SchemeParams(q, n), h, seed=11)
out = hr.reconstruct_full(hr.SphereData.from_function(f, h), h)
print(json.dumps({{
    "rel_error": float(np.max(np.abs(out.values - f.values))) / f.max_abs(),
    "residual": hr.eigen_residual(out, h),
    "max_abs": out.max_abs(),
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
"""


def test_full_recovery_4_8_8_within_memory_cap():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["rel_error"] <= 1e-8, got
    assert got["residual"] <= 1e-8 * (1.0 + got["max_abs"]), got
    assert got["rss_mb"] <= PEAK_RSS_MB, got
