"""Run one child process under an address-space cap and say how it ended.

The cap is set with ``RLIMIT_AS`` in the child only, between fork and
exec; nothing else about the machine changes.  Peak resident memory comes
from ``wait4``: it covers the child and the descendants it waited for,
never the calling process.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

# Shared address-space cap.  (3,10,10) peaks near 1.9 GiB of address space
# and passes; (4,8,8) asks for far more on its last layer and fails.
CAP_BYTES = 3 * 2**30

# Exit code a worker uses after catching MemoryError (EX_TEMPFAIL).
MEMORY_EXIT = 75

SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class ChildResult:
    kind: str | None  # None on success, else "oom", "timeout" or "exit=<code>"
    seconds: float
    rss_mb: float
    code: int


def child_env(root: Path) -> dict[str, str]:
    """Environment that imports hamrecon from the checkout, one BLAS thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv, *, timeout: float, env=None, cwd=None, stdout=None) -> ChildResult:
    """Run argv to completion under the cap; kill it after ``timeout`` seconds."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    previous = signal.signal(signal.SIGALRM, _alarm)
    started = time.perf_counter()
    # a process group of its own, so a timeout also ends anything the child started
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, preexec_fn=limit,
                            start_new_session=True)
    timed_out = False
    reaped = None
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        reaped = os.wait4(proc.pid, 0)
    except _Timeout:
        if reaped is None:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            reaped = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    _, status, usage = reaped
    seconds = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here; keep Popen from waiting again
    if timed_out:
        kind = "timeout"
    elif code == 0:
        kind = None
    elif code == MEMORY_EXIT:
        kind = "oom"
    else:
        kind = f"exit={code}"
    return ChildResult(kind, seconds, usage.ru_maxrss / 1024, code)
