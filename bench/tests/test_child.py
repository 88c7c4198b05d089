"""The capped child runner names how a child ended."""

import sys

from child import CAP_BYTES, MEMORY_EXIT, run_child


def python(code):
    return [sys.executable, "-c", code]


def test_success_reports_time_and_memory():
    result = run_child(python("x = bytearray(32 * 2**20)"), timeout=60)
    assert result.kind is None and result.code == 0
    assert result.seconds > 0 and result.rss_mb >= 32


def test_memory_error_under_the_cap_is_oom():
    code = (
        "import sys\n"
        "try:\n"
        f"    bytearray({2 * CAP_BYTES})\n"
        "except MemoryError:\n"
        f"    sys.exit({MEMORY_EXIT})\n"
    )
    assert run_child(python(code), timeout=60).kind == "oom"


def test_nonzero_exit_and_timeout_are_named():
    assert run_child(python("raise SystemExit(3)"), timeout=60).kind == "exit=3"
    result = run_child(python("import time; time.sleep(30)"), timeout=0.5)
    assert result.kind == "timeout" and result.seconds < 10
