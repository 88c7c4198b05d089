"""Summary arithmetic of the benchmark: the tail rule and failure ratios.

Pure functions over plain lists so that the tests in ``bench/tests`` can
pin them down without running a workload.
"""

from __future__ import annotations

MIN_BEYOND = 10
LOWEST_TAIL = 90.0  # below this a percentile is not a tail


def tail_percentile(samples) -> tuple[float, float] | None:
    """(p, latency) at the highest percentile with >= MIN_BEYOND samples above it.

    By the nearest-rank rule that percentile is p = 100 (n - MIN_BEYOND) / n,
    read at rank n - MIN_BEYOND.  Returns None when p falls below
    LOWEST_TAIL, i.e. when the run holds too few samples to resolve a tail.
    """
    n = len(samples)
    p = 100 * (n - MIN_BEYOND) / n if n else 0.0
    if p < LOWEST_TAIL:
        return None
    return p, sorted(samples)[n - MIN_BEYOND - 1]


def tail_or_max(samples) -> tuple[str, float]:
    """Label and value of the tail latency, falling back to the maximum.

    The fallback keeps the metric defined on workloads whose runs hold too
    few operations for the tail rule; the label says which one was used.
    """
    tail = tail_percentile(samples)
    if tail is None:
        return "max", max(samples)
    p, value = tail
    return f"p{p:.4g}", value


def fail_rate(kinds) -> float:
    """Failed operations over attempted ones; a kind of None means success."""
    kinds = list(kinds)
    if not kinds:
        raise ValueError("no operations attempted")
    return sum(1 for k in kinds if k is not None) / len(kinds)

