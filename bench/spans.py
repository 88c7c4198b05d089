"""Span recorder for the traced run.

The recorder rebinds public functions of the ``hamrecon`` modules on the
module objects themselves.  The package's recovery routines look these up
as module globals at call time, so a rebound name captures every call
without touching the package source.  Each rebound call records a span:
its name, start, end, the span that was open when it began, and the
operation it belongs to.  Spans stay in memory until the run writes them
out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _k_of_positions(args, kwargs, result):
    return {"k": len(_arg(args, kwargs, 2, "positions"))}


def _k_of_system(args, kwargs, result):
    return {"k": len(_arg(args, kwargs, 0, "system").positions)}


def _words_out(args, kwargs, result):
    return {"words": len(result)}


def _words_in(args, kwargs, result):
    return {"words": len(_arg(args, kwargs, 1, "entries"))}


@dataclass(frozen=True)
class Target:
    """One public function to rebind: where it is defined and what to record."""

    module: str
    attr: str
    tag: object = None  # (args, kwargs, result) -> dict of counts, or None
    count_only: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('hamrecon.')}.{self.attr}"


TARGETS = (
    Target("hamrecon.recon", "layer_rhs", _k_of_positions),
    Target("hamrecon.recon", "solve_layer", _k_of_system),
    Target("hamrecon.recon", "reconstruct_origin"),
    Target("hamrecon.recon", "reconstruct_ball"),
    Target("hamrecon.recon", "reconstruct_full"),
    Target("hamrecon.spectral", "inverse_fourier"),
    Target("hamrecon.spectral", "random_eigenfunction"),
    Target("hamrecon.spectral", "values_to_entries", _words_out),
    Target("hamrecon.spectral", "entries_to_values", _words_in),
    Target("hamrecon.coeffs", "check_conditions"),
    Target("hamrecon.coeffs", "eigen_sums"),
    Target("hamrecon.cli", "main"),
    # cheap and called often on the exact path: count only
    Target("hamrecon.krawtchouk", "krawtchouk_value", count_only=True),
)


@dataclass
class Span:
    op: object
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the recorder, -1 at top level
    counts: dict | None = None


class Recorder:
    """Rebinds the targets while installed and keeps every span in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span | None] = []
        self.calls: Counter = Counter()
        self.op: object = None
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hamrecon"]
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                if vars(module).get(target.attr) is original:
                    setattr(module, target.attr, wrapper)
                    self._rebound.append((module, target.attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []

    def _wrap(self, target: Target, original):
        name = target.name
        calls = self.calls
        if target.count_only:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        spans, stack, clock, tag = self.spans, self._stack, time.perf_counter, target.tag

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                counts = tag(args, kwargs, result) if tag is not None and result is not None else None
                spans[index] = Span(self.op, name, start, end, parent, counts)
                calls[name] += 1

        return traced

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and call counts so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        taken = (list(self.spans), Counter(self.calls))
        self.spans.clear()
        self.calls.clear()
        return taken


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover.

    ``spans[i].parent`` indexes into the same list.  Child intervals are
    clipped to the parent and merged before they are subtracted, so
    overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span], calls: Counter) -> dict[str, float]:
    """Totals by span name: inclusive and self seconds, calls, tagged counts.

    Layer-solve spans carrying a support size k are also grouped per layer
    as ``recon.k<k>.rhs_s``, ``recon.k<k>.solve_s`` and ``recon.k<k>.supports``.
    """
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        duration = span.end - span.start
        out[f"{span.name}_s"] += duration
        out[f"{span.name}.self_s"] += own
        counts = span.counts or {}
        for key, value in counts.items():
            if key != "k":
                out[f"{span.name}.{key}"] += value
        if "k" in counts:
            layer = f"recon.k{counts['k']}"
            if span.name == "recon.layer_rhs":
                out[f"{layer}.rhs_s"] += duration
                out[f"{layer}.supports"] += 1
            else:
                out[f"{layer}.solve_s"] += duration
    for name, n in calls.items():
        out[f"{name}.calls"] += n
    return dict(out)
