"""Shared helpers for the test suite: desk-scale grids, cached fixtures, repository files."""

import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import hamrecon as hr

ROOT = Path(__file__).resolve().parents[1]

# every (q, n) the acceptance criteria quantify over
DESK_QN = [(q, n) for q in (3, 4, 5) for n in (3, 4, 5, 6) if q**n <= 4096]


def desk_cells():
    """(q, n, h, d) over the full desk grid."""
    for q, n in DESK_QN:
        for h in range(n + 1):
            for d in range(h + 1):
                yield q, n, h, d


@lru_cache(maxsize=None)
def params(q, n):
    return hr.SchemeParams(q, n)


@lru_cache(maxsize=None)
def eigfn(q, n, h, seed=0):
    """Cached seeded random eigenfunction (immutable by convention)."""
    return hr.random_eigenfunction(params(q, n), h, seed)


def tol_for(f, base=1e-9):
    return base * (1.0 + f.max_abs())


def load_spans(monkeypatch):
    """The benchmark's span recorder module (``bench/spans.py``), loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def load_cells():
    """The benchmark's workload cells (``bench/cells.py``), loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_cells", ROOT / "bench" / "cells.py")
    cells = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cells)
    return cells
