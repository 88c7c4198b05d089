"""The round-trip example in README.md and PAPER.md runs as written.

Both documents carry the same "typical round trip" block; running it keeps
a doc example that names a removed class or attribute from going stale.
"""

import re

import numpy as np

from helpers import ROOT

_BLOCK = re.compile(r"A typical round trip:\s*```python\n(.*?)```", re.DOTALL)


def _round_trip_block(name):
    found = _BLOCK.findall((ROOT / name).read_text())
    assert len(found) == 1, name
    return found[0]


def test_round_trip_example_runs(monkeypatch):
    code = _round_trip_block("README.md")
    assert _round_trip_block("PAPER.md") == code
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    truth, full = scope["truth"], scope["full"]
    assert np.max(np.abs(full.values - truth.values)) <= 1e-8 * truth.max_abs()
