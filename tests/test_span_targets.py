"""Every function the benchmark's span recorder rebinds exists in the package.

The recorder (``bench/spans.py``) looks its targets up by module and name
when a traced run starts; a renamed or removed function would end that
run with an AttributeError.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for target in spans.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), target.name
