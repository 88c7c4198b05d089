"""Every function the benchmark's span recorder rebinds exists in the package.

The recorder (``bench/spans.py``) looks its targets up by module and name
when a traced run starts; a renamed or removed function would end that
run with an AttributeError.
"""

import importlib

from helpers import load_spans


def test_every_span_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    for target in spans.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), target.name
