"""The full-cap summary counts each cell once, traced or not."""

import argparse

import pytest

import run
from cells import FULL_CAP_CELLS
from child import ChildResult

PROBE = FULL_CAP_CELLS[-1]


def fake_worker(probe_result):
    """Stands in for Launcher.worker: every cell passes except the probe."""

    def worker(self, *extra, trace=None, seconds=None):
        cell = tuple(int(x) for x in extra[1].split(","))
        traced = bool(self.args.trace if trace is None else trace)
        if cell == PROBE:
            if probe_result is None:
                return None, ChildResult("oom", 22.0, 1000.0, 75)
            record = {"cell": list(cell), "traced": traced, "kind": "oom", "s": 22.0}
        else:
            record = {"cell": list(cell), "traced": traced, "kind": None,
                      "s": 5.0 if traced else 4.0, "max_rel_error": 1e-12,
                      "eigen_residual": 1e-12}
        result = {"setup_s": 0.2, "records": [record],
                  "pass_seconds": {"traced" if traced else "untraced": [record["s"]]},
                  "spans": {"recon.layer_rhs_s": 4.5} if traced else {}, "setup_spans": {}}
        return result, ChildResult(None, record["s"] + 0.3, 150.0, 0)

    return worker


@pytest.mark.parametrize("probe_result", [None, "record"], ids=["child-died", "oom-record"])
def test_full_cap_fail_rate_is_one_in_four_traced_or_not(tmp_path, monkeypatch, probe_result):
    monkeypatch.setattr(run.Launcher, "worker", fake_worker(probe_result))
    runs = {}
    for trace in (0, 1):
        args = argparse.Namespace(workload="full-cap", seed=1, seconds=10, trace=trace)
        runs[trace] = run.Launcher(args, tmp_path).full_cap()
        assert len(runs[trace]["records"]) == len(FULL_CAP_CELLS)

    e2e, _ = run.end_to_end(runs[0])
    layers, _ = run.per_layer(runs[1], "full-cap", None)
    assert e2e["ok_rate"] == 0.75
    assert layers["fail_rate"] == pytest.approx(1 - e2e["ok_rate"])
    assert layers["trace.overhead_s"] == pytest.approx(1.0)
    assert layers["trace.overhead_share"] == pytest.approx(0.25)
