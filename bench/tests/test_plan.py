"""BENCHMARK.json and bench/plan.json describe the same metrics and workloads."""

import json
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PLAN = json.loads((BENCH / "plan.json").read_text())


def planned_metrics():
    names = set()
    for entries in PLAN["layers"].values():
        for entry in entries if isinstance(entries, list) else [entries]:
            for name in entry["metrics"]:
                if "<k>" in name:
                    names.update(name.replace("<k>", str(k)) for k in range(1, 11))
                else:
                    names.add(name)
    return names


def test_every_per_layer_metric_has_a_planned_effect():
    assert {m["name"] for m in SPEC["per_layer"]} == planned_metrics()


def test_workloads_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(PLAN["workloads"])
    assert set(PLAN["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_spec_respects_its_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", ["fail_rate", "trace.overhead_s", "cli.main.self_s"])
def test_named_layer_metrics_are_declared(name):
    assert name in {m["name"] for m in SPEC["per_layer"]}
