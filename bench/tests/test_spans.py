"""Span recording and self-time arithmetic."""

import sys
import types

import pytest

from spans import Recorder, Span, Target, self_times, summarize


def test_self_time_subtracts_nested_children():
    spans = [
        Span("op", "outer", 0.0, 10.0, -1),
        Span("op", "child", 1.0, 3.0, 0),
        Span("op", "grandchild", 1.5, 2.0, 1),
        Span("op", "child", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 4.0])


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    spans = [
        Span("op", "outer", 0.0, 10.0, -1),
        Span("op", "a", 2.0, 6.0, 0),
        Span("op", "b", 4.0, 8.0, 0),  # overlaps a
        Span("op", "c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module stand-in for hamrecon: ``user`` imports ``inner`` by name."""
    base = types.ModuleType("hamrecon")
    inner = types.ModuleType("hamrecon.inner")
    user = types.ModuleType("hamrecon.user")

    def leaf(x):
        return x + 1

    def work(xs):
        return [user.leaf(x) for x in xs]

    inner.leaf = leaf
    user.leaf = leaf
    user.work = work
    for name, module in (("hamrecon", base), ("hamrecon.inner", inner), ("hamrecon.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return inner, user, leaf, work


def test_recorder_rebinds_every_module_and_restores(fake_package):
    inner, user, leaf, work = fake_package
    recorder = Recorder(targets=(Target("hamrecon.inner", "leaf"), Target("hamrecon.user", "work")))
    recorder.op = "op-1"
    recorder.install()
    assert inner.leaf is not leaf and user.leaf is not leaf
    assert user.work([1, 2, 3]) == [2, 3, 4]
    recorder.uninstall()
    assert inner.leaf is leaf and user.leaf is leaf and user.work is work

    spans, calls = recorder.take()
    assert [s.name for s in spans] == ["user.work", "inner.leaf", "inner.leaf", "inner.leaf"]
    assert [s.parent for s in spans] == [-1, 0, 0, 0]
    assert {s.op for s in spans} == {"op-1"}
    assert calls == {"user.work": 1, "inner.leaf": 3}
    assert recorder.take() == ([], {})


def test_summary_reports_self_time_counts_and_layers():
    spans = [
        Span(0, "recon.reconstruct_ball", 0.0, 10.0, -1),
        Span(0, "recon.layer_rhs", 1.0, 3.0, 0, {"k": 1}),
        Span(0, "recon.solve_layer", 3.0, 4.0, 0, {"k": 1}),
        Span(0, "recon.layer_rhs", 4.0, 8.0, 0, {"k": 2}),
        Span(0, "spectral.values_to_entries", 8.0, 9.0, 0, {"words": 7}),
    ]
    out = summarize(spans, {"recon.layer_rhs": 2, "krawtchouk.krawtchouk_value": 5})
    assert out["recon.reconstruct_ball_s"] == 10.0
    assert out["recon.reconstruct_ball.self_s"] == pytest.approx(2.0)
    assert out["recon.layer_rhs_s"] == 6.0
    assert out["recon.k1.rhs_s"] == 2.0 and out["recon.k2.rhs_s"] == 4.0
    assert out["recon.k1.solve_s"] == 1.0 and out["recon.k1.supports"] == 1
    assert out["spectral.values_to_entries.words"] == 7
    assert out["krawtchouk.krawtchouk_value.calls"] == 5
