"""Tests of the benchmark itself: the hook table's refactor tolerance,
that only the traced run wraps the engine, and that BENCHMARK.json names
exactly the metrics the code reports."""

from __future__ import annotations

import json
import os

import pytest

import engine
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def current_targets(hooks=spans.HOOKS) -> dict[str, object]:
    """What each present hook target resolves to right now."""
    out = {}
    for hook in hooks:
        try:
            targets = spans._targets(hook)
        except LookupError:
            continue
        for owner, attr in targets:
            raw = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            out[f"{owner.__name__}.{attr}"] = raw
    return out


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every size so a whole run takes a few seconds: 1,600 docs in
    8 segments of 200, merged into one."""
    monkeypatch.setattr(engine, "N_DOCS", 1_600)
    monkeypatch.setattr(engine, "SEG_DOCS", 200)
    monkeypatch.setattr(run, "MIN_QUERIES", 46)
    monkeypatch.setattr(run, "REOPENS", 2)


def _execute(trace: bool) -> dict:
    r = run.Run("ingest", seed=7, seconds=0, trace=trace)
    try:
        r.execute()
        return r.result()
    finally:
        import shutil
        shutil.rmtree(r.work, ignore_errors=True)


def test_missing_hook_targets_are_absent_not_errors():
    hooks = [
        spans.Hook("iresearch_ray.index.segment", "SegmentWriter.gone",
                   spans._span_hook("x")),
        spans.Hook("iresearch_ray.no_such_module", "f", spans._span_hook("y")),
        spans.Hook("iresearch_ray.index.segment", "NoSuchClass+.prepare",
                   spans._span_hook("z")),
        spans.Hook("iresearch_ray.index.segment", "invert_coded",
                   spans._span_hook("index.segment.invert")),
    ]
    before = current_targets(hooks)
    installed = spans.install(spans.Tracer(), hooks)
    try:
        assert installed.absent == [spans.describe(h) for h in hooks[:3]]
        assert current_targets(hooks) != before  # the present one
    finally:
        installed.remove()
    assert current_targets(hooks) == before

    metrics = spans.layer_metrics(
        spans.Tracer(), ["iresearch_ray.index.segment.invert_coded"], {}, {})
    assert metrics["index.segment.invert_ms"] == {
        "value": 0, "unit": "ms", "absent": True}
    assert "absent" not in metrics["index.segment.encode_ms"]


def test_untraced_run_installs_no_wrappers(tiny, monkeypatch):
    def no_install(*a, **k):
        raise AssertionError("the untraced run must not install hooks")

    monkeypatch.setattr(spans, "install", no_install)
    before = current_targets()
    result = _execute(trace=False)
    assert result["correct"] and result["failed"] == 0
    assert current_targets() == before
    names = [m for m, _ in run.END_TO_END]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][m]["value"] > 0 for m in names)


def test_traced_run_reports_every_layer_and_restores(tiny):
    before = current_targets()
    result = _execute(trace=True)
    assert current_targets() == before
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == list(spans.metric_units())
    assert not [m for m, v in metrics.items() if v.get("absent")]
    for name in ("analysis.tokenize_ms", "index.segment.invert_ms",
                 "index.merge.decode_ms", "index.segment.dict_load_ms",
                 "search.filters.prepare_us", "search.executor.topk_self_us",
                 "index.segment.lru_hit_ratio", "trace.overhead_ratio"):
        assert metrics[name]["value"] > 0, name
    assert metrics["index.segment.dict_loads"]["value"] == 1  # one segment


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
