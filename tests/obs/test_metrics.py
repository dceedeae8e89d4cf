"""Unit tests for the run-metrics registry and its NULL pattern."""

import itertools
import json

from repro.obs import metrics as metrics_module
from repro.obs.metrics import (
    ENV_VAR,
    HOST_SPAN_CAP,
    NULL_METRICS,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_env_enabled,
    reset_metrics,
)


# -- registry basics ---------------------------------------------------------

def test_counters_accumulate():
    m = MetricsRegistry()
    m.inc("a")
    m.inc("a", 4)
    m.inc("b", 2.5)
    assert m.counters == {"a": 5, "b": 2.5}


def test_gauge_latest_wins():
    m = MetricsRegistry()
    m.gauge("depth", 3)
    m.gauge("depth", 1)
    assert m.gauges["depth"] == 1


def test_gauge_max_keeps_peak():
    m = MetricsRegistry()
    m.gauge_max("peak", 3)
    m.gauge_max("peak", 7)
    m.gauge_max("peak", 5)
    assert m.gauges["peak"] == 7


def test_timer_records_count_total_and_span():
    m = MetricsRegistry()
    with m.timer("phase"):
        pass
    with m.timer("phase"):
        pass
    count, total = m.timers["phase"]
    assert count == 2
    assert total >= 0.0
    assert len(m.host_spans) == 2
    name, t0, t1 = m.host_spans[0]
    assert name == "phase" and t1 >= t0


def test_host_spans_keep_only_the_most_recent(monkeypatch):
    """Past the cap the oldest spans are dropped; timer counts and totals
    still cover every call."""
    ticks = itertools.count()
    monkeypatch.setattr(metrics_module.time, "perf_counter",
                        lambda: float(next(ticks)))
    m = MetricsRegistry()
    dropped = 3
    for _ in range(dropped):
        with m.timer("old"):
            pass
    for _ in range(HOST_SPAN_CAP):
        with m.timer("new"):
            pass
    assert len(m.host_spans) == HOST_SPAN_CAP
    assert {name for name, _, _ in m.host_spans} == {"new"}
    # Each span is one tick long, so the oldest kept span starts right
    # after the dropped ones end.
    assert m.host_spans[0] == ("new", 2.0 * dropped, 2.0 * dropped + 1)
    assert m.timers["old"] == [dropped, float(dropped)]
    assert m.timers["new"] == [HOST_SPAN_CAP, float(HOST_SPAN_CAP)]


def test_clear_empties_everything():
    m = MetricsRegistry()
    m.inc("a")
    m.gauge("g", 1)
    with m.timer("t"):
        pass
    m.clear()
    assert not m.counters and not m.gauges
    assert not m.timers and not m.host_spans


def test_snapshot_is_json_able_and_sorted():
    m = MetricsRegistry()
    m.inc("z")
    m.inc("a")
    m.gauge("g", 2)
    with m.timer("t"):
        pass
    snap = m.snapshot()
    json.dumps(snap)  # must not raise
    assert list(snap["counters"]) == ["a", "z"]
    assert snap["timers"]["t"]["count"] == 1


def test_render_mentions_each_metric():
    m = MetricsRegistry()
    m.inc("runs", 3)
    m.gauge("peak", 9)
    with m.timer("wall"):
        pass
    out = m.render()
    for needle in ("counters:", "runs", "gauges:", "peak", "timers:", "wall"):
        assert needle in out


def test_render_empty():
    assert MetricsRegistry().render() == "(no metrics recorded)"


def test_write_jsonl_appends_deterministic_lines(tmp_path):
    m = MetricsRegistry()
    m.inc("c", 2)
    m.gauge("g", 1)
    path = tmp_path / "metrics.jsonl"
    n = m.write_jsonl(path)
    assert n == 2
    first = path.read_text()
    m.write_jsonl(path)
    assert path.read_text() == first * 2  # append, identical bytes
    lines = [json.loads(line) for line in first.splitlines()]
    assert {ln["kind"] for ln in lines} == {"counter", "gauge"}
    assert all(set(ln) <= {"kind", "name", "value", "count", "total_s"}
               for ln in lines)  # no timestamps/hostnames


# -- NULL_METRICS ------------------------------------------------------------

def test_null_metrics_disabled_and_inert():
    assert not NULL_METRICS.enabled
    NULL_METRICS.inc("x")
    NULL_METRICS.gauge("x", 1)
    NULL_METRICS.gauge_max("x", 1)
    with NULL_METRICS.timer("x"):
        pass
    assert not NULL_METRICS.counters
    assert not NULL_METRICS.gauges
    assert not NULL_METRICS.timers
    assert not NULL_METRICS.host_spans


def test_null_metrics_timer_is_shared_singleton():
    assert NULL_METRICS.timer("a") is NULL_METRICS.timer("b")


# -- activation --------------------------------------------------------------

def test_default_is_null():
    assert get_metrics() is NULL_METRICS


def test_env_opt_in(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    reset_metrics()
    assert metrics_env_enabled()
    m = get_metrics()
    assert m.enabled and m is not NULL_METRICS
    assert get_metrics() is m  # stable across calls


def test_env_zero_means_off(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "0")
    reset_metrics()
    assert not metrics_env_enabled()
    assert get_metrics() is NULL_METRICS


def test_enable_disable_reset(monkeypatch):
    m = enable_metrics()
    assert get_metrics() is m and m.enabled
    disable_metrics()
    assert get_metrics() is NULL_METRICS
    monkeypatch.setenv(ENV_VAR, "1")
    reset_metrics()
    assert get_metrics().enabled  # reset re-reads the environment


def test_enable_accepts_existing_registry():
    mine = MetricsRegistry()
    assert enable_metrics(mine) is mine
    get_metrics().inc("hello")
    assert mine.counters == {"hello": 1}


def test_atexit_sink_writes_jsonl(tmp_path):
    # The exit hook is exercised in-process via a subprocess interpreter.
    import subprocess
    import sys
    out = tmp_path / "sink.jsonl"
    code = (
        "from repro.obs.metrics import get_metrics\n"
        "get_metrics().inc('boot', 3)\n"
    )
    env = {"REPRO_METRICS": "1", "REPRO_METRICS_JSONL": str(out)}
    import os
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, **env})
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert {"kind": "counter", "name": "boot", "value": 3} in lines
