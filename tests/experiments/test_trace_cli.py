"""CLI tests for ``repro trace`` / ``repro stats`` and the golden export.

The golden file (``data/golden_trace_smoke.json``) pins the byte-exact
Chrome trace of the ``trace-smoke`` sweep: any nondeterminism in the
simulator, the trace recorder, or the exporter shows up as a byte diff
here (and in the CI step that repeats this comparison from a fresh
process).
"""

import json
from pathlib import Path

import pytest

from repro.experiments import get_sweep, run_sweep
from repro.experiments.cli import main
from repro.obs.chrome import validate_chrome_trace
from repro.obs.metrics import reset_metrics

GOLDEN = Path(__file__).parent / "data" / "golden_trace_smoke.json"


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


def test_trace_export_matches_golden_bytes(tmp_path):
    out = tmp_path / "trace.json"
    assert main(["trace", "trace-smoke", "--quiet",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_trace_is_valid_chrome_trace():
    data = json.loads(GOLDEN.read_text())
    n = validate_chrome_trace(data)
    assert n > 0
    names = {e["args"]["name"] for e in data["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"trace-smoke:trace 64|4/run0"}


def test_trace_smoke_sweep_assembles_a_figure():
    # `repro run trace-smoke` (and so `repro run all`) assembles the sweep
    # as a figure, not only exports its trace.
    fig = run_sweep(get_sweep("trace-smoke")).figure()
    assert fig.extra["puts_issued_node0"] == 16
    assert "gpu0/wg0" in fig.extra["timeline"]
    assert "gpu0/wg0" in fig.render()


def test_trace_scenario_filter(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "smoke", "--quiet", "--scenario", "8k|2k",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    validate_chrome_trace(data)
    names = {e["args"]["name"] for e in data["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert all(n.startswith("smoke:8k|2k/") for n in names)


def test_trace_unknown_scenario_fails(tmp_path, capsys):
    assert main(["trace", "smoke", "--quiet", "--scenario", "nope",
                 "--out", str(tmp_path / "t.json")]) == 1
    assert "no scenario" in capsys.readouterr().err


def test_trace_analytic_only_sweep_fails(tmp_path, capsys):
    # dse-smoke is pinned to the analytic backend: no simulated cluster,
    # nothing to trace — the command must say so, not write an empty file.
    out = tmp_path / "t.json"
    assert main(["trace", "dse-smoke", "--quiet", "--out", str(out)]) == 1
    assert "nothing traced" in capsys.readouterr().err
    assert not out.exists()


def test_trace_host_spans_adds_host_process(tmp_path):
    out = tmp_path / "trace.json"
    assert main(["trace", "trace-smoke", "--quiet", "--host-spans",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    validate_chrome_trace(data)
    names = {e["args"]["name"] for e in data["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert "host" in names


def test_stats_reports_counters(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["stats", "smoke", "--quiet", "--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "0 cached, 3 executed" in captured.err
    assert "sim.events_processed" in captured.out
    assert "sweep.cache_misses" in captured.out
    # Cached second run flips the counters.
    assert main(["stats", "smoke", "--quiet", "--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "3 cached, 0 executed" in captured.err
    assert "sweep.cache_hits" in captured.out


def test_stats_json_snapshot(tmp_path, capsys):
    assert main(["stats", "smoke", "--quiet", "--no-cache",
                 "--cache", str(tmp_path / "unused"), "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"]["sweep.cache_misses"] == 3
    assert snap["gauges"]["sim.heap_peak"] >= 1
    assert "sweep.serial_wall_s" in snap["timers"]


def test_stats_leaves_metrics_disabled(tmp_path, capsys):
    from repro.obs.metrics import NULL_METRICS, get_metrics
    assert main(["stats", "smoke", "--quiet", "--no-cache",
                 "--cache", str(tmp_path / "unused")]) == 0
    capsys.readouterr()
    assert get_metrics() is NULL_METRICS
