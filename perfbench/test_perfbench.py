"""Tests of the benchmark itself: generators, output checks, metric lists.

Each output check is shown to pass on the program's real output and to
fail on a perturbed copy of it.  Run with
``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# -- generators -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = workloads.make_workload(name, 7, 100, tmp_path)
    b = workloads.make_workload(name, 7, 100, tmp_path)
    c = workloads.make_workload(name, 8, 100, tmp_path)
    assert len(a.plan) == 100
    assert a.inputs_digest() == b.inputs_digest()
    assert a.inputs_digest() != c.inputs_digest()


def test_des_draw_covers_every_runner_and_varies_algo_and_platform(tmp_path):
    wl = workloads.make_workload("des-ops", 3, 120, tmp_path)
    runners = {s.runner for s in wl.inputs}
    assert runners == set(workloads.DES_POOL)
    assert len({s.params.get("platform") for s in wl.inputs}) > 1
    assert len({s.params.get("algo") for s in wl.inputs}) > 1
    counts = {i: wl.plan.count(i) for i in range(len(wl.inputs))}
    assert min(counts.values()) >= 2, "every input must repeat"


def test_mega_grid_size_is_fixed(tmp_path):
    for seed in (1, 2, 3):
        wl = workloads.make_workload("analytic-mega", seed, 8, tmp_path)
        assert {len(s) for s in wl.inputs} == {103_680}


# -- output checks ------------------------------------------------------------

def _call(key, digest, pos, error=None):
    return {"pos": pos, "key": key, "digest": digest, "error": error,
            "s": 0.1, "n": 1, "traced": False}


def test_repeat_identity_check_flags_a_differing_repeat():
    parts = [{"calls": [_call("a", "x", 0), _call("b", "y", 1)]},
             {"calls": [_call("a", "x", 2), _call("b", "z", 3)]}]
    ok = {c["pos"]: c["ok"] for c in run.judge(parts)}
    assert ok == {0: True, 1: True, 2: True, 3: False}


def test_raised_call_is_failed():
    parts = [{"calls": [_call("a", None, 0, error="boom"),
                        _call("a", "x", 1)]}]
    ok = {c["pos"]: c["ok"] for c in run.judge(parts)}
    assert ok == {0: False, 1: True}


def test_des_accuracy_check_fails_outside_the_budget(tmp_path):
    from repro.experiments import execution
    wl = workloads.make_workload("des-ops", 5, 120, tmp_path)
    i = next(j for j, case in enumerate(wl.cases) if case is not None)
    # The analytic twin stands in for the DES result: it agrees exactly.
    result = execution.run_scenario(wl.inputs[i].with_backend("analytic"))
    assert wl.check_input(i, result) is None
    perturbed = dict(result, fused_time=result["fused_time"] * 1.2)
    assert "budget" in wl.check_input(i, perturbed)


def test_points_batch_check_fails_on_a_perturbed_record(tmp_path):
    wl = workloads.make_workload("analytic-points", 5, 16, tmp_path)
    results = wl.call(0)
    assert wl.check_input(0, results) is None
    j = wl._samples[0][0]
    bad = list(results)
    bad[j] = {k: (v * (1 + 1e-12) if isinstance(v, float) else v)
              for k, v in results[j].items()}
    assert bad[j] != results[j]
    assert "differs" in wl.check_input(0, bad)


def test_mega_scalar_check_fails_on_a_perturbed_frontier(tmp_path):
    from repro.bench.harness import Row
    wl = workloads.make_workload("analytic-mega", 5, 8, tmp_path)
    run_ = wl.call(0)
    assert wl.check_input(0, run_) is None
    row = run_.figure().rows[0]
    run_.figure().rows[0] = Row(label=row.label,
                                fused_time=row.fused_time * 1.5,
                                baseline_time=row.baseline_time)
    assert "not a grid point" in wl.check_input(0, run_)


def test_sweep_warm_check_fails_on_a_miss_or_a_changed_report(tmp_path):
    wl = workloads.make_workload("sweep-warm", 5, 4, tmp_path)
    wl.setup()
    try:
        result = wl.call(0)
        run_, rep = result
        assert wl.check(0, result, wl.result_digest(0, result)) is None
        changed = (run_, dict(rep, title=rep["title"] + " "))
        assert "differs" in wl.check(0, changed,
                                     wl.result_digest(0, changed))
        run_.outcomes[0] = run_.outcomes[0].__class__(
            spec=run_.outcomes[0].spec, key=run_.outcomes[0].key,
            result=run_.outcomes[0].result, cached=False)
        assert "hit fraction" in wl.check(0, result,
                                          wl.result_digest(0, result))
    finally:
        wl.close()
    assert not wl.store_dir.exists()


# -- metric lists -------------------------------------------------------------

def test_benchmark_json_lists_what_the_runs_report():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(run.NOMINAL_RATE) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in doc["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == tracing.LAYER_METRICS


def test_interaction_map_covers_every_layer_metric():
    doc = json.loads((BENCH_DIR / "interactions.json").read_text())
    mapped = [m for layer in doc["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(tracing.LAYER_METRICS)
    assert sorted(doc["workloads"]) == sorted(workloads.WORKLOADS)
    assert len(doc["unmeasured"]) == 3


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 0.5) == 50


# -- speed scaling ------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(speed.PROBES))
def test_probe_times_its_work(kind):
    assert 0 < speed.probe(kind) < 1


def test_speed_factor_is_a_moving_median_over_nominal():
    nominal = speed.NOMINAL_S["python"]
    probes = [nominal] * 10 + [2 * nominal] * 10
    factors = speed.speed_factors("python", probes)
    assert factors[0] == 1.0 and factors[-1] == 2.0
    # One outlying probe does not move a call's factor.
    spiky = [nominal] * 9 + [5 * nominal] + [nominal] * 9
    assert set(speed.speed_factors("python", spiky)) == {1.0}


def test_time_metrics_are_divided_by_the_speed_factor():
    calls = [dict(_call("a", "x", k), s=0.2, f=2.0, ok=True)
             for k in range(10)]
    parts = [{"setup_s": 1.0, "f": 2.0, "rss_kb": 1024, "calls": calls}]
    raw = run.end_to_end(parts, calls, scaled=False)
    scaled = run.end_to_end(parts, calls, scaled=True)
    assert raw["call_ms_p50"] == pytest.approx(200.0)
    assert scaled["call_ms_p50"] == pytest.approx(100.0)
    assert scaled["scenarios_per_s"] == pytest.approx(10.0)
    assert scaled["setup_s"] == pytest.approx(0.5)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 1.0
    assert scaled["ok_frac"] == 1.0
