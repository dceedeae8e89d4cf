"""Pinned discrete-event results across every DES runner.

``data/golden_des_results.json`` holds about forty seeded scenarios that
cover all five DES runners, all four catalog platforms and the (1,4),
(2,1) and (2,2) cluster shapes (fabric and NIC), with ``algo`` variants,
the ``oblivious`` scheduler, ``occupancy_of_baseline`` and
``tasks_per_slice``.  Each record is the runner, its parameters and the
full result; the test replays every scenario and compares the result's
canonical JSON byte for byte, so any change to simulated timing shows up
here.

``data/golden_des_counters.json`` holds, for the same scenarios in the same
order, every counter and gauge the run-metrics registry records in a run
with a fresh registry (events processed, heap peak, kernel launches and
tasks, ``auto`` collective picks).  Timers are left out.
The replay compares them exactly, so a change that adds or removes engine
events or kernel tasks shows up here even when every result stays put.

Regenerate both (only when a change to simulated results or to the work
the engine does is intended)::

    PYTHONPATH=src python tests/integration/test_des_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from repro.experiments.execution import run_scenario
from repro.experiments.specs import ScenarioSpec, canonical_json
from repro.obs.metrics import enable_metrics, reset_metrics

GOLDEN = Path(__file__).parent / "data" / "golden_des_results.json"
COUNTERS = Path(__file__).parent / "data" / "golden_des_counters.json"

RUNNERS = ("embedding_a2a_pair", "embedding_fused", "embedding_grad_pair",
           "gemv_allreduce_pair", "gemm_a2a_pair")
PLATFORMS = ("mi210", "mi250x", "mi300x", "h100")
SHAPES = ((1, 4), (2, 1), (2, 2))
N_SCENARIOS = 40


def _embedding_params(rng, runner, nodes, gpus, with_algo):
    world = nodes * gpus
    slice_vectors = rng.choice([16, 32])
    local = rng.choice([2, 4, 8]) * slice_vectors
    p = dict(global_batch=local * world,
             tables_per_gpu=rng.choice([2, 4, 8, 16]),
             slice_vectors=slice_vectors, num_nodes=nodes,
             gpus_per_node=gpus)
    tps = rng.choice([0, 0, 1, 2, 4])
    if tps:
        p["tasks_per_slice"] = tps
    if rng.random() < 0.3:
        p["scheduler"] = "oblivious"
    if runner == "embedding_fused" and rng.random() < 0.5:
        p["occupancy_of_baseline"] = rng.choice([0.25, 0.5, 0.75])
    if runner == "embedding_fused" and nodes > 1 and rng.random() < 0.3:
        p["cpu_proxy"] = True
    if runner == "embedding_a2a_pair" and rng.random() < 0.2:
        p["zero_copy"] = False
    if with_algo:
        algos = ["flat", "pairwise", "auto"] + (["hier"] if gpus > 1 else [])
        p["algo"] = rng.choice(algos)
    return p


def _scenario_params(rng, i):
    runner = RUNNERS[i % len(RUNNERS)]
    platform = PLATFORMS[(i // len(RUNNERS)) % len(PLATFORMS)]
    with_algo = rng.random() < 0.5
    if runner == "gemv_allreduce_pair":
        world = rng.choice([2, 4])
        tile_rows = rng.choice([8, 16])
        p = dict(m=rng.choice([8, 32, 128]) * world * tile_rows,
                 n_per_gpu=rng.choice([512, 2048]), tile_rows=tile_rows,
                 world=world)
        if rng.random() < 0.3:
            p["scheduler"] = "oblivious"
        if with_algo:
            p["algo"] = rng.choice(["direct", "ring", "tree", "auto"])
    elif runner == "gemm_a2a_pair":
        world = rng.choice([2, 4])
        p = dict(tokens=rng.choice([2, 4, 8]) * world * 64,
                 model_dim=rng.choice([256, 1024]),
                 ffn_dim=rng.choice([256, 512]), world=world)
        if rng.random() < 0.3:
            p["scheduler"] = "oblivious"
        if with_algo:
            p["algo"] = rng.choice(["flat", "pairwise", "auto"])
    else:
        nodes, gpus = SHAPES[(i // len(RUNNERS)) % len(SHAPES)]
        p = _embedding_params(rng, runner, nodes, gpus,
                              with_algo and runner != "embedding_fused")
    p["platform"] = platform
    return runner, p


def run_counted(runner, params):
    """Run one scenario with a fresh metrics registry.

    Returns the result and ``{"counters": ..., "gauges": ...}`` of that run.
    """
    registry = enable_metrics()
    try:
        result = run_scenario(ScenarioSpec.make(runner, **params))
    finally:
        reset_metrics()
    snap = registry.snapshot()
    return result, {"counters": snap["counters"], "gauges": snap["gauges"]}


def generate():
    """The seeded scenario list with each scenario's current result, and
    the matching list of work counters."""
    rng = random.Random(0xDE5)
    records, counters = [], []
    for i in range(N_SCENARIOS):
        runner, params = _scenario_params(rng, i)
        result, work = run_counted(runner, params)
        records.append({"runner": runner, "params": params, "result": result})
        counters.append({"runner": runner, "params": params, **work})
    return records, counters


def _records():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _counters():
    return json.loads(COUNTERS.read_text(encoding="utf-8"))


def test_golden_covers_runners_platforms_and_shapes():
    recs = _records()
    assert len(recs) == N_SCENARIOS
    assert {r["runner"] for r in recs} == set(RUNNERS)
    assert {r["params"]["platform"] for r in recs} == set(PLATFORMS)
    shapes = {(r["params"]["num_nodes"], r["params"]["gpus_per_node"])
              for r in recs if "num_nodes" in r["params"]}
    assert shapes == set(SHAPES)
    params = [r["params"] for r in recs]
    assert any("algo" in p for p in params)
    assert any(p.get("scheduler") == "oblivious" for p in params)
    assert any("occupancy_of_baseline" in p for p in params)
    assert any("tasks_per_slice" in p for p in params)


def test_counters_golden_pairs_with_results_golden():
    recs, counters = _records(), _counters()
    assert [(r["runner"], r["params"]) for r in recs] == \
        [(c["runner"], c["params"]) for c in counters]
    for c in counters:
        assert c["counters"]["sim.events_processed"] > 0
        assert c["counters"]["kernel.tasks"] > 0
        assert c["gauges"]["sim.heap_peak"] > 0


@pytest.mark.parametrize("runner", RUNNERS)
def test_des_results_match_golden(runner):
    for rec, work in zip(_records(), _counters()):
        if rec["runner"] != runner:
            continue
        got, got_work = run_counted(runner, rec["params"])
        assert canonical_json(got) == canonical_json(rec["result"]), \
            rec["params"]
        assert got_work == {"counters": work["counters"],
                            "gauges": work["gauges"]}, rec["params"]


if __name__ == "__main__":
    records, counters = generate()
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, data in ((GOLDEN, records), (COUNTERS, counters)):
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
