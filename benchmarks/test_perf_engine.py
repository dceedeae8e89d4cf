"""Host-performance microbenchmarks for the simulation core.

Unlike the figure benchmarks (which measure deterministic *simulated* time),
these measure *host* wall-clock: raw engine event throughput and
persistent-kernel workgroups/second, with the run-length fast path on and
off.  Run with ``REPRO_WRITE_BENCH=1`` to refresh ``BENCH_engine.json`` at
the repo root (together with a representative figure regeneration), so the
host-performance trajectory is tracked PR over PR from one canonical
machine; a plain test run only asserts and prints.
"""

import gc
import os
import pathlib

from repro.bench.perf import time_call, write_bench_report
from repro.experiments import run_sweep
from repro.experiments.figures import fig9_sweep
from repro.hw.gpu import Gpu, WgCost
from repro.hw.platform import get_platform
from repro.kernels import PersistentKernel, make_uniform_tasks
from repro.sim import Simulator

#: Hardware platform the engine microbenchmarks model (recorded in
#: BENCH_engine.json so records stay comparable across platform changes).
BENCH_PLATFORM = get_platform("mi210")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Events pumped through the raw engine throughput measurement.
N_EVENTS = 200_000
#: Logical WGs in the persistent-kernel measurement.
N_TASKS = 100_000
#: Best-of-N repetitions per wall-clock measurement: host timing is noisy
#: (scheduling jitter, cache cold-starts), and for deterministic work the
#: minimum is the least-noisy estimator, so BENCH_engine.json numbers are
#: comparable run-to-run.
BEST_OF = 3
#: Reduced Fig. 9 grid for the representative figure regeneration.
FIG9_SMALL_GRID = ((8192, 8192), (16384, 16384), (32768, 16384))
#: Scenarios evaluated per repetition in the analytic-throughput
#: measurement (distinct parameter points, as a sweep would produce).
N_ANALYTIC = 512
#: Scenario evaluations per repetition in the collective-algorithm
#: throughput measurement (cycling the schedule menu, both collectives).
N_COLLECTIVE = 600
#: Scenario rows per repetition in the vectorized mega-batch measurement.
N_BATCH = 250_000
#: The DES scenario the engine-speedup ratio is measured against.
RATIO_SCENARIO = dict(m=8192, n_per_gpu=2048, world=4)
#: Trace events exported per repetition in the Chrome-export measurement.
N_TRACE_EVENTS = 100_000


def _engine_events_per_sec() -> float:
    def proc(sim):
        for _ in range(N_EVENTS):
            yield sim.timeout(1.0)

    def setup():
        sim = Simulator()
        sim.process(proc(sim))
        return sim

    _, wall = time_call(lambda sim: sim.run(), repeats=BEST_OF, setup=setup)
    return N_EVENTS / wall


def _kernel_wgs_per_sec() -> float:
    """Launch one hook-free uniform kernel of ``N_TASKS`` logical WGs.

    The kernel consumes its task list, so each best-of-N repetition
    rebuilds the simulator untimed (``time_call``'s ``setup`` hook) and
    only the event-loop run is measured.
    """
    def setup():
        sim = Simulator()
        gpu = Gpu(sim, BENCH_PLATFORM.gpu, gpu_id=0)
        tasks = make_uniform_tasks(N_TASKS, WgCost(bytes=4096.0))
        kern = PersistentKernel(gpu, gpu.base_res, tasks)
        kern.launch()
        return sim

    _, wall = time_call(lambda sim: sim.run(), repeats=BEST_OF, setup=setup)
    return N_TASKS / wall


def _analytic_scenarios_per_sec() -> float:
    """Evaluate ``N_ANALYTIC`` distinct GEMV+AllReduce scenarios through
    the closed-form backend (the second evaluation engine behind every
    sweep); returns scenarios per wall-second."""
    from repro.analytic import predict_gemv_allreduce

    def run_grid():
        for i in range(N_ANALYTIC):
            predict_gemv_allreduce(world=4, m=8192 + 64 * (i % 128),
                                   n_per_gpu=2048 + 16 * (i % 64))

    _, wall = time_call(run_grid, repeats=BEST_OF)
    return N_ANALYTIC / wall


def _analytic_batch_scenarios_per_sec() -> float:
    """Evaluate ``N_BATCH`` distinct embedding+A2A scenarios through the
    vectorized mega-batch engine (column construction included); the
    million-point design-space grids ride on this path."""
    import numpy as np
    from repro.analytic.batch import ScenarioBatch

    rng = np.random.default_rng(20240807)
    cols = {
        "global_batch": 512 * rng.integers(1, 19, N_BATCH),
        "tables_per_gpu": 8 * rng.integers(1, 33, N_BATCH),
        "slice_vectors": 2 ** rng.integers(3, 7, N_BATCH),
    }

    def run_batch():
        batch = ScenarioBatch.from_columns(
            "embedding_a2a_pair", cols,
            structural={"num_nodes": 2, "gpus_per_node": 1,
                        "platform": BENCH_PLATFORM.name})
        batch.evaluate()

    _, wall = time_call(run_batch, repeats=BEST_OF)
    return N_BATCH / wall


def _collective_algo_scenarios_per_sec() -> float:
    """Evaluate the collective-algorithm library's closed forms across
    the schedule menu (the `algo` sweep axis); scenarios per second."""
    from repro.analytic import CommModel

    shapes = ((1, 4), (2, 1), (2, 2), (2, 4))
    ar_algos = ("direct", "ring", "tree", "hier")
    a2a_algos = ("flat", "pairwise", "hier")

    def run_grid():
        models = [CommModel("mi210", num_nodes=n, gpus_per_node=g)
                  for n, g in shapes]
        for i in range(N_COLLECTIVE):
            cm = models[i % len(models)]
            n_elems = 4096 + 512 * (i % 64)
            cm.allreduce_time(float(2 * n_elems), n_elems, itemsize=2,
                              algo=ar_algos[i % len(ar_algos)])
            cm.alltoall_time(float(1024 + 256 * (i % 32)),
                             algo=a2a_algos[i % len(a2a_algos)])

    _, wall = time_call(run_grid, repeats=BEST_OF)
    return N_COLLECTIVE / wall


def _des_scenarios_per_sec() -> float:
    """The same operator pair under the DES, for the engine-speedup ratio."""
    from repro.experiments import run_scenario, scenario

    spec = scenario("gemv_allreduce_pair", **RATIO_SCENARIO)
    _, wall = time_call(lambda: run_scenario(spec), repeats=BEST_OF)
    return 1.0 / wall


def _trace_export_events_per_sec() -> float:
    """Chrome-export throughput over a synthetic Fig.-11-shaped trace
    (WG spans, PUT instants, kernel span) of ``N_TRACE_EVENTS`` events."""
    from repro.obs.chrome import chrome_trace_json
    from repro.sim import TraceRecorder

    tr = TraceRecorder()
    tr.record(0.0, "kernel_launch", "gpu0", kernel="bench")
    t = 0.0
    # 4 events per iteration: wg_start / put_issue / wg_end per WG.
    for i in range((N_TRACE_EVENTS - 2) // 4):
        actor = f"gpu0/wg{i % 64}"
        tr.record(t, "wg_start", actor, task=i)
        tr.record(t + 1e-7, "put_issue", actor, nbytes=4096, dest=1)
        tr.record(t + 2e-7, "wg_end", actor, task=i)
        tr.record(t + 2e-7, "flag_set", f"gpu1/wg{i % 64}", slice=i)
        t += 2e-7
    tr.record(t, "kernel_end", "gpu0", kernel="bench")

    n = len(tr)
    _, wall = time_call(lambda: chrome_trace_json(tr), repeats=BEST_OF)
    return n / wall


def _metrics_on_over_off_ratio() -> float:
    """DES scenario throughput with the metrics registry live over the
    default NULL_METRICS path (1.0 = free; the run loop counts in locals
    either way, so only the registry flushes cost anything).

    A DES run leaves garbage that the next run pays to collect, so the
    mode timed second would look slower whatever its cost.  Each timed
    run therefore starts from a collected heap (untimed), the two modes
    alternate which one leads a round, and each keeps its best wall."""
    from repro.experiments import run_scenario, scenario
    from repro.obs.metrics import enable_metrics, reset_metrics

    spec = scenario("gemv_allreduce_pair", **RATIO_SCENARIO)
    best = {False: float("inf"), True: float("inf")}
    for rnd in range(2 * BEST_OF):
        for on in ((False, True) if rnd % 2 == 0 else (True, False)):
            if on:
                enable_metrics()
            try:
                _, wall = time_call(lambda _: run_scenario(spec),
                                    setup=gc.collect)
            finally:
                reset_metrics()
            best[on] = min(best[on], wall)
    return best[False] / best[True]


def test_analytic_backend_throughput():
    """The analytic engine must stay orders of magnitude over the DES.

    The DSE contract (1,000+-scenario grids in seconds) needs roughly
    1,000 scenarios/sec; the ratio documents how far out of budget the
    equivalent DES grid is.
    """
    analytic = _analytic_scenarios_per_sec()
    des = _des_scenarios_per_sec()
    assert analytic > 500, (
        f"analytic backend collapsed: {analytic:.0f} scenarios/s")
    assert analytic / des > 50, (
        f"analytic/DES speedup collapsed: {analytic / des:.0f}x")


def test_analytic_batch_throughput():
    """The mega-batch engine's headline contract: at least a million
    scenarios per wall-second through the columnar path (the scalar
    analytic backend manages tens of thousands)."""
    per_sec = _analytic_batch_scenarios_per_sec()
    assert per_sec > 1_000_000, (
        f"mega-batch engine below contract: {per_sec:,.0f} scenarios/s")


def test_collective_algo_throughput():
    """The algorithm library's closed forms must stay sweep-grade fast
    (the dse algo axis multiplies every grid by the schedule menu)."""
    per_sec = _collective_algo_scenarios_per_sec()
    assert per_sec > 1000, (
        f"collective-algorithm evaluation collapsed: {per_sec:.0f}/s")


def test_engine_event_throughput():
    eps = _engine_events_per_sec()
    # Generous floor: even a slow CI box sustains far more than this.
    assert eps > 50_000, f"engine throughput collapsed: {eps:.0f} events/s"


def test_trace_export_throughput():
    """The Chrome exporter must stay interactive on real traces (the
    Fig. 11 scenario captures tens of thousands of events)."""
    eps = _trace_export_events_per_sec()
    assert eps > 10_000, f"trace export collapsed: {eps:.0f} events/s"


def test_metrics_overhead_bounded():
    """A live metrics registry may cost a little DES throughput, but a
    metrics-enabled run must stay within 25% of the default path
    (host-noise-tolerant floor; the committed report tracks the ratio)."""
    ratio = _metrics_on_over_off_ratio()
    assert ratio > 0.75, f"metrics-enabled DES throughput ratio {ratio:.2f}"


def test_fastpath_speedup_and_report(monkeypatch):
    """Fast path >= 5x WGs/sec on a hook-free uniform kernel; emit report."""
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    fast = _kernel_wgs_per_sec()
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
    slow = _kernel_wgs_per_sec()
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")

    speedup = fast / slow
    assert speedup >= 5.0, (
        f"fast path only {speedup:.1f}x over per-task stepping "
        f"({fast:.0f} vs {slow:.0f} WGs/s)")

    fig9, fig9_wall = time_call(lambda: run_sweep(
        fig9_sweep(FIG9_SMALL_GRID, name="bench-fig9")).figure())
    analytic = _analytic_scenarios_per_sec()
    des = _des_scenarios_per_sec()
    collective = _collective_algo_scenarios_per_sec()
    batch = _analytic_batch_scenarios_per_sec()
    payload = {
        # "platform" is the host OS string (write_bench_report);
        # "hw_platform" names the simulated hardware catalog entry.
        "hw_platform": BENCH_PLATFORM.name,
        "engine_events_per_sec": round(_engine_events_per_sec()),
        "kernel_wgs_per_sec_fastpath": round(fast),
        "kernel_wgs_per_sec_slowpath": round(slow),
        "fastpath_speedup": round(speedup, 1),
        "analytic_scenarios_per_sec": round(analytic),
        "analytic_batch_scenarios_per_sec": round(batch),
        "des_scenarios_per_sec": round(des, 2),
        "analytic_over_des_speedup": round(analytic / des),
        "collective_algos_scenarios_per_sec": round(collective),
        "trace_export_events_per_sec": round(_trace_export_events_per_sec()),
        "metrics_on_over_off_ratio": round(_metrics_on_over_off_ratio(), 3),
        "fig9_reduced_grid_wall_sec": round(fig9_wall, 3),
        "fig9_reduced_grid_mean_normalized": round(fig9.mean_normalized, 4),
    }
    # Wall-clock numbers are machine-dependent; only refresh the committed
    # report when explicitly asked, so a routine test run leaves a clean
    # working tree.
    if os.environ.get("REPRO_WRITE_BENCH"):
        payload = write_bench_report(REPO_ROOT / "BENCH_engine.json", payload)
    print()
    for key in sorted(payload):
        print(f"{key}: {payload[key]}")
