"""Mega sweeps: axis-defined grids, sweep-level caching, and the
vectorized frontier assembly vs the scalar dse_frontier semantics."""

from pathlib import Path

import numpy as np

from oracles import pareto_frontier_legacy
from repro.analytic import predict_embedding_a2a
from repro.experiments.mega import (
    MegaSweepSpec,
    _axis_index_columns,
    _point_label,
    dse_mega_smoke_sweep,
    dse_mega_sweep,
    find_mega,
    get_mega,
    run_mega,
)
from repro.experiments.report import report_json
from repro.experiments.specs import grid_params
from repro.experiments.store import ResultStore

DATA = Path(__file__).resolve().parent / "data"


def test_spec_len_and_key_stability():
    spec = dse_mega_smoke_sweep()
    assert len(spec) == 16
    assert spec.key() == dse_mega_smoke_sweep().key()
    assert len(dse_mega_sweep()) >= 100_000
    # Axis order is part of the identity: reordering reorders the grid.
    axes = spec.axes
    reordered = dict(reversed(list(axes.items())))
    other = MegaSweepSpec.make(spec.name, spec.title, spec.runner, reordered)
    assert other.key() != spec.key()


def test_registry_lookup():
    assert find_mega("dse_mega") is not None
    assert find_mega("dse-mega-smoke") is not None
    assert find_mega("smoke") is None
    assert get_mega("dse_mega").runner == "embedding_a2a_pair"


def test_cold_then_cached_runs_are_byte_identical(tmp_path):
    spec = dse_mega_smoke_sweep()
    store = ResultStore(tmp_path / "cache")
    cold = run_mega(spec, store=store)
    assert cold.executed == len(spec)
    assert store.path_for(spec.key()).is_file()
    cached = run_mega(spec, store=store)
    assert cached.executed == 0
    assert cached.cache_hits == len(spec)
    assert report_json(cold.report()) == report_json(cached.report())
    # force re-executes but lands on the same bytes (deterministic math).
    forced = run_mega(spec, store=store, force=True)
    assert forced.executed == len(spec)
    assert report_json(forced.report()) == report_json(cold.report())


def test_only_one_store_record_for_the_whole_grid(tmp_path):
    store = ResultStore(tmp_path / "cache")
    run_mega(dse_mega_smoke_sweep(), store=store)
    assert len(store) == 1


def test_frontier_matches_scalar_dse_assembly():
    """The vectorized assembler must select exactly the points the scalar
    dse_frontier logic (legacy all-pairs Pareto over per-scenario predict
    calls) selects, per platform and globally."""
    spec = dse_mega_smoke_sweep()
    run = run_mega(spec)
    fig = run.figure()

    points = []
    for p in grid_params(**spec.axes):
        p.pop("algo")       # None = legacy schedule (matches the grid)
        res = predict_embedding_a2a(**p)
        points.append((p, res, res["baseline_time"] / res["fused_time"]))
    objectives = lambda pt: (pt[1]["fused_time"], -pt[2])  # noqa: E731

    by_platform = {}
    expected_rows = []
    for name in sorted({p["platform"] for p, _r, _s in points}):
        mine = [pt for pt in points if pt[0]["platform"] == name]
        frontier = pareto_frontier_legacy(mine, objectives)
        by_platform[name] = len(frontier)
        expected_rows.extend((r["fused_time"], r["baseline_time"])
                             for _p, r, _s in frontier)

    assert fig.extra["n_scenarios"] == len(points)
    assert fig.extra["frontier_by_platform"] == by_platform
    got_rows = [(r.fused_time, r.baseline_time) for r in fig.rows]
    assert got_rows == expected_rows
    # Grid row i is points[i], so the oracle's global frontier maps to
    # labels through the same axis-index columns the assembler uses.
    idx_cols = _axis_index_columns(spec.axes)
    global_rows = pareto_frontier_legacy(range(len(points)),
                                         lambda i: objectives(points[i]))
    assert fig.extra["global_frontier"] == sorted(
        _point_label(spec.axes, idx_cols, i) for i in global_rows)


def test_dse_mega_report_is_byte_identical_to_golden():
    """The full 103,680-point report (every frontier row, the exact ties,
    the global frontier and the formatted numbers) is pinned byte for
    byte: it is what ``repro run dse_mega --report-dir`` writes."""
    golden = (DATA / "golden_dse_mega_report.json").read_text(
        encoding="utf-8")
    assert report_json(run_mega(dse_mega_sweep()).report()) == golden


def test_report_shape_and_render():
    run = run_mega(dse_mega_smoke_sweep())
    report = run.report()
    assert report["scenarios"] == []
    assert report["sweep"] == "dse-mega-smoke"
    assert report["figure"]["rows"]
    from repro.experiments.report import render_report
    text = render_report(report)
    assert "DSE mega smoke" in text


def test_full_dse_mega_grid_runs_fast_and_validates():
    import time
    spec = dse_mega_sweep()
    t0 = time.perf_counter()
    run = run_mega(spec)
    elapsed = time.perf_counter() - t0
    fig = run.figure()
    assert fig.extra["n_scenarios"] == len(spec) >= 100_000
    assert fig.extra["n_frontier"] == len(fig.rows) > 0
    speedups = np.array([r.baseline_time / r.fused_time for r in fig.rows])
    assert (speedups > 0).all()
    # Generous wall-clock bound (the point of the engine); typically ~0.2s.
    assert elapsed < 30.0
