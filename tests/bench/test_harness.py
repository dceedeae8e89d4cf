"""Tests for the benchmark harness and the figure sweeps built on it."""

import pytest

from repro.bench import FigureResult, Row, compare
from repro.experiments import run_sweep
from repro.experiments.figures import (
    fig9_sweep,
    fig11_sweep,
    fig13_sweep,
    fig15_sweep,
    table1_sweep,
    table2_sweep,
)
from repro.fused import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
)


def test_row_normalized():
    r = Row(label="x", fused_time=1.0, baseline_time=2.0)
    assert r.normalized == 0.5


def test_figure_result_aggregates_and_render():
    res = FigureResult("Fig. X", "demo", paper_mean=0.8, paper_best=0.7)
    res.add(Row("a", 1.0, 2.0))
    res.add(Row("b", 3.0, 4.0))
    assert res.mean_normalized == pytest.approx((0.5 + 0.75) / 2)
    assert res.best_normalized == 0.5
    out = res.render()
    assert "Fig. X" in out and "paper reports" in out and "mean" in out
    summary = res.summary()
    assert summary["paper_mean"] == 0.8
    assert summary["mean_normalized"] == pytest.approx(0.625)


def test_figure_result_empty_rows():
    res = FigureResult("T", "extra only")
    res.extra["k"] = "v"
    assert "k: v" in res.render()
    with pytest.raises(ValueError):
        _ = res.mean_normalized


def test_compare_runs_fresh_clusters():
    cfg = EmbeddingA2AConfig(global_batch=64, tables_per_gpu=4, dim=16,
                             pooling=5, rows_per_table=50, slice_vectors=8,
                             functional=False)
    row = compare("64|4",
                  lambda h: FusedEmbeddingAllToAll(h, cfg),
                  lambda h: BaselineEmbeddingAllToAll(h, cfg),
                  num_nodes=2, gpus_per_node=1)
    assert row.fused_time > 0 and row.baseline_time > 0
    assert row.normalized < 1.0


def test_table_setups_have_paper_values():
    t1 = run_sweep(table1_sweep()).figure()
    assert "104 CUs" in t1.extra["GPU"]
    t2 = run_sweep(table2_sweep()).figure()
    assert t2.extra["Embedding dimension"] == 92


def test_fig9_reduced_grid_shape():
    res = run_sweep(fig9_sweep(grid=((8192, 8192), (65536, 8192)))).figure()
    assert len(res.rows) == 2
    assert res.rows[0].normalized < res.rows[1].normalized


def test_fig11_small_trace():
    res = run_sweep(fig11_sweep(batch=128, tables=8,
                                wgs_per_slice=8)).figure()
    assert res.extra["puts_issued_node0"] > 0
    assert "timeline" in res.extra


def test_fig13_sparse_sweep():
    res = run_sweep(fig13_sweep(batch=512, tables=64,
                                fractions=(0.25, 0.75, 0.875))).figure()
    t = {r.label: r.fused_time for r in res.rows}
    assert t["75.0%"] < t["25.0%"] and t["87.5%"] > t["75.0%"]


def test_fig15_small_sweep():
    res = run_sweep(fig15_sweep(node_counts=(16, 128))).figure()
    assert len(res.rows) == 2
    assert all(r.normalized < 1.0 for r in res.rows)
