"""Tests for the fused gradient All-to-All + scatter-add (backward pass)."""

import numpy as np
import pytest

from repro.fused import (
    BaselineEmbeddingGradAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingGradAllToAll,
    OpHarness,
)
from repro.fused.embedding_grad_alltoall import (
    SCATTER_ATOMIC_FACTOR,
    make_gradients,
    reference_table_grads,
    scatter_add,
)

SMALL = dict(global_batch=64, tables_per_gpu=4, dim=16, pooling=5,
             rows_per_table=50, slice_vectors=8)


def test_scatter_add_matches_dense_jacobian():
    """sum-pooling backward: each looked-up row receives the full gradient."""
    rng = np.random.default_rng(0)
    table_grad = np.zeros((10, 4), np.float32)
    idx = rng.integers(0, 10, size=(3, 2))
    grads = rng.standard_normal((3, 4)).astype(np.float32)
    scatter_add(table_grad, idx, grads)
    expected = np.zeros_like(table_grad)
    for b in range(3):
        for p in range(2):
            expected[idx[b, p]] += grads[b]
    np.testing.assert_allclose(table_grad, expected, rtol=1e-6)


@pytest.mark.parametrize("nodes,gpn", [(2, 1), (1, 4), (2, 2)])
def test_fused_backward_matches_reference(nodes, gpn):
    cfg = EmbeddingA2AConfig(**SMALL)
    world = nodes * gpn
    h1 = OpHarness(num_nodes=nodes, gpus_per_node=gpn)
    fused = h1.run(FusedEmbeddingGradAllToAll(h1, cfg))
    ref = reference_table_grads(cfg, world, make_gradients(cfg, world))
    for r in range(world):
        np.testing.assert_allclose(fused.outputs[r], ref[r],
                                   rtol=1e-4, atol=1e-5)


def test_fused_equals_baseline_backward():
    cfg = EmbeddingA2AConfig(**SMALL)
    h1 = OpHarness(num_nodes=2, gpus_per_node=1)
    fused = h1.run(FusedEmbeddingGradAllToAll(h1, cfg))
    h2 = OpHarness(num_nodes=2, gpus_per_node=1)
    base = h2.run(BaselineEmbeddingGradAllToAll(h2, cfg))
    for f, b in zip(fused.outputs, base.outputs):
        np.testing.assert_allclose(f, b, rtol=1e-4, atol=1e-5)


def test_fused_backward_wins_at_paper_scale():
    cfg = EmbeddingA2AConfig(global_batch=1024, tables_per_gpu=64,
                             functional=False)
    h1 = OpHarness(num_nodes=2, gpus_per_node=1)
    fused = h1.run(FusedEmbeddingGradAllToAll(h1, cfg))
    h2 = OpHarness(num_nodes=2, gpus_per_node=1)
    base = h2.run(BaselineEmbeddingGradAllToAll(h2, cfg))
    assert fused.normalized_to(base) < 0.95


def test_timing_only_matches_functional_time_backward():
    times = {}
    for functional in (True, False):
        cfg = EmbeddingA2AConfig(**{**SMALL, "functional": functional})
        h = OpHarness(num_nodes=2, gpus_per_node=1)
        times[functional] = h.run(FusedEmbeddingGradAllToAll(h, cfg)).elapsed
    assert times[True] == pytest.approx(times[False], rel=1e-9)


def test_scatter_cost_pays_atomic_factor():
    from repro.ops.embedding import embedding_wg_cost

    cfg = EmbeddingA2AConfig(**SMALL)
    sc = cfg.scatter_cost(1)
    fwd = embedding_wg_cost(cfg.pooling, cfg.dim)
    assert sc.bytes == pytest.approx(fwd.bytes * SCATTER_ATOMIC_FACTOR)
    assert sc.access == "gather"


def test_apply_tasks_gated_by_incoming_flags():
    """Every apply waits for its slice's gradRdy flag — the operator must
    still complete (no deadlock) and consume every flag exactly once."""
    cfg = EmbeddingA2AConfig(**SMALL)
    h = OpHarness(num_nodes=2, gpus_per_node=1)
    op = FusedEmbeddingGradAllToAll(h, cfg)
    h.run(op)
    for rank in range(2):
        assert op.flags[rank].all_set(rank)
