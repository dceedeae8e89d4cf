"""Cross-module integration tests: full pipelines over the whole stack."""

import numpy as np

from repro.fused import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
    OpHarness,
)
from repro.models import (
    Dlrm,
    MoeLayer,
    MoeLayerConfig,
    TensorParallelMlp,
    TransformerMlpConfig,
    categorical_indices,
    dense_features,
    token_batch,
)
from repro.ops import interaction, sigmoid


def test_distributed_dlrm_matches_single_device():
    """The fused embedding+A2A stage slots into a real DLRM forward pass
    and reproduces the single-device model's predictions exactly."""
    world, t_per, dim, pooling, rows, batch = 4, 2, 8, 4, 40, 32
    model = Dlrm.create(dense_dim=7, embedding_dim=dim,
                        num_tables=world * t_per, rows_per_table=rows,
                        bottom_sizes=[16], top_sizes=[16],
                        rng=np.random.default_rng(21))
    dense = dense_features(batch, 7, seed=22)
    indices = categorical_indices(batch, world * t_per, pooling, rows,
                                  seed=23)
    reference = model(dense, indices)

    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=t_per,
                             dim=dim, pooling=pooling, rows_per_table=rows,
                             slice_vectors=4, functional=True)
    harness = OpHarness(num_nodes=1, gpus_per_node=world)
    op = FusedEmbeddingAllToAll(harness, cfg)
    for r in range(world):
        for t in range(t_per):
            op.tables[r][t] = model.tables[r * t_per + t]
            op.indices[r][t] = indices[r * t_per + t]
    result = harness.run(op)

    local = batch // world
    bottom_out = model.bottom_mlp(dense)
    preds = np.empty(batch, np.float32)
    for rank in range(world):
        sl = slice(rank * local, (rank + 1) * local)
        feats = interaction(bottom_out[sl], result.outputs[rank])
        preds[sl] = sigmoid(model.top_mlp(feats)[:, 0])
    np.testing.assert_allclose(preds, reference, rtol=1e-4, atol=1e-6)


def test_transformer_decode_through_fused_gemv():
    """Tensor-parallel decode: the fused GEMV+AllReduce reproduces the
    block's second-layer output when fed the per-rank activations."""
    cfg = TransformerMlpConfig(hidden=128, ffn_multiplier=2,
                               tensor_parallel=4)
    mlp = TensorParallelMlp.create(cfg, rng=np.random.default_rng(31))
    x = dense_features(1, cfg.hidden, seed=32)

    gcfg = GemvAllReduceConfig(m=cfg.hidden,
                               n_per_gpu=cfg.shard_columns(),
                               tile_rows=16, functional=True)
    harness = OpHarness(num_nodes=1, gpus_per_node=4)
    op = FusedGemvAllReduce(harness, gcfg)
    from repro.ops import gelu

    for r in range(4):
        h_r = gelu(x @ mlp.w0_shards[r])[0]          # (ffn/world,)
        op.mats[r] = np.ascontiguousarray(mlp.w1_shards[r].T)  # (hidden, n)
        op.vecs[r] = h_r
    result = harness.run(op)
    reference = mlp(x)[0]
    for r in range(4):
        np.testing.assert_allclose(result.outputs[r], reference,
                                   rtol=1e-3, atol=1e-5)


def test_moe_reference_consistent_with_gemm_config():
    """MoE gating + the per-expert GEMM config agree on problem shapes."""
    cfg = MoeLayerConfig(tokens=128, model_dim=32, ffn_dim=64,
                         num_experts=4, top_k=2)
    layer = MoeLayer.create(cfg, rng=np.random.default_rng(41))
    x, _ = token_batch(cfg.tokens, cfg.model_dim, seed=42)
    counts = layer.dispatch_counts(x)
    # Uniform-load assumption (the paper's): expert tokens ~ tokens*k/E.
    expected = cfg.tokens * cfg.top_k / cfg.num_experts
    gcfg = layer.gemm_config(tokens_per_expert=int(expected), block_m=8,
                             block_n=16)
    assert gcfg.model_dim == cfg.model_dim
    assert gcfg.ffn_dim == cfg.ffn_dim
    assert counts.sum() == cfg.tokens * cfg.top_k


def test_fused_wins_consistently_across_seeds():
    """Timing is workload-shape-dependent, not data-dependent: different
    seeds give identical simulated times."""
    times = []
    for seed in (0, 1, 2):
        cfg = EmbeddingA2AConfig(global_batch=64, tables_per_gpu=4, dim=16,
                                 pooling=5, rows_per_table=50,
                                 slice_vectors=8, seed=seed)
        h = OpHarness(num_nodes=2, gpus_per_node=1)
        times.append(h.run(FusedEmbeddingAllToAll(h, cfg)).elapsed)
    assert times[0] == times[1] == times[2]


def test_simulation_is_deterministic():
    """Bit-identical repeat runs (event ordering, flags, transfers)."""
    def run_once():
        cfg = EmbeddingA2AConfig(global_batch=128, tables_per_gpu=8,
                                 dim=16, pooling=5, rows_per_table=50,
                                 slice_vectors=8)
        h = OpHarness(num_nodes=2, gpus_per_node=1)
        res = h.run(FusedEmbeddingAllToAll(h, cfg))
        return res.elapsed, [o.copy() for o in res.outputs]

    t1, o1 = run_once()
    t2, o2 = run_once()
    assert t1 == t2
    for a, b in zip(o1, o2):
        np.testing.assert_array_equal(a, b)


def test_all_three_operators_beat_baseline_on_one_cluster_shape():
    """Sanity sweep of the paper's three headline results."""
    from repro.fused import (
        BaselineGemmAllToAll,
        BaselineGemvAllReduce,
        FusedGemmAllToAll,
        GemmA2AConfig,
    )

    norms = {}
    cfg_e = EmbeddingA2AConfig(global_batch=1024, tables_per_gpu=64,
                               functional=False)
    h1 = OpHarness(2, 1)
    h2 = OpHarness(2, 1)
    norms["embedding"] = (h1.run(FusedEmbeddingAllToAll(h1, cfg_e)).elapsed
                          / h2.run(BaselineEmbeddingAllToAll(h2, cfg_e))
                          .elapsed)
    cfg_v = GemvAllReduceConfig(m=16384, n_per_gpu=4096, functional=False)
    h3 = OpHarness(1, 4)
    h4 = OpHarness(1, 4)
    norms["gemv"] = (h3.run(FusedGemvAllReduce(h3, cfg_v)).elapsed
                     / h4.run(BaselineGemvAllReduce(h4, cfg_v)).elapsed)
    cfg_g = GemmA2AConfig(tokens=2048, model_dim=4096, ffn_dim=8192,
                          functional=False)
    h5 = OpHarness(1, 4)
    h6 = OpHarness(1, 4)
    norms["gemm"] = (h5.run(FusedGemmAllToAll(h5, cfg_g)).elapsed
                     / h6.run(BaselineGemmAllToAll(h6, cfg_g)).elapsed)
    assert all(v < 1.0 for v in norms.values()), norms
    # Relative ordering the paper reports: embedding wins most, GEMM least.
    assert norms["embedding"] < norms["gemv"] < norms["gemm"]
