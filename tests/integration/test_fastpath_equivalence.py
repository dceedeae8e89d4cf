"""Fast path vs. per-slot reference path: bit-identical simulated behaviour.

The fast-path simulation core (the per-launch task loop, the uniform-kernel
fast-forward, memoized cost models, zero-overhead tracing) must change
*host* time only.  These tests run the same operators with
``REPRO_SIM_FASTPATH`` on and off across seeded randomized grids of all
five fused operators and require the observable outputs — final
``sim.now``, per-rank elapsed/end times, and figure-level
``Row.normalized`` — to be equal to the last ulp (``==``, no tolerance).
Traced runs go through the same task loop and must match untraced ones.
"""

import random

import numpy as np

from repro.bench.harness import Row
from repro.fused.base import OpHarness
from repro.fused.embedding_alltoall import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
)
from repro.fused.gemv_allreduce import (
    BaselineGemvAllReduce,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
)
from repro.fused.embedding_grad_alltoall import (
    BaselineEmbeddingGradAllToAll,
    FusedEmbeddingGradAllToAll,
)
from repro.fused.gemm_alltoall import (
    BaselineGemmAllToAll,
    FusedGemmAllToAll,
    GemmA2AConfig,
)
from repro.hw.specs import MI210
from repro.kernels import PersistentKernel, make_uniform_tasks
from repro.hw.gpu import Gpu, WgCost
from repro.sim import Simulator, TraceRecorder


def _run_pair(fused_factory, baseline_factory, num_nodes, gpus_per_node):
    """One fused/baseline pair on fresh clusters; all observables."""
    h1 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    fused = h1.run(fused_factory(h1))
    h2 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    base = h2.run(baseline_factory(h2))
    row = Row(label="x", fused_time=fused.elapsed, baseline_time=base.elapsed)
    return {
        "fused_elapsed": fused.elapsed,
        "baseline_elapsed": base.elapsed,
        "normalized": row.normalized,
        "rank_end_times": dict(fused.stats.get("rank_end_times", {})),
        "sim_now": (h1.sim.now, h2.sim.now),
        "outputs": fused.outputs,
    }


def _run_fused(factory, num_nodes, gpus_per_node, trace=None):
    """One fused run on a fresh cluster (optionally traced)."""
    h = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                  trace=trace)
    out = h.run(factory(h))
    return {"elapsed": out.elapsed, "sim_now": h.sim.now,
            "rank_end_times": dict(out.stats.get("rank_end_times", {}))}


def _both_modes(monkeypatch, runner):
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    fast = runner()
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
    slow = runner()
    return fast, slow


def _assert_identical(fast, slow):
    assert fast["fused_elapsed"] == slow["fused_elapsed"]
    assert fast["baseline_elapsed"] == slow["baseline_elapsed"]
    assert fast["normalized"] == slow["normalized"]
    assert fast["rank_end_times"] == slow["rank_end_times"]
    assert fast["sim_now"] == slow["sim_now"]


def _random_embedding_configs(rng, n):
    cfgs = []
    for _ in range(n):
        world_shape = rng.choice([(1, 4), (2, 1), (2, 2)])
        world = world_shape[0] * world_shape[1]
        slice_vectors = rng.choice([16, 32])
        local = rng.choice([64, 128, 256]) // slice_vectors * slice_vectors
        cfgs.append((EmbeddingA2AConfig(
            global_batch=local * world,
            tables_per_gpu=rng.choice([4, 16, 32]),
            slice_vectors=slice_vectors,
            tasks_per_slice=rng.choice([0, 1, 4]),
            functional=False,
            scheduler=rng.choice(["comm_aware", "oblivious"]),
            zero_copy=rng.choice([True, False]),
        ), world_shape))
    return cfgs


def _random_gemv_configs(rng, n):
    cfgs = []
    for _ in range(n):
        cfgs.append(GemvAllReduceConfig(
            m=rng.choice([1024, 2048, 4096]),
            n_per_gpu=rng.choice([512, 2048]),
            tile_rows=rng.choice([8, 16]),
            functional=False,
            scheduler=rng.choice(["comm_aware", "oblivious"]),
        ))
    return cfgs


def test_embedding_a2a_grid_bit_identical(monkeypatch):
    rng = random.Random(0xE2A)
    for cfg, (nodes, gpn) in _random_embedding_configs(rng, 6):
        fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
            lambda h: FusedEmbeddingAllToAll(h, cfg),
            lambda h: BaselineEmbeddingAllToAll(h, cfg),
            num_nodes=nodes, gpus_per_node=gpn))
        _assert_identical(fast, slow)


def test_gemv_allreduce_grid_bit_identical(monkeypatch):
    rng = random.Random(0x6E3)
    for cfg in _random_gemv_configs(rng, 4):
        fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
            lambda h: FusedGemvAllReduce(h, cfg),
            lambda h: BaselineGemvAllReduce(h, cfg),
            num_nodes=1, gpus_per_node=4))
        _assert_identical(fast, slow)


def test_functional_outputs_bit_identical(monkeypatch):
    cfg = EmbeddingA2AConfig(global_batch=128, tables_per_gpu=4,
                             slice_vectors=16, functional=True)
    fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
        lambda h: FusedEmbeddingAllToAll(h, cfg),
        lambda h: BaselineEmbeddingAllToAll(h, cfg),
        num_nodes=1, gpus_per_node=4))
    _assert_identical(fast, slow)
    for a, b in zip(fast["outputs"], slow["outputs"]):
        np.testing.assert_array_equal(a, b)


def test_uniform_kernel_per_slot_times_bit_identical(monkeypatch):
    """The uniform-kernel fast-forward must reproduce each physical WG's
    greedy (round-robin) share, not just the joint finish: per-slot finish
    times are observable through the epilogue."""
    for n_tasks in (7, 64, 1457, 2912, 3000):
        finishes = {}

        def make_kernel(sim):
            gpu = Gpu(sim, MI210, gpu_id=0)
            tasks = make_uniform_tasks(n_tasks, WgCost(bytes=4096.0))

            def epilogue(slot_ctx):
                finishes.setdefault(mode, []).append(
                    (slot_ctx.slot_id, sim.now))
                return None

            return PersistentKernel(gpu, gpu.fused_res, tasks,
                                    epilogue=epilogue)

        results = {}
        for mode, flag in (("fast", "1"), ("slow", "0")):
            monkeypatch.setenv("REPRO_SIM_FASTPATH", flag)
            sim = Simulator()
            kern = make_kernel(sim)
            proc = kern.launch()
            sim.run()
            assert proc.ok
            results[mode] = sim.now
        assert results["fast"] == results["slow"]
        assert finishes["fast"] == finishes["slow"]


def _random_gemm_configs(rng, n):
    cfgs = []
    for _ in range(n):
        world = rng.choice([2, 4])
        cfgs.append((GemmA2AConfig(
            tokens=rng.choice([2, 4, 8]) * world * 64,
            model_dim=rng.choice([256, 1024]),
            ffn_dim=rng.choice([256, 512]),
            functional=False,
            scheduler=rng.choice(["comm_aware", "oblivious"]),
        ), world))
    return cfgs


def test_gemm_a2a_grid_bit_identical(monkeypatch):
    rng = random.Random(0x6E4)
    for cfg, world in _random_gemm_configs(rng, 4):
        fast, slow = _both_modes(monkeypatch, lambda cfg=cfg, world=world: _run_pair(
            lambda h: FusedGemmAllToAll(h, cfg),
            lambda h: BaselineGemmAllToAll(h, cfg),
            num_nodes=1, gpus_per_node=world))
        _assert_identical(fast, slow)


def test_embedding_grad_grid_bit_identical(monkeypatch):
    rng = random.Random(0x9AD)
    for cfg, shape in _random_embedding_configs(rng, 4):
        fast, slow = _both_modes(monkeypatch, lambda cfg=cfg, shape=shape: _run_pair(
            lambda h: FusedEmbeddingGradAllToAll(h, cfg),
            lambda h: BaselineEmbeddingGradAllToAll(h, cfg),
            num_nodes=shape[0], gpus_per_node=shape[1]))
        _assert_identical(fast, slow)


def test_embedding_fused_grid_bit_identical(monkeypatch):
    """The ``embedding_fused`` runner's knobs: occupancy limit and the
    CPU-proxy NIC path, on fabric and NIC shapes."""
    rng = random.Random(0xF05)
    for cfg, (nodes, gpn) in _random_embedding_configs(rng, 4):
        cpu_proxy = nodes > 1 and rng.random() < 0.5
        occ = rng.choice([None, 0.5])
        cfg = EmbeddingA2AConfig(**{**cfg.__dict__,
                                    "occupancy_of_baseline": occ})

        def run(cfg=cfg, nodes=nodes, gpn=gpn, cpu_proxy=cpu_proxy):
            h = OpHarness(num_nodes=nodes, gpus_per_node=gpn,
                          cpu_proxy=cpu_proxy)
            out = h.run(FusedEmbeddingAllToAll(h, cfg))
            return {"elapsed": out.elapsed, "sim_now": h.sim.now,
                    "rank_end_times": dict(out.stats["rank_end_times"])}

        fast, slow = _both_modes(monkeypatch, run)
        assert fast == slow


def test_two_node_nic_shape_bit_identical(monkeypatch):
    """Two 2-GPU nodes: every rank talks over both the fabric and the NIC."""
    cfg = EmbeddingA2AConfig(global_batch=512, tables_per_gpu=8,
                             slice_vectors=16, functional=False)
    for fused, base in (
            (FusedEmbeddingAllToAll, BaselineEmbeddingAllToAll),
            (FusedEmbeddingGradAllToAll, BaselineEmbeddingGradAllToAll)):
        fast, slow = _both_modes(monkeypatch, lambda fused=fused, base=base: _run_pair(
            lambda h: fused(h, cfg), lambda h: base(h, cfg),
            num_nodes=2, gpus_per_node=2))
        _assert_identical(fast, slow)


def test_traced_runs_match_untraced(monkeypatch):
    """A trace recorder observes; it must not move a single timestamp."""
    emb = EmbeddingA2AConfig(global_batch=256, tables_per_gpu=8,
                             slice_vectors=16, tasks_per_slice=4,
                             functional=False)
    gemv = GemvAllReduceConfig(m=2048, n_per_gpu=512, functional=False)
    gemm = GemmA2AConfig(tokens=512, model_dim=256, ffn_dim=256,
                         functional=False)
    cases = [
        (lambda h: FusedEmbeddingAllToAll(h, emb), 2, 1),
        (lambda h: FusedEmbeddingAllToAll(h, emb), 1, 4),
        (lambda h: FusedEmbeddingGradAllToAll(h, emb), 2, 2),
        (lambda h: FusedGemvAllReduce(h, gemv), 1, 4),
        (lambda h: FusedGemmAllToAll(h, gemm), 1, 4),
    ]
    for factory, nodes, gpn in cases:
        runs = []
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_SIM_FASTPATH", flag)
            runs.append(_run_fused(factory, nodes, gpn))
            trace = TraceRecorder()
            runs.append(_run_fused(factory, nodes, gpn, trace=trace))
            assert trace.filter(kind="wg_end")
        assert all(r == runs[0] for r in runs[1:])
