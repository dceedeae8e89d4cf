"""Tests for the fused GEMV + AllReduce operator."""

import numpy as np
import pytest

from repro.fused.base import OpHarness
from repro.fused.gemv_allreduce import (
    BaselineGemvAllReduce,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
    make_gemv_inputs,
    reference_output,
)
from repro.kernels import SCHEDULERS
from repro.sim import TraceRecorder

SMALL = dict(m=256, n_per_gpu=64, tile_rows=16)


def run_pair(gpus=4, **kw):
    cfg = GemvAllReduceConfig(**{**SMALL, **kw})
    h1 = OpHarness(num_nodes=1, gpus_per_node=gpus)
    fused = h1.run(FusedGemvAllReduce(h1, cfg))
    h2 = OpHarness(num_nodes=1, gpus_per_node=gpus)
    base = h2.run(BaselineGemvAllReduce(h2, cfg))
    return cfg, fused, base


# ---------------------------------------------------------------------------
# Functional correctness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gpus", [2, 4])
def test_fused_matches_reference(gpus):
    cfg, fused, base = run_pair(gpus=gpus)
    mats, vecs = make_gemv_inputs(cfg, gpus)
    ref = reference_output(mats, vecs)
    for r in range(gpus):
        np.testing.assert_allclose(fused.outputs[r], ref, rtol=1e-4)
        np.testing.assert_allclose(base.outputs[r], ref, rtol=1e-4)


def test_every_rank_gets_full_vector():
    cfg, fused, _ = run_pair()
    for r in range(1, 4):
        np.testing.assert_allclose(fused.outputs[r], fused.outputs[0],
                                   rtol=1e-6)


def test_fused_requires_single_node():
    cfg = GemvAllReduceConfig(**SMALL)
    h = OpHarness(num_nodes=2, gpus_per_node=2)
    with pytest.raises(ValueError, match="scale-up"):
        FusedGemvAllReduce(h, cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        GemvAllReduceConfig(m=100, n_per_gpu=64).validate(4)
    with pytest.raises(ValueError, match=">= 1"):
        GemvAllReduceConfig(m=0, n_per_gpu=64).validate(4)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_reduce_tasks_follow_every_compute_task(scheduler):
    """Phase-B hooks block their WG on partialRdy, which this rank's own
    phase-A tasks help set; a B task ahead of an A task could deadlock."""
    h = OpHarness(num_nodes=1, gpus_per_node=4)
    op = FusedGemvAllReduce(h, GemvAllReduceConfig(
        **SMALL, functional=False, scheduler=scheduler))
    for rank in range(op.world):
        phases = [t.meta["phase"] for t in op._build_tasks(rank)]
        n_a = phases.count("A")
        assert 0 < n_a < len(phases)
        assert phases == ["A"] * n_a + ["B"] * (len(phases) - n_a)


def test_label_formatting():
    assert GemvAllReduceConfig(m=8192, n_per_gpu=2048).label == "8k|2k"
    assert GemvAllReduceConfig(m=100, n_per_gpu=64).label == "100|64"


# ---------------------------------------------------------------------------
# Timing behaviour (Fig. 9 shape)
# ---------------------------------------------------------------------------

def paper_norm(m, n_total, world=4):
    cfg = GemvAllReduceConfig(m=m, n_per_gpu=n_total // world,
                              functional=False)
    h1 = OpHarness(num_nodes=1, gpus_per_node=world)
    fused = h1.run(FusedGemvAllReduce(h1, cfg))
    h2 = OpHarness(num_nodes=1, gpus_per_node=world)
    base = h2.run(BaselineGemvAllReduce(h2, cfg))
    return fused.elapsed / base.elapsed


def test_fused_wins_at_paper_scale():
    assert paper_norm(8192, 8192) < 0.9  # paper: avg 13%, up to 22% lower


def test_benefit_shrinks_for_large_m():
    """Paper: the M=64k configurations benefit least (link contention /
    compute domination)."""
    assert paper_norm(8192, 8192) < paper_norm(65536, 8192)


def test_timing_only_matches_functional_time():
    times = {}
    for functional in (True, False):
        cfg = GemvAllReduceConfig(**{**SMALL, "functional": functional})
        h = OpHarness(num_nodes=1, gpus_per_node=4)
        times[functional] = h.run(FusedGemvAllReduce(h, cfg)).elapsed
    assert times[True] == pytest.approx(times[False], rel=1e-9)


def test_flags_gate_consumption():
    """The final vector must not be considered ready before every owner's
    finalRdy flag arrives; kernel end time reflects the slowest chunk."""
    cfg = GemvAllReduceConfig(**SMALL)
    trace = TraceRecorder()
    h = OpHarness(num_nodes=1, gpus_per_node=4, trace=trace)
    op = FusedGemvAllReduce(h, cfg)
    h.run(op)
    # All four final flags are set on every rank by completion.
    for r in range(4):
        assert op.final_rdy.all_set(r) or all(
            op.final_rdy.read(r, o) for o in range(4) if o != r)


def test_allgather_puts_traced():
    cfg = GemvAllReduceConfig(**SMALL)
    trace = TraceRecorder()
    h = OpHarness(num_nodes=1, gpus_per_node=4, trace=trace)
    h.run(FusedGemvAllReduce(h, cfg))
    ag = trace.filter(kind="put_issue",
                      predicate=lambda e: e.detail.get("phase") == "allgather")
    assert ag, "no all-gather stores traced"
    # Phase-A (reduce-scatter) stores must also exist and come first.
    rs = trace.filter(kind="put_issue",
                      predicate=lambda e: "phase" not in e.detail)
    assert rs and min(e.time for e in rs) < min(e.time for e in ag)


def test_comm_aware_issues_remote_tiles_first():
    cfg = GemvAllReduceConfig(**SMALL)
    trace = TraceRecorder()
    h = OpHarness(num_nodes=1, gpus_per_node=4, trace=trace)
    h.run(FusedGemvAllReduce(h, cfg))
    wg_starts = trace.filter(
        kind="wg_start",
        predicate=lambda e: e.actor.startswith("gpu0") and
        e.detail.get("phase") == "A")
    first = wg_starts[0]
    assert first.detail["remote"] is True
