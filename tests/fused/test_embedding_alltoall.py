"""Tests for the fused embedding + All-to-All operator."""

import numpy as np
import pytest

from repro.collectives import AUTO, alltoall_names
from repro.fused.base import OpHarness
from repro.fused.embedding_alltoall import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
    make_embedding_inputs,
    reference_output,
)
from repro.sim import TraceRecorder

SMALL = dict(global_batch=64, tables_per_gpu=4, dim=16, pooling=5,
             rows_per_table=50, slice_vectors=8)


def run_pair(num_nodes, gpus_per_node, **kw):
    cfg = EmbeddingA2AConfig(**{**SMALL, **kw})
    h1 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    fused = h1.run(FusedEmbeddingAllToAll(h1, cfg))
    h2 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    base = h2.run(BaselineEmbeddingAllToAll(h2, cfg))
    return cfg, fused, base


# ---------------------------------------------------------------------------
# Functional correctness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes,gpn", [(2, 1), (1, 4), (2, 2)])
def test_fused_matches_reference(nodes, gpn):
    cfg, fused, base = run_pair(nodes, gpn)
    world = nodes * gpn
    tables, indices = make_embedding_inputs(cfg, world)
    ref = reference_output(cfg, world, tables, indices)
    for r in range(world):
        np.testing.assert_allclose(fused.outputs[r], ref[r], rtol=1e-5)
        np.testing.assert_allclose(base.outputs[r], ref[r], rtol=1e-5)


def test_fused_equals_baseline_bitwise_layout():
    """Fused and baseline produce the same output tensor layout."""
    cfg, fused, base = run_pair(2, 1)
    for f, b in zip(fused.outputs, base.outputs):
        assert f.shape == b.shape
        np.testing.assert_allclose(f, b, rtol=1e-5)


def test_mean_pooling_mode():
    cfg, fused, base = run_pair(2, 1, pooling_mode="mean")
    world = 2
    tables, indices = make_embedding_inputs(cfg, world)
    ref = reference_output(cfg, world, tables, indices)
    np.testing.assert_allclose(fused.outputs[0], ref[0], rtol=1e-5)


# ---------------------------------------------------------------------------
# Timing behaviour
# ---------------------------------------------------------------------------

def test_fused_beats_baseline_at_paper_scale_internode():
    cfg = EmbeddingA2AConfig(global_batch=1024, tables_per_gpu=64,
                             functional=False)
    h1 = OpHarness(num_nodes=2, gpus_per_node=1)
    fused = h1.run(FusedEmbeddingAllToAll(h1, cfg))
    h2 = OpHarness(num_nodes=2, gpus_per_node=1)
    base = h2.run(BaselineEmbeddingAllToAll(h2, cfg))
    norm = fused.normalized_to(base)
    assert norm < 0.9  # the paper reports 0.69 average inter-node


def test_fused_beats_baseline_at_paper_scale_intranode():
    cfg = EmbeddingA2AConfig(global_batch=512, tables_per_gpu=64,
                             functional=False)
    h1 = OpHarness(num_nodes=1, gpus_per_node=4)
    fused = h1.run(FusedEmbeddingAllToAll(h1, cfg))
    h2 = OpHarness(num_nodes=1, gpus_per_node=4)
    base = h2.run(BaselineEmbeddingAllToAll(h2, cfg))
    assert fused.normalized_to(base) < 1.0


def test_smaller_batch_gives_bigger_internode_win():
    """Paper Fig. 12: poor baseline utilization at small global batch."""
    norms = {}
    for batch in (256, 2048):
        cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=64,
                                 functional=False)
        h1 = OpHarness(num_nodes=2, gpus_per_node=1)
        fused = h1.run(FusedEmbeddingAllToAll(h1, cfg))
        h2 = OpHarness(num_nodes=2, gpus_per_node=1)
        base = h2.run(BaselineEmbeddingAllToAll(h2, cfg))
        norms[batch] = fused.normalized_to(base)
    assert norms[256] < norms[2048]


def test_timing_only_matches_functional_time():
    """functional=False must not change simulated time."""
    times = {}
    for functional in (True, False):
        cfg = EmbeddingA2AConfig(**{**SMALL, "functional": functional})
        h = OpHarness(num_nodes=2, gpus_per_node=1)
        times[functional] = h.run(FusedEmbeddingAllToAll(h, cfg)).elapsed
    assert times[True] == pytest.approx(times[False], rel=1e-9)


@pytest.mark.parametrize("algo", [None, AUTO, *alltoall_names()])
@pytest.mark.parametrize("nodes,gpn", [(2, 2), (2, 1), (1, 4)])
def test_baseline_timing_only_matches_functional_time(nodes, gpn, algo):
    """The baseline's functional All-to-All runs the configured schedule."""
    times = {}
    for functional in (True, False):
        cfg = EmbeddingA2AConfig(**{**SMALL, "functional": functional,
                                    "algo": algo})
        h = OpHarness(num_nodes=nodes, gpus_per_node=gpn)
        times[functional] = h.run(BaselineEmbeddingAllToAll(h, cfg)).elapsed
    assert times[True] == times[False]


def test_fused_occupancy_is_87_5_pct():
    """At paper scale the fused kernel launches at its 87.5% maximum
    (12.5% below baseline, from the extra communication registers)."""
    cfg = EmbeddingA2AConfig(global_batch=1024, tables_per_gpu=256,
                             functional=False)
    h = OpHarness(num_nodes=2, gpus_per_node=1)
    res = h.run(FusedEmbeddingAllToAll(h, cfg))
    assert res.stats["occupancy"] == pytest.approx(0.875)


# ---------------------------------------------------------------------------
# Occupancy knob (Fig. 13)
# ---------------------------------------------------------------------------

def test_occupancy_sweep_u_shape():
    """25% -> 75% improves execution time; 75% -> 87.5% degrades it."""
    times = {}
    for frac in (0.25, 0.75, 0.875):
        cfg = EmbeddingA2AConfig(global_batch=1024, tables_per_gpu=64,
                                 functional=False,
                                 occupancy_of_baseline=frac)
        h = OpHarness(num_nodes=2, gpus_per_node=1)
        times[frac] = h.run(FusedEmbeddingAllToAll(h, cfg)).elapsed
    assert times[0.75] < times[0.25]
    assert times[0.875] > times[0.75]


def test_occupancy_knob_rejects_unreachable_fraction():
    cfg = EmbeddingA2AConfig(**{**SMALL, "occupancy_of_baseline": 0.95})
    h = OpHarness(num_nodes=2, gpus_per_node=1)
    with pytest.raises(ValueError, match="exceeds"):
        h.run(FusedEmbeddingAllToAll(h, cfg))


# ---------------------------------------------------------------------------
# Scheduling (Fig. 14)
# ---------------------------------------------------------------------------

def test_comm_aware_scheduling_reduces_skew():
    skews = {}
    for sched in ("comm_aware", "oblivious"):
        cfg = EmbeddingA2AConfig(global_batch=2048, tables_per_gpu=32,
                                 functional=False, scheduler=sched)
        h = OpHarness(num_nodes=2, gpus_per_node=1)
        res = h.run(FusedEmbeddingAllToAll(h, cfg))
        ends = res.stats["rank_end_times"]
        skews[sched] = abs(ends[0] - ends[1]) / max(ends.values())
    assert skews["comm_aware"] < skews["oblivious"]


# ---------------------------------------------------------------------------
# Tracing (Fig. 11)
# ---------------------------------------------------------------------------

def test_puts_are_issued_mid_kernel():
    """Remote PUTs must be issued while the kernel is still computing —
    the fine-grained overlap the paper profiles in Fig. 11."""
    cfg = EmbeddingA2AConfig(**SMALL)
    trace = TraceRecorder()
    h = OpHarness(num_nodes=2, gpus_per_node=1, trace=trace)
    h.run(FusedEmbeddingAllToAll(h, cfg))
    [k0] = [s for s in trace.spans("kernel")
            if s.detail.get("kernel") == "fused_emb_a2a[0]"]
    puts = trace.filter(kind="put_issue",
                        predicate=lambda e: e.actor.startswith("gpu0"))
    assert puts, "no remote puts traced"
    # All puts happen strictly inside the kernel span, before its end.
    assert all(k0.start < p.time < k0.end for p in puts)
    # With comm-aware scheduling the first put comes in the first half.
    assert min(p.time for p in puts) < (k0.start + k0.end) / 2


def test_wait_spans_recorded_for_epilogue():
    cfg = EmbeddingA2AConfig(**SMALL)
    trace = TraceRecorder()
    h = OpHarness(num_nodes=2, gpus_per_node=1, trace=trace)
    h.run(FusedEmbeddingAllToAll(h, cfg))
    assert trace.spans("wait"), "epilogue waits not traced"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_config_validation():
    h = OpHarness(num_nodes=2, gpus_per_node=1)
    with pytest.raises(ValueError, match="divisible by"):
        FusedEmbeddingAllToAll(h, EmbeddingA2AConfig(
            global_batch=63, tables_per_gpu=4))
    with pytest.raises(ValueError, match="slice_vectors"):
        FusedEmbeddingAllToAll(OpHarness(2, 1), EmbeddingA2AConfig(
            global_batch=64, tables_per_gpu=4, slice_vectors=7))
    with pytest.raises(ValueError, match="pooling mode"):
        FusedEmbeddingAllToAll(OpHarness(2, 1), EmbeddingA2AConfig(
            global_batch=64, tables_per_gpu=4, slice_vectors=8,
            pooling_mode="max"))
    with pytest.raises(ValueError, match="tasks_per_slice"):
        EmbeddingA2AConfig(global_batch=64, tables_per_gpu=4,
                           slice_vectors=8, tasks_per_slice=3).validate(2)
