"""Tests for the scale-out simulator: graph, torus network, DLRM workload."""

import pytest

from repro.astra import (
    ExecutionGraph,
    TorusNetwork,
    build_dlrm_graph,
    compute_kernel_times,
    run_dlrm_scaleout,
    sweep_node_counts,
)
from repro.models.configs import TABLE2_DLRM, TABLE2_TORUS


# ---------------------------------------------------------------------------
# Execution graph
# ---------------------------------------------------------------------------

def test_serial_chain():
    g = ExecutionGraph()
    g.add("a", "comp", 1.0)
    g.add("b", "comp", 2.0, deps=["a"])
    total, spans = g.simulate()
    assert total == 3.0
    assert spans["b"] == (1.0, 3.0)


def test_comp_and_net_overlap():
    g = ExecutionGraph()
    g.add("compute", "comp", 5.0)
    g.add("comm", "net", 4.0)
    total, _ = g.simulate()
    assert total == 5.0  # fully overlapped


def test_same_resource_serializes():
    g = ExecutionGraph()
    g.add("c1", "comp", 2.0)
    g.add("c2", "comp", 3.0)
    total, _ = g.simulate()
    assert total == 5.0


def test_fused_node_occupies_both_resources():
    g = ExecutionGraph()
    g.add("fused", "fused", 4.0)
    g.add("comm", "net", 1.0)   # must wait: net is taken by the fused node
    g.add("comp", "comp", 1.0)  # likewise
    total, spans = g.simulate()
    assert total == 5.0
    assert spans["comm"][0] >= 4.0
    assert spans["comp"][0] >= 4.0


def test_dependency_validation_and_cycles():
    g = ExecutionGraph()
    with pytest.raises(ValueError, match="unknown"):
        g.add("x", "comp", 1.0, deps=["ghost"])
    g.add("a", "comp", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        g.add("a", "comp", 1.0)
    with pytest.raises(ValueError, match="kind"):
        g.add("b", "gpu", 1.0)
    with pytest.raises(ValueError, match="negative"):
        g.add("c", "comp", -1.0)


def test_critical_path():
    g = ExecutionGraph()
    g.add("a", "comp", 1.0)
    g.add("b", "net", 10.0, deps=["a"])
    g.add("c", "comp", 1.0, deps=["a"])
    g.add("d", "comp", 1.0, deps=["b", "c"])
    assert g.critical_path() == ["a", "b", "d"]


def test_empty_graph():
    total, spans = ExecutionGraph().simulate()
    assert total == 0.0 and spans == {}


# ---------------------------------------------------------------------------
# Torus network
# ---------------------------------------------------------------------------

def test_square_ish_factorization():
    t = TorusNetwork.square_ish(128, TABLE2_TORUS)
    assert t.num_nodes == 128
    assert {t.dim_x, t.dim_y} == {16, 8}
    t2 = TorusNetwork.square_ish(64, TABLE2_TORUS)
    assert (t2.dim_x, t2.dim_y) == (8, 8)


def test_avg_hops_grows_with_size():
    small = TorusNetwork.square_ish(16, TABLE2_TORUS)
    big = TorusNetwork.square_ish(128, TABLE2_TORUS)
    assert big.avg_hops() > small.avg_hops()


def test_allreduce_time_scaling():
    t = TorusNetwork.square_ish(64, TABLE2_TORUS)
    t1 = t.allreduce_time(1e6)
    t2 = t.allreduce_time(2e6)
    assert t1 < t2 < 2.2 * t1
    assert t.allreduce_time(0) == 0.0
    with pytest.raises(ValueError):
        t.allreduce_time(-1)


def test_alltoall_time_grows_with_system():
    small = TorusNetwork.square_ish(16, TABLE2_TORUS)
    big = TorusNetwork.square_ish(128, TABLE2_TORUS)
    n = 100e6
    assert big.alltoall_time(n) > small.alltoall_time(n)
    with pytest.raises(ValueError):
        big.alltoall_time(-1)


def test_single_node_collectives_free():
    t = TorusNetwork(1, 1, TABLE2_TORUS)
    assert t.allreduce_time(1e9) == 0.0
    assert t.alltoall_time(1e9) == 0.0


def test_torus_validation():
    with pytest.raises(ValueError):
        TorusNetwork(0, 4, TABLE2_TORUS)
    with pytest.raises(ValueError):
        TorusNetwork(2, 2, TABLE2_TORUS, alltoall_efficiency=0.0)


# ---------------------------------------------------------------------------
# DLRM scale-out (Fig. 15)
# ---------------------------------------------------------------------------

def test_kernel_times_positive():
    net = TorusNetwork.square_ish(128, TABLE2_TORUS)
    t = compute_kernel_times(TABLE2_DLRM, net)
    for f in ("bottom_fwd", "embed_fwd", "a2a_fwd", "inter_top_fwd",
              "top_inter_bwd", "a2a_bwd", "embed_bwd", "bottom_bwd",
              "wgrad_allreduce", "embed_fused_fwd", "embed_fused_bwd"):
        assert getattr(t, f) > 0, f


@pytest.mark.parametrize("platform", ["mi210", "mi300x", "h100"])
def test_kernel_times_on_device_model_match_simulated_gpu(platform):
    """The default device (the platform's memoized model) and a simulated
    GPU give the same kernel times to the bit."""
    from repro.hw.gpu import Gpu
    from repro.hw.platform import get_platform
    from repro.sim import Simulator
    net = TorusNetwork.square_ish(64, TABLE2_TORUS)
    gpu = Gpu(Simulator(), get_platform(platform).gpu, gpu_id=0)
    assert repr(compute_kernel_times(TABLE2_DLRM, net, platform=platform)) \
        == repr(compute_kernel_times(TABLE2_DLRM, net, gpu=gpu))


def test_fig15_fused_reduces_128_node_training_by_about_21pct():
    """Paper Fig. 15: ~21% lower execution time at 128 nodes."""
    res = run_dlrm_scaleout(128)
    assert res.reduction_pct == pytest.approx(21.0, abs=4.0)


def test_baseline_exposes_substantial_alltoall():
    """The motivation claim ([47]): >35% of DLRM time is exposed A2A."""
    res = run_dlrm_scaleout(128)
    assert res.exposed_a2a_fraction() > 0.35


def test_fused_wins_across_system_sizes():
    for res in sweep_node_counts([16, 64, 128]):
        assert res.normalized < 1.0


def test_fused_graph_has_no_standalone_a2a():
    net = TorusNetwork.square_ish(16, TABLE2_TORUS)
    t = compute_kernel_times(TABLE2_DLRM, net)
    fused_nodes = {n.name: n.kind for n in build_dlrm_graph(t, True).nodes()}
    assert "a2a_fwd" not in fused_nodes
    assert fused_nodes["fused_embed_a2a_fwd"] == "fused"


def test_scaleout_validation():
    with pytest.raises(ValueError, match="at least 2"):
        run_dlrm_scaleout(1)
