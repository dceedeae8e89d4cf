"""Tests for the GPU model: occupancy rules and workgroup timing."""

import pickle

import numpy as np
import pytest

from repro.hw import MI210, Gpu, KernelResources, WgCost
from repro.sim import Simulator


@pytest.fixture
def gpu():
    return Gpu(Simulator(), MI210, gpu_id=0)


# ---------------------------------------------------------------------------
# Occupancy calculation
# ---------------------------------------------------------------------------

def test_baseline_kernel_reaches_full_occupancy(gpu):
    """256 threads (4 waves), 64 VGPRs -> 8 waves/SIMD -> 100% occupancy."""
    occ = gpu.occupancy(KernelResources(threads_per_wg=256, vgprs_per_thread=64))
    assert occ.waves_per_wg == 4
    assert occ.wgs_per_cu == 8
    assert occ.fraction == pytest.approx(1.0)
    assert occ.resident_wgs == 8 * MI210.num_cus


def test_fused_kernel_pays_12_5_pct_occupancy(gpu):
    """The paper's fused kernel uses extra VGPRs for ROC_SHMEM-style comm
    and lands at 87.5% of baseline occupancy."""
    occ = gpu.occupancy(KernelResources(threads_per_wg=256, vgprs_per_thread=72))
    assert occ.fraction == pytest.approx(0.875)
    assert occ.wgs_per_cu == 7


def test_vgpr_granule_rounding(gpu):
    """65 VGPRs rounds up to 72 (granule 8) -> 7 waves/SIMD, not 7.87."""
    occ_65 = gpu.occupancy(KernelResources(threads_per_wg=256, vgprs_per_thread=65))
    occ_72 = gpu.occupancy(KernelResources(threads_per_wg=256, vgprs_per_thread=72))
    assert occ_65.fraction == occ_72.fraction


def test_lds_limits_occupancy(gpu):
    res = KernelResources(threads_per_wg=256, vgprs_per_thread=32,
                          lds_per_wg=32 * 1024)
    occ = gpu.occupancy(res)
    assert occ.wgs_per_cu == 2  # 64KB LDS / 32KB per WG


def test_small_wg_hits_max_wgs_per_cu(gpu):
    res = KernelResources(threads_per_wg=64, vgprs_per_thread=16)
    occ = gpu.occupancy(res)
    assert occ.wgs_per_cu == MI210.max_wgs_per_cu


def test_huge_vgpr_usage_rejected(gpu):
    with pytest.raises(ValueError, match="cannot fit"):
        gpu.occupancy(KernelResources(threads_per_wg=256, vgprs_per_thread=1024))


def test_occupancy_limited_to(gpu):
    occ = gpu.occupancy(KernelResources(threads_per_wg=256, vgprs_per_thread=64))
    half = occ.limited_to(occ.resident_wgs // 2)
    assert half.resident_wgs == occ.resident_wgs // 2
    assert half.fraction == pytest.approx(occ.fraction / 2)
    same = occ.limited_to(10 ** 9)
    assert same.resident_wgs == occ.resident_wgs
    with pytest.raises(ValueError):
        occ.limited_to(0)


# ---------------------------------------------------------------------------
# WG timing
# ---------------------------------------------------------------------------

def test_wgcost_validation():
    with pytest.raises(ValueError):
        WgCost(flops=-1)
    c = WgCost(flops=10, bytes=20, fixed=1e-6)
    c2 = c.plus(flops=5, fixed=1e-6)
    assert c2.flops == 15 and c2.fixed == pytest.approx(2e-6)


@pytest.mark.parametrize("field", ["flops", "bytes", "fixed"])
def test_wgcost_rejects_negative_scalars_and_columns(field):
    with pytest.raises(ValueError, match="non-negative"):
        WgCost(**{field: -1e-9})
    with pytest.raises(ValueError, match="non-negative"):
        WgCost(**{field: np.array([1.0, -1.0, 2.0])})
    WgCost(**{field: np.array([0.0, 1.0])})         # a valid column


def test_wgcost_rejects_unknown_access():
    with pytest.raises(ValueError, match="access pattern"):
        WgCost(bytes=1.0, access="random")
    with pytest.raises(ValueError, match="access pattern"):
        WgCost(1.0, 1.0, "fp32", 0.0, "strided")


def test_wgcost_is_read_only():
    c = WgCost(flops=1.0, bytes=2.0)
    with pytest.raises(AttributeError):
        c.flops = 3.0
    with pytest.raises(AttributeError):
        c.extra = 1


def test_wgcost_and_occupancy_hash_pickle_and_compare_by_value(gpu):
    c = WgCost(flops=1.0, bytes=2.0, dtype="fp16", fixed=1e-7,
               access="gather")
    same = WgCost(1.0, 2.0, "fp16", 1e-7, "gather")
    assert c == same and hash(c) == hash(same)
    assert c != c.plus(fixed=1e-9)
    assert {c: "x"}[same] == "x"
    assert repr(c) == ("WgCost(flops=1.0, bytes=2.0, dtype='fp16', "
                       "fixed=1e-07, access='gather')")
    occ = gpu.occupancy(gpu.fused_res)
    for value in (c, occ, occ.limited_to(5)):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
    with pytest.raises(AttributeError):
        occ.fraction = 1.0


def test_memory_bound_wg_duration_scales_with_bytes(gpu):
    occ = gpu.occupancy(KernelResources(256, 64))
    t1 = gpu.wg_duration(WgCost(bytes=1e6), occ)
    t2 = gpu.wg_duration(WgCost(bytes=2e6), occ)
    assert t2 == pytest.approx(2 * t1)


def test_compute_bound_wg_duration_scales_with_flops(gpu):
    occ = gpu.occupancy(KernelResources(256, 64))
    t1 = gpu.wg_duration(WgCost(flops=1e9, dtype="fp16"), occ)
    t2 = gpu.wg_duration(WgCost(flops=3e9, dtype="fp16"), occ)
    assert t2 == pytest.approx(3 * t1)


def test_roofline_max_of_compute_and_memory(gpu):
    occ = gpu.occupancy(KernelResources(256, 64))
    mem_only = gpu.wg_duration(WgCost(bytes=1e6), occ)
    flop_only = gpu.wg_duration(WgCost(flops=1e9), occ)
    both = gpu.wg_duration(WgCost(bytes=1e6, flops=1e9), occ)
    assert both == pytest.approx(max(mem_only, flop_only))


def test_fixed_cost_is_additive(gpu):
    occ = gpu.occupancy(KernelResources(256, 64))
    base = gpu.wg_duration(WgCost(bytes=1e6), occ)
    with_fixed = gpu.wg_duration(WgCost(bytes=1e6, fixed=5e-6), occ)
    assert with_fixed == pytest.approx(base + 5e-6)


def test_aggregate_memory_throughput_independent_of_resident_count(gpu):
    """Memory-bound: total kernel bytes/s depends only on occupancy fraction,
    so fewer resident WGs each run proportionally faster."""
    occ_full = gpu.occupancy(KernelResources(256, 64))
    occ_half = occ_full.limited_to(occ_full.resident_wgs // 2)
    t_full = gpu.wg_duration(WgCost(bytes=1e6), occ_full)
    t_half = gpu.wg_duration(WgCost(bytes=1e6), occ_half)
    # Per-WG time = bytes * resident / achieved_bw(fraction): half the
    # resident WGs each get twice the share, scaled by the occupancy-
    # dependent achieved bandwidth ratio.
    expected = (0.5 * gpu.hbm.achieved_bandwidth(occ_full.fraction)
                / gpu.hbm.achieved_bandwidth(occ_half.fraction))
    assert t_half / t_full == pytest.approx(expected)
    assert t_half < t_full


def test_store_remote_requires_fabric(gpu):
    with pytest.raises(RuntimeError, match="fabric"):
        gpu.store_remote(gpu, 100)


def test_rdma_requires_nic(gpu):
    with pytest.raises(RuntimeError, match="NIC"):
        gpu.rdma_put(gpu, 100)
