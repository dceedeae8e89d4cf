"""Exact-mirror tests: the analytic device/comm models vs the DES.

The closed forms the analytic backend shares with the simulator must not
merely be *close* — they are the same math, so the tests here demand
exact equality: bulk-kernel spans, occupancy (including the persistent
kernel's grid balancing), and the RCCL-like collectives whose per-rank
timing the DES already evaluates in closed form.
"""

import pytest

from repro.analytic import CommModel, device_model
from repro.fused.base import OpHarness
from repro.hw.gpu import Gpu, WgCost
from repro.hw.platform import get_platform, list_platforms
from repro.kernels import PersistentKernel, bulk_kernel_time, \
    make_uniform_tasks
from repro.sim import Simulator

COSTS = [
    WgCost(bytes=64 * 1024, access="gather"),
    WgCost(bytes=256 * 1024),
    WgCost(flops=2e6, bytes=32 * 1024, dtype="fp16"),
    WgCost(flops=1e6, fixed=1e-7),
]


@pytest.mark.parametrize("name", [p.name for p in list_platforms()])
def test_bulk_kernel_time_matches_simulator_helper(name):
    plat = get_platform(name)
    d = device_model(plat)
    gpu = Gpu(Simulator(), plat.gpu, gpu_id=0)
    for cost in COSTS:
        for n_wgs in (1, 7, d.occupancy(d.base_res).resident_wgs, 5000):
            assert d.bulk_kernel_time(n_wgs, cost, d.base_res) == \
                bulk_kernel_time(gpu, n_wgs, cost, d.base_res)


@pytest.mark.parametrize("name", [p.name for p in list_platforms()])
def test_wg_time_matches_gpu_duration(name):
    plat = get_platform(name)
    d = device_model(plat)
    gpu = Gpu(Simulator(), plat.gpu, gpu_id=0)
    for res in (d.base_res, d.fused_res):
        occ = d.occupancy(res)
        assert occ == gpu.occupancy(res)
        for cost in COSTS:
            assert d.wg_time(cost, occ) == gpu.wg_duration(cost, occ)


@pytest.mark.parametrize("n_tasks,limit", [
    (100, None), (3000, None), (10000, None), (3000, 0.5), (64, 0.25),
])
def test_persistent_occupancy_mirrors_kernel_grid(n_tasks, limit):
    plat = get_platform("mi210")
    d = device_model(plat)
    gpu = Gpu(Simulator(), plat.gpu, gpu_id=0)
    kern = PersistentKernel(gpu, d.fused_res,
                            make_uniform_tasks(n_tasks, COSTS[0]),
                            occupancy_limit=limit)
    occ = d.persistent_occupancy(d.fused_res, n_tasks,
                                 occupancy_limit=limit)
    assert occ == kern.occupancy
    assert d.n_slots(occ, n_tasks) == kern.n_slots


@pytest.mark.parametrize("num_nodes,gpus_per_node", [(1, 4), (2, 1), (2, 2)])
@pytest.mark.parametrize("chunk", [0.0, 4096.0, 8.0 * 1024 * 1024])
def test_alltoall_matches_des_collective(num_nodes, gpus_per_node, chunk):
    h = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    start = h.sim.now
    h.sim.run_process(h.comm.collectives.all_to_all_bytes(chunk))
    sim_time = h.sim.now - start
    cm = CommModel("mi210", num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    assert cm.alltoall_time(chunk) == pytest.approx(sim_time, rel=1e-12)


@pytest.mark.parametrize("world", [2, 4])
@pytest.mark.parametrize("n_elems", [4096, 65536])
def test_allreduce_direct_matches_des_collective(world, n_elems):
    h = OpHarness(num_nodes=1, gpus_per_node=world)
    nbytes = float(n_elems * 2)
    start = h.sim.now
    h.sim.run_process(h.comm.collectives.all_reduce_bytes(
        nbytes, n_elems, itemsize=2, algorithm="direct"))
    sim_time = h.sim.now - start
    cm = CommModel("mi210", num_nodes=1, gpus_per_node=world)
    assert cm.allreduce_time(nbytes, n_elems, itemsize=2,
                             algo="direct") == \
        pytest.approx(sim_time, rel=1e-12)


def test_device_model_is_memoized():
    assert device_model("mi210") is device_model(get_platform("mi210"))
    assert device_model("mi210") is not device_model("h100")


@pytest.mark.parametrize("name", ["mi210", "h100"])
@pytest.mark.parametrize("batch,tables,sv,occ_frac", [
    (256, 16, 32, None), (1024, 64, 32, 0.5), (4096, 256, 16, 0.25),
    (2048, 32, 64, None),
])
def test_ops_mirrors_match_fused_operator(name, batch, tables, sv,
                                          occ_frac):
    """The two operator-level mirrors in ``analytic.ops`` — tasks-per-
    slice auto-split and the Fig. 13 occupancy-limit conversion — must
    reproduce the DES operator's internals exactly (the device/comm
    mirrors are pinned above; this pins the remaining hand-mirrored
    pair so DES edits cannot silently desynchronize the engines)."""
    from repro.analytic.ops import _occupancy_limit, _tasks_per_slice
    from repro.fused.embedding_alltoall import (
        EmbeddingA2AConfig,
        FusedEmbeddingAllToAll,
    )
    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                             slice_vectors=sv, functional=False,
                             occupancy_of_baseline=occ_frac)
    h = OpHarness(num_nodes=2, gpus_per_node=1, platform=name)
    op = FusedEmbeddingAllToAll(h, cfg)
    d = device_model(get_platform(name))
    assert _tasks_per_slice(d, cfg, h.world_size) == op._tasks_per_slice(0)
    assert _occupancy_limit(d, occ_frac) == op._kernel_occupancy_limit(0)
