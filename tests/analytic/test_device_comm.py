"""Exact-equality tests: the analytic backend against the DES.

The device-timing closed forms live once, in :mod:`repro.hw.gpu`; the DES
evaluates them on a simulated :class:`~repro.hw.gpu.Gpu` and the analytic
backend on a :class:`~repro.analytic.DeviceModel`.  The tests here demand
exact equality, so they pin that both devices hand the shared code
identical inputs (occupancy, spec, HBM model), that the persistent kernel
passes the right task counts to the shared grid selection, and that the
RCCL-like collectives, whose per-rank timing the DES evaluates in closed
form, agree between the engines.
"""

import pytest

from repro.analytic import CommModel, device_model
from repro.fused.base import OpHarness
from repro.hw.gpu import (
    Gpu,
    WgCost,
    bulk_kernel_time,
    persistent_occupancy,
    wg_time,
)
from repro.hw.platform import get_platform, list_platforms
from repro.kernels import PersistentKernel, WgTask, make_uniform_tasks
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
            assert bulk_kernel_time(d, n_wgs, cost, d.base_res) == \
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
            assert wg_time(d, cost, occ) == gpu.wg_duration(cost, occ)


#: Grid-selection cases named relative to the kernel's resident WGs R:
#: (work-bearing tasks, zero-cost bookkeeping tasks, expected grid).
_GRID_CASES = {
    # 8 rounds of work: the last balanced loop length.
    "7R+1": lambda R: (7 * R + 1, 0, -(-(7 * R + 1) // 8)),
    # 9 rounds: the tail is amortized, so the full grid launches.
    "8R+1": lambda R: (8 * R + 1, 0, R),
    # 8R+1 tasks, but only the 7R+1 work-bearing ones drive the grid.
    "7R+1 work+R bookkeeping": lambda R: (7 * R + 1, R, -(-(7 * R + 1) // 8)),
    # No work at all: every task counts.
    "50 bookkeeping": lambda R: (0, 50, 50),
}


@pytest.mark.parametrize("n_tasks,limit", [
    (100, None), (3000, None), (10000, None), (3000, 0.5), (64, 0.25),
    *((case, None) for case in _GRID_CASES),
])
def test_persistent_occupancy_mirrors_kernel_grid(n_tasks, limit):
    for plat in list_platforms():
        d = device_model(plat)
        gpu = Gpu(Simulator(), plat.gpu, gpu_id=0)
        R = d.occupancy(d.fused_res).resident_wgs
        n_work, n_book, grid = (_GRID_CASES[n_tasks](R)
                                if isinstance(n_tasks, str)
                                else (n_tasks, 0, None))
        tasks = [WgTask(task_id=i, cost=WgCost()) for i in range(n_book)]
        if n_work:
            tasks += make_uniform_tasks(n_work, COSTS[0])
        kern = PersistentKernel(gpu, d.fused_res, tasks,
                                occupancy_limit=limit)
        occ = persistent_occupancy(d, d.fused_res, len(tasks),
                                   n_work=n_work, occupancy_limit=limit)
        assert occ == kern.occupancy, plat.name
        assert d.n_slots(occ, len(tasks)) == kern.n_slots, plat.name
        if grid is not None:
            assert occ.resident_wgs == grid, plat.name


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


def test_equal_platforms_share_one_model_and_the_identity_map_is_bounded():
    """Mapping-form platforms decode to a fresh object per call: each one
    still gets the shared model, and the identity map does not grow."""
    from repro.analytic import device as device_mod
    params = get_platform("mi300x").to_params()
    shared = device_model("mi300x")
    for _ in range(3 * device_mod._IDENTITY_SLOTS):
        assert device_model(params) is shared
        assert len(device_mod._BY_IDENTITY) <= device_mod._IDENTITY_SLOTS


@pytest.mark.parametrize("name", ["mi210", "h100"])
def test_device_model_occupancy_of_its_own_footprints(name):
    """The identity fast path for ``base_res``/``fused_res`` returns what
    an equal, separately built footprint gets from the hashed memo."""
    from repro.hw.gpu import KernelResources, occupancy_for
    d = device_model(name)
    for res in (d.base_res, d.fused_res):
        twin = KernelResources(res.threads_per_wg, res.vgprs_per_thread,
                               res.lds_per_wg)
        assert twin is not res
        assert d.occupancy(res) == d.occupancy(twin) == \
            occupancy_for(d.spec, res)


@pytest.mark.parametrize("name", ["mi210", "h100"])
@pytest.mark.parametrize("batch,tables,sv,occ_frac", [
    (256, 16, 32, None), (1024, 64, 32, 0.5), (4096, 256, 16, 0.25),
    (2048, 32, 64, None),
])
def test_ops_mirrors_match_fused_operator(name, batch, tables, sv,
                                          occ_frac):
    """The DES operator and the analytic twin read one plan: every
    rank's plan on its simulated GPU equals the plan ``analytic.ops``
    evaluates on the platform's device model (the device/comm closed
    forms are pinned above; ``tests/analytic/test_plans.py`` covers every
    operator)."""
    from repro.fused.embedding_alltoall import (
        EmbeddingA2AConfig,
        FusedEmbeddingAllToAll,
        embedding_a2a_plan,
    )
    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                             slice_vectors=sv, functional=False,
                             occupancy_of_baseline=occ_frac)
    h = OpHarness(num_nodes=2, gpus_per_node=1, platform=name)
    op = FusedEmbeddingAllToAll(h, cfg)
    d = device_model(get_platform(name))
    assert op.plans == [embedding_a2a_plan(d, cfg, h.world_size)] * 2
