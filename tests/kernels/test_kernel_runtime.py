"""Tests for the persistent-kernel runtime."""

import pytest

from repro.hw import MI210, Gpu, KernelResources, WgCost
from repro.kernels import PersistentKernel, WgTask, make_uniform_tasks, run_kernel
from repro.sim import Simulator, TraceRecorder

RES = KernelResources(threads_per_wg=256, vgprs_per_thread=64)


@pytest.fixture
def gpu():
    return Gpu(Simulator(), MI210, gpu_id=0, trace=TraceRecorder())


def launch_and_time(gpu, kernel):
    proc = kernel.launch()
    gpu.sim.run()
    assert proc.ok
    return gpu.sim.now


def test_single_task_time(gpu):
    cost = WgCost(bytes=1e6)
    kern = PersistentKernel(gpu, RES, make_uniform_tasks(1, cost))
    end = launch_and_time(gpu, kern)
    expected = (MI210.kernel_launch_overhead
                + gpu.wg_duration(cost, kern.occupancy)
                + MI210.wg_dispatch_overhead)
    assert end == pytest.approx(expected)


def test_tasks_fill_slots_in_parallel(gpu):
    """At a fixed grid, n_resident tasks take one round; +1 takes two."""
    cost = WgCost(bytes=1e5)
    occ = gpu.occupancy(RES)
    k1 = PersistentKernel(gpu, RES, make_uniform_tasks(occ.resident_wgs, cost),
                          occupancy_limit=1.0)
    t1 = launch_and_time(gpu, k1)

    gpu2 = Gpu(Simulator(), MI210, gpu_id=0)
    k2 = PersistentKernel(gpu2, RES,
                          make_uniform_tasks(occ.resident_wgs + 1, cost),
                          occupancy_limit=1.0)
    t2 = launch_and_time(gpu2, k2)
    wg_t = gpu.wg_duration(cost, k1.occupancy) + MI210.wg_dispatch_overhead
    assert t2 == pytest.approx(t1 + wg_t)


def test_balanced_grid_avoids_idle_tail(gpu):
    """Without an explicit limit, a short task loop launches a grid that
    divides tasks into whole rounds (resident+1 tasks -> 2 even rounds)."""
    cost = WgCost(bytes=1e5)
    occ = gpu.occupancy(RES)
    n = occ.resident_wgs + 1
    kern = PersistentKernel(gpu, RES, make_uniform_tasks(n, cost))
    assert kern.n_slots == -(-n // 2)  # ceil(n/2): two balanced rounds
    assert kern.occupancy.resident_wgs == kern.n_slots


def test_long_task_loops_launch_at_full_occupancy(gpu):
    cost = WgCost(bytes=1e5)
    occ = gpu.occupancy(RES)
    n = occ.resident_wgs * 20 + 5  # 21 rounds > balancing threshold
    kern = PersistentKernel(gpu, RES, make_uniform_tasks(n, cost))
    assert kern.n_slots == occ.resident_wgs
    assert kern.occupancy.fraction == pytest.approx(occ.fraction)


def test_repeat_folds_logical_wgs(gpu):
    cost = WgCost(bytes=1e5)
    kern = PersistentKernel(
        gpu, RES, [WgTask(task_id=0, cost=cost, repeat=5)])
    end = launch_and_time(gpu, kern)
    per = gpu.wg_duration(cost, kern.occupancy) + MI210.wg_dispatch_overhead
    assert end == pytest.approx(MI210.kernel_launch_overhead + 5 * per)


def test_compute_callable_runs_exactly_once(gpu):
    counter = {"n": 0}

    def bump():
        counter["n"] += 1

    tasks = [WgTask(task_id=i, cost=WgCost(bytes=1e4), compute=bump)
             for i in range(10)]
    launch_and_time(gpu, PersistentKernel(gpu, RES, tasks))
    assert counter["n"] == 10


def test_on_complete_hook_runs_after_task_time(gpu):
    seen = {}

    def hook(ctx, task):
        seen["t"] = ctx.sim.now
        seen["task"] = task.task_id
        return None

    cost = WgCost(bytes=1e6)
    tasks = [WgTask(task_id=7, cost=cost, on_complete=hook)]
    kern = PersistentKernel(gpu, RES, tasks)
    launch_and_time(gpu, kern)
    assert seen["task"] == 7
    assert seen["t"] >= MI210.kernel_launch_overhead


def test_hook_generator_blocks_only_its_slot(gpu):
    """A blocking hook on one task must not delay other slots' tasks."""
    sim = gpu.sim
    gate = sim.event()
    log = []

    def blocking_hook(ctx, task):
        yield gate
        log.append(("blocked_done", sim.now))

    def release(sim):
        yield sim.timeout(1.0)
        gate.succeed()

    cost = WgCost(bytes=1e4)
    tasks = [WgTask(0, cost, on_complete=blocking_hook)] + \
            [WgTask(i, cost) for i in range(1, 50)]
    kern = PersistentKernel(gpu, RES, tasks)
    sim.process(release(sim))
    end = launch_and_time(gpu, kern)
    # Kernel ends when the gated slot finishes at t=1.0; others were done
    # long before (they did not wait for the gate).
    assert end == pytest.approx(1.0)
    assert log[0][1] == pytest.approx(1.0)


def test_epilogue_runs_per_slot(gpu):
    calls = []

    def epilogue(ctx):
        calls.append(ctx.slot_id)
        return None
        yield  # pragma: no cover

    tasks = make_uniform_tasks(5, WgCost(bytes=1e4))
    kern = PersistentKernel(gpu, RES, tasks, epilogue=epilogue)
    launch_and_time(gpu, kern)
    assert sorted(calls) == list(range(kern.n_slots))


def test_occupancy_limit_shrinks_slots(gpu):
    tasks = make_uniform_tasks(2000, WgCost(bytes=1e4))
    full = PersistentKernel(gpu, RES, tasks, occupancy_limit=1.0)
    half = PersistentKernel(gpu, RES, tasks, occupancy_limit=0.5)
    assert half.n_slots == full.n_slots // 2
    assert half.occupancy.fraction == pytest.approx(
        full.occupancy.fraction / 2)


def test_occupancy_limit_validation(gpu):
    tasks = make_uniform_tasks(1, WgCost(bytes=1e4))
    with pytest.raises(ValueError):
        PersistentKernel(gpu, RES, tasks, occupancy_limit=0.0)
    with pytest.raises(ValueError):
        PersistentKernel(gpu, RES, tasks, occupancy_limit=1.5)


def test_empty_task_list_rejected(gpu):
    with pytest.raises(ValueError):
        PersistentKernel(gpu, RES, [])


def test_trace_records_kernel_and_wgs(gpu):
    tasks = make_uniform_tasks(3, WgCost(bytes=1e4))
    kern = PersistentKernel(gpu, RES, tasks, name="k")
    launch_and_time(gpu, kern)
    tr = gpu.trace
    assert len(tr.filter(kind="kernel_launch")) == 1
    assert len(tr.filter(kind="wg_start")) == 3
    assert len(tr.filter(kind="wg_end")) == 3
    [kspan] = tr.spans("kernel")
    assert kspan.end == gpu.sim.now


def test_run_kernel_convenience(gpu):
    def proc(sim):
        yield from run_kernel(gpu, RES, make_uniform_tasks(4, WgCost(bytes=1e4)),
                              name="plain")
        return sim.now

    end = gpu.sim.run_process(proc(gpu.sim))
    assert end > MI210.kernel_launch_overhead


def test_uniform_run_takes_whole_rounds(gpu):
    import math

    n, cost = 1000, WgCost(bytes=2e4)
    tasks = make_uniform_tasks(n, cost)
    kern = PersistentKernel(gpu, RES, tasks)
    end = launch_and_time(gpu, kern)
    wg_t = gpu.wg_duration(cost, kern.occupancy) + MI210.wg_dispatch_overhead
    rounds = math.ceil(n / kern.n_slots)
    # Actual run quantizes to whole rounds of resident WGs.
    assert end == pytest.approx(MI210.kernel_launch_overhead + rounds * wg_t)
