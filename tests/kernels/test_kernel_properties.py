"""Property-based tests and failure injection for the kernel runtime."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import MI210, Gpu, KernelResources, WgCost
from repro.hw.gpu import bulk_kernel_time
from repro.kernels import (
    PersistentKernel,
    WgTask,
    comm_aware_order,
    make_uniform_tasks,
)
from repro.sim import SimulationError, Simulator

RES = KernelResources(threads_per_wg=256, vgprs_per_thread=64)


def run_kernel_on_fresh_gpu(tasks, **kw):
    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    kern = PersistentKernel(gpu, RES, tasks, **kw)
    proc = kern.launch()
    gpu.sim.run()
    assert proc.ok
    return gpu.sim.now, kern


# ---------------------------------------------------------------------------
# Makespan bounds (work conservation)
# ---------------------------------------------------------------------------

@given(n_tasks=st.integers(1, 3000),
       kbytes=st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_makespan_bounds(n_tasks, kbytes):
    """launch + total_work/slots <= makespan <= launch + ceil-rounds work."""
    cost = WgCost(bytes=kbytes * 1024.0)
    end, kern = run_kernel_on_fresh_gpu(make_uniform_tasks(n_tasks, cost))
    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    per = (gpu.wg_duration(cost, kern.occupancy)
           + MI210.wg_dispatch_overhead)
    lower = MI210.kernel_launch_overhead + (n_tasks / kern.n_slots) * per
    upper = MI210.kernel_launch_overhead + (-(-n_tasks // kern.n_slots)) * per
    assert lower - 1e-12 <= end <= upper + 1e-12


@given(n_tasks=st.integers(1, 500), frac=st.floats(0.05, 1.0))
@settings(max_examples=30, deadline=None)
def test_occupancy_limit_never_exceeds_request(n_tasks, frac):
    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    kern = PersistentKernel(gpu, RES,
                            make_uniform_tasks(n_tasks, WgCost(bytes=1e3)),
                            occupancy_limit=frac)
    max_resident = gpu.occupancy(RES).resident_wgs
    assert kern.occupancy.resident_wgs <= max(1, round(max_resident * frac))


@given(flags=st.lists(st.booleans(), min_size=1, max_size=40),
       seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_scheduler_does_not_change_total_time_for_uniform_tasks(flags, seed):
    """Reordering uniform tasks cannot change the compute makespan (it
    only changes *when* communication is issued)."""
    cost = WgCost(bytes=5e4)

    def build():
        return [WgTask(task_id=i, cost=cost, meta={"remote": f})
                for i, f in enumerate(flags)]

    t_natural, _ = run_kernel_on_fresh_gpu(build())
    t_aware, _ = run_kernel_on_fresh_gpu(comm_aware_order(build()))
    assert t_natural == pytest.approx(t_aware)


# ---------------------------------------------------------------------------
# bulk_kernel_time properties
# ---------------------------------------------------------------------------

@given(n=st.integers(1, 50_000))
@settings(max_examples=50, deadline=None)
def test_bulk_kernel_time_monotone_in_grid(n):
    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    cost = WgCost(bytes=1e4)
    t_n = bulk_kernel_time(gpu, n, cost, RES)
    t_n1 = bulk_kernel_time(gpu, n + 1, cost, RES)
    assert t_n1 >= t_n - 1e-15


@given(n=st.integers(1, 10_000), kb=st.integers(1, 100))
@settings(max_examples=30, deadline=None)
def test_bulk_kernel_time_at_least_roofline(n, kb):
    """No kernel beats total-bytes / peak-bandwidth + launch."""
    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    cost = WgCost(bytes=kb * 1024.0)
    t = bulk_kernel_time(gpu, n, cost, RES)
    floor = (MI210.kernel_launch_overhead
             + n * cost.bytes / MI210.hbm_bandwidth)
    assert t >= floor - 1e-15


def test_bulk_kernel_time_validates():
    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    with pytest.raises(ValueError):
        bulk_kernel_time(gpu, 0, WgCost(bytes=1.0), RES)


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------

def test_exception_in_compute_fails_kernel_process():
    def boom():
        raise RuntimeError("compute exploded")

    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    tasks = [WgTask(task_id=0, cost=WgCost(bytes=1e3), compute=boom)]
    kern = PersistentKernel(gpu, RES, tasks)
    proc = kern.launch()
    gpu.sim.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(RuntimeError, match="compute exploded"):
        raise proc._value


def test_exception_in_hook_fails_kernel_process():
    def bad_hook(ctx, task):
        raise KeyError("hook exploded")

    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    tasks = [WgTask(task_id=0, cost=WgCost(bytes=1e3), on_complete=bad_hook)]
    kern = PersistentKernel(gpu, RES, tasks)
    proc = kern.launch()
    gpu.sim.run()
    assert proc.triggered and not proc.ok


def test_epilogue_waiting_on_never_set_flag_deadlocks_cleanly():
    """A fused kernel whose sliceRdy flag never arrives must surface as a
    deadlock, not hang or silently complete."""
    from repro.comm import Communicator
    from repro.hw import build_cluster

    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=2, gpus_per_node=1)
    comm = Communicator(cluster)
    flags = comm.alloc_flags(1)

    def epilogue(ctx):
        yield flags.wait_until(0, 0)  # nobody ever sets it

    kern = PersistentKernel(cluster.gpu(0), RES,
                            make_uniform_tasks(4, WgCost(bytes=1e3)),
                            epilogue=epilogue)

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(kern.run())


def test_negative_charge_rejected():
    from repro.kernels.grid import SlotContext
    from repro.sim import TraceRecorder

    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    kern = PersistentKernel(gpu, RES,
                            make_uniform_tasks(1, WgCost(bytes=1e3)))
    ctx = SlotContext(gpu.sim, gpu, kern, slot_id=0,
                      occupancy=kern.occupancy, trace=TraceRecorder())
    with pytest.raises(ValueError):
        ctx.charge(-1.0)
