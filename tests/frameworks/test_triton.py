"""Tests for the mini-Triton tile language, compiler and comm extension."""

import numpy as np
import pytest

from repro.comm import Communicator
from repro.frameworks.triton import build_tasks, jit, tl
from repro.frameworks.triton.language import TritonError, TileContext, \
    pop_context, push_context
from repro.hw import build_cluster
from repro.kernels import PersistentKernel
from repro.hw.gpu import WgCost
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Tile language
# ---------------------------------------------------------------------------

def with_ctx(grid, pos, fn):
    ctx = TileContext(grid=grid, grid_pos=pos)
    push_context(ctx)
    try:
        fn()
    finally:
        pop_context()
    return ctx


def test_ops_outside_program_raise():
    with pytest.raises(TritonError, match="outside"):
        tl.program_id(0)


def test_program_id_and_num_programs():
    got = {}

    def body():
        got["pid"] = (tl.program_id(0), tl.program_id(1))
        got["n"] = (tl.num_programs(0), tl.num_programs(1))

    with_ctx((3, 5), (2, 4), body)
    assert got["pid"] == (2, 4)
    assert got["n"] == (3, 5)


def test_program_id_bad_axis():
    def body():
        tl.program_id(2)

    with pytest.raises(TritonError, match="axis"):
        with_ctx((2, 2), (0, 0), body)


def test_load_records_bytes_and_copies():
    a = np.arange(24, dtype=np.float32).reshape(4, 6)
    got = {}

    def body():
        blk = tl.load(a, rows=(1, 2), cols=(2, 3))
        got["blk"] = blk
        blk[:] = 0  # must not affect the source (loads copy)

    ctx = with_ctx((1,), (0,), body)
    assert ctx.bytes == 2 * 3 * 4
    assert a[1, 2] == 8.0
    np.testing.assert_array_equal(got["blk"], 0)


def test_load_out_of_bounds():
    a = np.zeros((4, 4), np.float32)

    def body():
        tl.load(a, rows=(2, 3))

    with pytest.raises(TritonError, match="out of bounds"):
        with_ctx((1,), (0,), body)


def test_store_records_and_writes():
    a = np.zeros((4, 4), np.float32)

    def body():
        tl.store(a, np.ones((2, 2), np.float32), rows=(0, 2), cols=(0, 2))

    ctx = with_ctx((1,), (0,), body)
    assert ctx.bytes == 16
    assert a[:2, :2].sum() == 4


def test_dot_records_flops():
    a = np.ones((4, 8), np.float32)
    b = np.ones((8, 3), np.float32)
    got = {}

    def body():
        got["c"] = tl.dot(a, b)

    ctx = with_ctx((1,), (0,), body)
    assert ctx.flops == 2 * 4 * 8 * 3
    assert np.all(got["c"] == 8.0)


def test_dot_shape_mismatch():
    def body():
        tl.dot(np.ones((2, 3)), np.ones((4, 2)))

    with pytest.raises(TritonError, match="dot"):
        with_ctx((1,), (0,), body)


def test_zeros_full_arange_where_maximum():
    def body():
        z = tl.zeros((2, 2))
        f = tl.full((2,), 7.0)
        r = tl.arange(0, 4)
        m = tl.maximum(z, f[0])
        w = tl.where(r > 1, 1.0, 0.0)
        assert z.sum() == 0 and f[1] == 7.0
        assert m[0, 0] == 7.0
        np.testing.assert_array_equal(w, [0, 0, 1, 1])

    with_ctx((1,), (0,), body)
    with pytest.raises(TritonError):
        with_ctx((1,), (0,), lambda: tl.arange(3, 3))


# ---------------------------------------------------------------------------
# JIT / interpreter
# ---------------------------------------------------------------------------

@jit
def scale_kernel(x, out, block):
    pid = tl.program_id(0)
    blk = tl.load(x, rows=(pid * block, block))
    tl.store(out, 2.0 * blk, rows=(pid * block, block))


def test_interpret_runs_whole_grid():
    x = np.arange(32, dtype=np.float32).reshape(8, 4)
    out = np.zeros_like(x)
    report = scale_kernel.interpret((4,), x, out, 2)
    np.testing.assert_array_equal(out, 2 * x)
    assert report.instances == 4
    assert report.bytes == 2 * x.nbytes  # loads + stores


def test_direct_call_rejected():
    with pytest.raises(TypeError, match="cannot be called directly"):
        scale_kernel(1, 2, 3)


# ---------------------------------------------------------------------------
# Simulated launch with comm extension
# ---------------------------------------------------------------------------

@jit
def put_kernel(src, dst_buf, world, rows_per_rank):
    pid = tl.program_id(0)
    blk = tl.load(src, rows=(pid * rows_per_rank, rows_per_rank))
    tl.comm.put_tile(dst_buf, blk, dst_rank=pid,
                     index=(slice(0, rows_per_rank), slice(None)))


def test_build_tasks_simulated_launch_moves_data():
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=1, gpus_per_node=4)
    comm = Communicator(cluster)
    src = np.arange(16, dtype=np.float32).reshape(4, 4) * 10
    dst = comm.alloc((1, 4), np.float32)

    tasks = build_tasks(put_kernel, (4,), (src, dst, 4, 1),
                        cost=WgCost(bytes=16.0),
                        shmem_ctx=comm.ctx(0))
    gpu = cluster.gpu(0)
    kern = PersistentKernel(gpu, gpu.fused_res, tasks, name="put")

    def proc(sim):
        yield from kern.run()
        ctx = comm.ctx(0)
        yield ctx.quiet()

    sim.run_process(proc(sim))
    for r in range(4):
        np.testing.assert_array_equal(dst.local(r)[0], src[r])
    assert comm.ctx(0).puts_issued == 4


def test_meta_fn_tags_tasks_for_scheduler():
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=1, gpus_per_node=2)
    comm = Communicator(cluster)
    src = np.zeros((2, 2), np.float32)
    dst = comm.alloc((1, 2), np.float32)
    tasks = build_tasks(put_kernel, (2,), (src, dst, 2, 1),
                        cost=WgCost(bytes=8.0), shmem_ctx=comm.ctx(0),
                        meta_fn=lambda pos: {"remote": pos[0] != 0})
    assert [t.meta["remote"] for t in tasks] == [False, True]
    assert tasks[1].meta["grid_pos"] == (1,)
