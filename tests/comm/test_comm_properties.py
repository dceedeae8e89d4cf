"""Property-based tests for communication-layer invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import AUTO, allreduce_names, alltoall_names
from repro.comm import Communicator
from repro.hw import build_cluster
from repro.sim import Simulator


def make_env(num_nodes=1, gpus_per_node=4):
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=num_nodes,
                            gpus_per_node=gpus_per_node)
    return sim, cluster, Communicator(cluster)


# ---------------------------------------------------------------------------
# Collective semantics under random inputs
# ---------------------------------------------------------------------------

@given(world_shape=st.sampled_from([(1, 2), (1, 4), (2, 1), (2, 2)]),
       elems=st.integers(1, 64), seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_allreduce_equals_numpy_sum(world_shape, elems, seed):
    nodes, gpn = world_shape
    sim, cluster, comm = make_env(nodes, gpn)
    world = cluster.world_size
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(elems).astype(np.float32)
              for _ in range(world)]
    outs = sim.run_process(comm.collectives.all_reduce(arrays))
    expected = np.sum(np.stack(arrays), axis=0)
    for out in outs:
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)


@given(world_shape=st.sampled_from([(1, 2), (1, 4), (2, 2)]),
       elems=st.integers(1, 32), seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_alltoall_is_transpose_involution(world_shape, elems, seed):
    """Applying All-to-All twice recovers the original send buffers."""
    nodes, gpn = world_shape
    sim, cluster, comm = make_env(nodes, gpn)
    world = cluster.world_size
    rng = np.random.default_rng(seed)
    sends = [rng.standard_normal((world, elems)).astype(np.float32)
             for _ in range(world)]
    once = sim.run_process(comm.collectives.all_to_all(sends))
    twice = sim.run_process(comm.collectives.all_to_all(once))
    for orig, back in zip(sends, twice):
        np.testing.assert_array_equal(orig, back)


# ---------------------------------------------------------------------------
# Flag ordering invariant under random put schedules
# ---------------------------------------------------------------------------

@given(n_slices=st.integers(1, 12), nbytes=st.integers(64, 1 << 16),
       stagger=st.floats(0.0, 1e-4))
@settings(max_examples=25, deadline=None)
def test_flag_never_precedes_payload(n_slices, nbytes, stagger):
    """Whenever a consumer observes sliceRdy, the payload is delivered —
    for any message size and issue staggering."""
    sim, cluster, comm = make_env(2, 1)
    buf = comm.alloc((n_slices, nbytes // 4 + 1), np.float32)
    flags = comm.alloc_flags(n_slices)
    violations = []

    def producer(sim):
        ctx = comm.ctx(0)
        for s in range(n_slices):
            payload = np.full(nbytes // 4 + 1, s + 1, np.float32)
            ctx.put_signal(buf, payload, dst_rank=1, flags=flags,
                           flag_idx=s, dst_index=(s, slice(None)))
            yield sim.timeout(stagger)

    def consumer(sim):
        for s in range(n_slices):
            yield comm.ctx(1).wait_until(flags, s)
            if not np.all(buf.local(1)[s] == s + 1):
                violations.append(s)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert violations == []


@given(sizes=st.lists(st.integers(1, 1 << 18), min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_quiet_implies_all_delivered(sizes):
    sim, cluster, comm = make_env(2, 1)

    def proc(sim):
        ctx = comm.ctx(0)
        evs = [ctx.put_bytes(1, float(s)) for s in sizes]
        yield ctx.quiet()
        return all(ev.processed for ev in evs)

    assert sim.run_process(proc(sim)) is True


@given(sizes=st.lists(st.integers(1, 1 << 16), min_size=2, max_size=8),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_fence_orders_only_target_destination(sizes, data):
    """fence(d) waits for puts to d but not for puts to other ranks."""
    sim, cluster, comm = make_env(1, 4)
    split = data.draw(st.integers(1, len(sizes) - 1))

    def proc(sim):
        ctx = comm.ctx(0)
        to_d = [ctx.put_bytes(1, float(s)) for s in sizes[:split]]
        for s in sizes[split:]:
            ctx.put_bytes(2, float(s))
        yield ctx.fence(1)
        d_done = all(ev.processed for ev in to_d)
        return d_done

    assert sim.run_process(proc(sim)) is True


# ---------------------------------------------------------------------------
# Timing-model sanity under random configuration
# ---------------------------------------------------------------------------

TIMING_SHAPES = [(1, 4), (2, 1), (2, 2)]


@given(elems=st.integers(1, 1 << 22))
@settings(max_examples=10, deadline=None)
def test_allreduce_bytes_matches_functional_structure(elems):
    """Functional AllReduce takes exactly as long as the timing-only one
    with equal wire bytes, under every schedule and the default."""
    for nodes, gpn in TIMING_SHAPES:
        for algorithm in [None, AUTO, *allreduce_names()]:
            sim1, c1, comm1 = make_env(nodes, gpn)
            arrays = [np.zeros(elems, np.float32)
                      for _ in range(c1.world_size)]
            sim1.run_process(comm1.collectives.all_reduce(
                arrays, algorithm=algorithm))

            sim2, _c2, comm2 = make_env(nodes, gpn)
            sim2.run_process(comm2.collectives.all_reduce_bytes(
                float(elems * 4), elems, algorithm=algorithm))
            assert sim1.now == sim2.now, (nodes, gpn, algorithm)


@given(elems=st.integers(1, 1 << 16))
@settings(max_examples=10, deadline=None)
def test_alltoall_bytes_matches_functional_structure(elems):
    """Functional All-to-All takes exactly as long as the timing-only one
    with equal chunk bytes, under every schedule and the default."""
    for nodes, gpn in TIMING_SHAPES:
        for algorithm in [None, AUTO, *alltoall_names()]:
            sim1, c1, comm1 = make_env(nodes, gpn)
            world = c1.world_size
            sends = [np.zeros((world, elems), np.float32)
                     for _ in range(world)]
            sim1.run_process(comm1.collectives.all_to_all(
                sends, algorithm=algorithm))

            sim2, _c2, comm2 = make_env(nodes, gpn)
            sim2.run_process(comm2.collectives.all_to_all_bytes(
                float(elems * 4), algorithm=algorithm))
            assert sim1.now == sim2.now, (nodes, gpn, algorithm)


def test_cpu_proxy_adds_latency_per_message():
    times = {}
    for proxy in (False, True):
        sim = Simulator()
        cluster = build_cluster(sim, num_nodes=2, gpus_per_node=1)
        comm = Communicator(cluster, cpu_proxy=proxy)

        def proc(sim, comm=comm):
            yield comm.ctx(0).put_bytes(1, 64.0)
            return sim.now

        times[proxy] = sim.run_process(proc(sim))
    from repro.comm.shmem import ShmemContext

    assert times[True] == pytest.approx(
        times[False] + ShmemContext.CPU_PROXY_LATENCY)
