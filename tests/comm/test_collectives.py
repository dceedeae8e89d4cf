"""Tests for the baseline bulk-synchronous collective library."""

import numpy as np
import pytest

from repro.comm import CollectiveLibrary, Communicator
from repro.hw import MI210, build_cluster
from repro.sim import Simulator


def make(num_nodes=1, gpus_per_node=4):
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    return sim, cluster, CollectiveLibrary(cluster)


def run(sim, gen):
    return sim.run_process(gen)


def rng_arrays(world, shape, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(world)]


# ---------------------------------------------------------------------------
# All-to-All
# ---------------------------------------------------------------------------

def test_alltoall_permutation_semantics():
    sim, cluster, lib = make()
    sends = rng_arrays(4, (4, 16))
    outs = run(sim, lib.all_to_all(sends))
    for r in range(4):
        for s in range(4):
            np.testing.assert_array_equal(outs[r][s], sends[s][r])


def test_alltoall_intranode_takes_time():
    sim, cluster, lib = make()
    sends = [np.zeros((4, 1 << 20), np.float32) for _ in range(4)]

    def proc(sim):
        yield from lib.all_to_all(sends)
        return sim.now

    end = run(sim, proc(sim))
    chunk = (1 << 20) * 4  # bytes per (src,dst) chunk
    assert end >= MI210.kernel_launch_overhead + chunk / 80e9


def test_alltoall_internode_slower_than_intranode():
    """20 GB/s IB + serialized NIC vs 80 GB/s parallel fabric links."""
    t = {}
    for label, (nodes, gpn) in {"intra": (1, 2), "inter": (2, 1)}.items():
        sim, cluster, lib = make(nodes, gpn)
        sends = [np.zeros((2, 1 << 21), np.float32) for _ in range(2)]

        def proc(sim, lib=lib, sends=sends):
            yield from lib.all_to_all(sends)
            return sim.now

        t[label] = run(sim, proc(sim))
    assert t["inter"] > 2 * t["intra"]


def test_alltoall_shape_validation():
    sim, cluster, lib = make()
    with pytest.raises(ValueError, match="send buffers"):
        run(sim, lib.all_to_all([np.zeros((4, 4))] * 3))
    sim2, _c2, lib2 = make()
    with pytest.raises(ValueError, match="leading dim"):
        run(sim2, lib2.all_to_all([np.zeros((3, 4))] * 4))


# ---------------------------------------------------------------------------
# AllReduce
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["direct", "ring"])
def test_allreduce_sum_semantics(algorithm):
    sim, cluster, lib = make()
    arrays = rng_arrays(4, (128,), seed=3)
    outs = run(sim, lib.all_reduce(arrays, algorithm=algorithm))
    expected = np.sum(np.stack(arrays), axis=0)
    for out in outs:
        np.testing.assert_allclose(out, expected, rtol=1e-6)


def test_allreduce_direct_faster_than_ring_intranode():
    times = {}
    for algo in ("direct", "ring"):
        sim, cluster, lib = make()
        arrays = [np.zeros(1 << 22, np.float32) for _ in range(4)]

        def proc(sim, lib=lib, arrays=arrays, algo=algo):
            yield from lib.all_reduce(arrays, algorithm=algo)
            return sim.now

        times[algo] = run(sim, proc(sim))
    assert times["direct"] < times["ring"]


def test_allreduce_default_algorithm_by_topology():
    sim, cluster, lib = make(1, 4)
    arrays = [np.ones(8, np.float32) for _ in range(4)]
    outs = run(sim, lib.all_reduce(arrays))
    assert np.all(outs[0] == 4.0)

    sim2, _c, lib2 = make(2, 1)
    arrays = [np.ones(8, np.float32) for _ in range(2)]
    outs = run(sim2, lib2.all_reduce(arrays))
    assert np.all(outs[0] == 2.0)


def test_allreduce_world_one():
    sim, cluster, lib = make(1, 1)
    outs = run(sim, lib.all_reduce([np.full(4, 2.0, np.float32)]))
    assert np.all(outs[0] == 2.0)


def test_allreduce_validation():
    sim, cluster, lib = make()
    with pytest.raises(ValueError, match="arrays"):
        run(sim, lib.all_reduce([np.zeros(4)] * 2))
    sim2, _c, lib2 = make()
    with pytest.raises(ValueError, match="shapes"):
        run(sim2, lib2.all_reduce([np.zeros(4), np.zeros(4), np.zeros(4),
                                   np.zeros(5)]))
    sim3, _c, lib3 = make()
    with pytest.raises(KeyError, match="unknown AllReduce algorithm"):
        run(sim3, lib3.all_reduce([np.zeros(4)] * 4, algorithm="magic"))


# ---------------------------------------------------------------------------
# Pinned timings
# ---------------------------------------------------------------------------

#: ``sim.now`` after one functional collective of ``elems`` float32 elements
#: per rank (All-to-All: per chunk, default schedule), keyed by (nodes,
#: gpus per node, elems, collective, algorithm).  The values were recorded
#: from the functional collectives' former inline direct, ring and flat
#: schedules, so they pin that timing through the registered schedules
#: moved no result.
PINNED_TIMES = {
    (1, 4, 4096, "ar", None): 1.0796181818181819e-05,
    (1, 4, 4096, "ar", "direct"): 1.0796181818181819e-05,
    (1, 4, 4096, "ar", "ring"): 1.2373545454545461e-05,
    (1, 4, 4096, "a2a", None): 1.0672363636363636e-05,
    (1, 4, 262144, "ar", None): 2.3155636363636365e-05,
    (1, 4, 262144, "ar", "direct"): 2.3155636363636365e-05,
    (1, 4, 262144, "ar", "ring"): 4.85069090909091e-05,
    (1, 4, 262144, "a2a", None): 3.413127272727273e-05,
    (2, 1, 4096, "ar", None): 1.44292e-05,
    (2, 1, 4096, "ar", "direct"): 1.44292e-05,
    (2, 1, 4096, "ar", "ring"): 1.44292e-05,
    (2, 1, 4096, "a2a", None): 1.26192e-05,
    (2, 1, 262144, "ar", None): 6.66688e-05,
    (2, 1, 262144, "ar", "direct"): 6.66688e-05,
    (2, 1, 262144, "ar", "ring"): 6.66688e-05,
    (2, 1, 262144, "a2a", None): 6.42288e-05,
    (2, 2, 4096, "ar", None): 2.20438e-05,
    (2, 2, 4096, "ar", "direct"): 1.5219600000000002e-05,
    (2, 2, 4096, "ar", "ring"): 2.20438e-05,
    (2, 2, 4096, "a2a", None): 1.5076800000000001e-05,
    (2, 2, 262144, "ar", None): 0.00010040319999999997,
    (2, 2, 262144, "ar", "direct"): 0.00011665759999999998,
    (2, 2, 262144, "ar", "ring"): 0.00010040319999999997,
    (2, 2, 262144, "a2a", None): 0.00022151520000000002,
}


@pytest.mark.parametrize("key", list(PINNED_TIMES),
                         ids=lambda k: "-".join(map(str, k)))
def test_functional_timing_pinned(key):
    nodes, gpn, elems, kind, algorithm = key
    sim, cluster, lib = make(nodes, gpn)
    world = cluster.world_size
    if kind == "ar":
        arrays = [np.ones(elems, np.float32) for _ in range(world)]
        run(sim, lib.all_reduce(arrays, algorithm=algorithm))
    else:
        sends = [np.ones((world, elems), np.float32) for _ in range(world)]
        run(sim, lib.all_to_all(sends))
    assert sim.now == PINNED_TIMES[key]


def test_allreduce_consistent_with_communicator():
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=1, gpus_per_node=4)
    comm = Communicator(cluster)
    arrays = rng_arrays(4, (64,), seed=11)
    outs = sim.run_process(comm.collectives.all_reduce(arrays))
    np.testing.assert_allclose(outs[0], np.sum(np.stack(arrays), axis=0),
                               rtol=1e-6)
