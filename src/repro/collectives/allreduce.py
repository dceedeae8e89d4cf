"""AllReduce schedules: direct, ring, binomial tree, hierarchical.

Each algorithm is a lock-stepped schedule expressed twice — as a DES
generator over :class:`~repro.comm.collectives.CollectiveLibrary`
helpers, and as the closed form :class:`~repro.analytic.comm.CommModel`
evaluates.  The barriers between rounds are what make the two engines
agree exactly: within a round every transfer runs on its own directed
fabric link or through the NIC pipeline the analytic model mirrors.

``direct`` (one node) and ``ring`` (across nodes) are the legacy
schedules ``algo=None`` resolves to.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from ..hw.gpu import reduce_time
from ..utils.xp import xp_of
from .base import (
    AllReduceAlgorithm,
    CommTopology,
    register_allreduce,
)

__all__ = ["DirectAllReduce", "RingAllReduce", "TreeAllReduce",
           "HierarchicalAllReduce"]


def _chunked(nbytes, n_elems, world: int):
    return nbytes / world, xp_of(n_elems).maximum(1, n_elems // world)


def _route_max(cm, topo: CommTopology,
               sends: List[Tuple[int, int]], nbytes):
    """Closed-form duration of one barriered round of point-to-point sends.

    Same-node sends ride dedicated directed fabric links (blit-staged,
    no contention); off-node sends share each node's NIC TX engine and
    the destination's RX port, mirrored by the two-stage pipeline bound
    (exact when at most one off-node send touches each node, which holds
    for every schedule in this module on node-major rank layouts).
    """
    longest = 0.0
    off = [(s, d) for s, d in sends if not topo.same_node(s, d)]
    if len(off) < len(sends):
        longest = cm.blit_route_time(nbytes, remote_node=False)
    if off:
        s_max = max(Counter(topo.node_of(s) for s, _d in off).values())
        t_max = max(Counter(topo.node_of(d) for _s, d in off).values())
        longest = xp_of(nbytes).maximum(
            longest, cm.nic_pipeline_time(s_max, nbytes, rx_msgs=t_max))
    return longest


class DirectAllReduce(AllReduceAlgorithm):
    """The paper's two-phase direct schedule on a fully-connected fabric:
    reduce-scatter (every rank streams its copy of chunk ``j`` to rank
    ``j``), local reduction, all-gather of the reduced chunks."""

    name = "direct"
    summary = ("two-phase reduce-scatter + all-gather over dedicated "
               "per-pair links (the paper's scale-up schedule)")

    def des_run(self, lib, topo, nbytes, n_elems, itemsize):
        world = topo.world
        launch = lib._launch_delay()
        chunk_bytes, chunk_elems = _chunked(nbytes, n_elems, world)

        def rank_proc(r):
            if launch:
                yield lib.sim.timeout(launch)
            evs = [lib._route(r, dst, chunk_bytes)
                   for dst in range(world) if dst != r]
            yield lib.sim.all_of(evs)
            yield lib.sim.timeout(reduce_time(
                lib.cluster.gpu(r), chunk_elems, world, itemsize))
            evs = [lib._route(r, dst, chunk_bytes)
                   for dst in range(world) if dst != r]
            yield lib.sim.all_of(evs)

        yield from lib._run_ranks(rank_proc(r) for r in range(world))

    def analytic_time(self, cm, topo, nbytes, n_elems, itemsize):
        world = topo.world
        if world == 1:
            return cm.launch()
        chunk_bytes, chunk_elems = _chunked(nbytes, n_elems, world)
        phase = 0.0
        if topo.gpus_per_node > 1:
            phase = cm.blit_route_time(chunk_bytes, remote_node=False)
        remote_gpus = world - topo.gpus_per_node
        if remote_gpus:
            # Every rank streams a chunk to each off-node peer at once —
            # the same shared-NIC incast shape as the flat All-to-All.
            phase = xp_of(chunk_bytes).maximum(phase, cm.nic_pipeline_time(
                topo.gpus_per_node * remote_gpus, chunk_bytes))
        return (cm.launch() + 2 * phase
                + reduce_time(cm.device, chunk_elems, world, itemsize))


class RingAllReduce(AllReduceAlgorithm):
    """Bandwidth-optimal ring: ``2(p-1)`` lock-stepped rounds of ``n/p``
    chunks around the rank ring (reduce-scatter then all-gather)."""

    name = "ring"
    summary = ("2(p-1) lock-stepped n/p-chunk rounds around the rank "
               "ring (bandwidth-optimal, latency grows with p)")

    def des_run(self, lib, topo, nbytes, n_elems, itemsize):
        world = topo.world
        launch = lib._launch_delay()
        chunk_bytes, chunk_elems = _chunked(nbytes, n_elems, world)
        if launch:
            yield lib.sim.timeout(launch)
        for phase in range(2):
            for _ in range(world - 1):
                def rank_proc(r, reduce_phase=(phase == 0)):
                    yield lib._route(r, (r + 1) % world, chunk_bytes)
                    if reduce_phase:
                        yield lib.sim.timeout(reduce_time(
                            lib.cluster.gpu(r), chunk_elems, 2, itemsize))
                yield from lib._run_ranks(rank_proc(r)
                                          for r in range(world))

    def analytic_time(self, cm, topo, nbytes, n_elems, itemsize):
        world = topo.world
        if world == 1:
            return cm.launch()
        chunk_bytes, chunk_elems = _chunked(nbytes, n_elems, world)
        sends = [(r, (r + 1) % world) for r in range(world)]
        hop = _route_max(cm, topo, sends, chunk_bytes)
        reduce = reduce_time(cm.device, chunk_elems, 2, itemsize)
        return cm.launch() + (world - 1) * (2 * hop + reduce)


def _tree_rounds(world: int) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """Binomial-tree reduce rounds: (distance, [(sender, receiver), ...])."""
    rounds = []
    d = 1
    while d < world:
        sends = [(r, r - d) for r in range(world) if r % (2 * d) == d]
        rounds.append((d, sends))
        d *= 2
    return rounds


class TreeAllReduce(AllReduceAlgorithm):
    """Binomial tree: ``ceil(log2 p)`` full-buffer reduce hops to rank 0,
    then the mirrored broadcast back down — latency-optimal for small
    payloads, ``log2(p)`` times the ring's bytes for large ones."""

    name = "tree"
    summary = ("binomial reduce-to-root + broadcast, 2*ceil(log2 p) "
               "full-buffer hops (latency-optimal for small payloads)")

    def des_run(self, lib, topo, nbytes, n_elems, itemsize):
        world = topo.world
        launch = lib._launch_delay()
        if launch:
            yield lib.sim.timeout(launch)

        def send_proc(src, dst):
            yield lib._route(src, dst, nbytes)

        rounds = _tree_rounds(world)
        for _d, sends in rounds:                    # reduce to rank 0
            yield from lib._run_ranks(send_proc(s, t) for s, t in sends)
            reduce = reduce_time(lib.cluster.gpu(sends[0][1]), n_elems, 2,
                                 itemsize)
            if reduce:
                yield lib.sim.timeout(reduce)
        for _d, sends in reversed(rounds):          # broadcast back down
            yield from lib._run_ranks(send_proc(t, s) for s, t in sends)

    def analytic_time(self, cm, topo, nbytes, n_elems, itemsize):
        world = topo.world
        if world == 1:
            return cm.launch()
        reduce = reduce_time(cm.device, n_elems, 2, itemsize)
        total = cm.launch()
        for _d, sends in _tree_rounds(world):
            hop = _route_max(cm, topo, sends, nbytes)
            total += 2 * hop + reduce   # the broadcast mirrors each round
        return total


class HierarchicalAllReduce(AllReduceAlgorithm):
    """Two-stage schedule for multi-GPU nodes behind one shared NIC:
    reduce onto each node's leader over the fabric, ring-AllReduce the
    leaders across the network, broadcast back over the fabric.  The NIC
    carries one rank's worth of traffic instead of ``gpus_per_node``.

    Degenerate shapes collapse to the flat schedules: one node ->
    ``direct``; one GPU per node (no fabric peers to stage over) ->
    ``ring``.
    """

    name = "hier"
    summary = ("fabric reduce to node leaders, leader ring across the "
               "NIC, fabric broadcast (multi-GPU nodes)")

    def des_run(self, lib, topo, nbytes, n_elems, itemsize):
        if topo.num_nodes == 1:
            yield from DIRECT.des_run(lib, topo, nbytes, n_elems, itemsize)
            return
        if topo.gpus_per_node == 1:
            yield from RING.des_run(lib, topo, nbytes, n_elems, itemsize)
            return
        launch = lib._launch_delay()
        if launch:
            yield lib.sim.timeout(launch)

        # Stage 1 — reduce onto each node's leader over dedicated links.
        def gather_proc(r):
            yield lib._route(r, topo.leader_of(r), nbytes)

        yield from lib._run_ranks(
            gather_proc(r) for r in range(topo.world)
            if r != topo.leader_of(r))
        yield lib.sim.timeout(reduce_time(
            lib.cluster.gpu(0), n_elems, topo.gpus_per_node, itemsize))

        # Stage 2 — ring AllReduce among the node leaders over the NIC.
        leaders = topo.leaders()
        chunk_bytes, chunk_elems = _chunked(nbytes, n_elems, topo.num_nodes)
        for phase in range(2):
            for _ in range(topo.num_nodes - 1):
                def leader_proc(i, reduce_phase=(phase == 0)):
                    yield lib._route(leaders[i],
                                     leaders[(i + 1) % len(leaders)],
                                     chunk_bytes)
                    if reduce_phase:
                        yield lib.sim.timeout(reduce_time(
                            lib.cluster.gpu(leaders[i]), chunk_elems, 2,
                            itemsize))
                yield from lib._run_ranks(leader_proc(i)
                                          for i in range(len(leaders)))

        # Stage 3 — broadcast the result back over the fabric.
        def bcast_proc(r):
            yield lib.sim.all_of([lib._route(r, p, nbytes)
                                  for p in topo.local_peers(r)])

        yield from lib._run_ranks(bcast_proc(r) for r in leaders)

    def analytic_time(self, cm, topo, nbytes, n_elems, itemsize):
        if topo.num_nodes == 1:
            return DIRECT.analytic_time(cm, topo, nbytes, n_elems, itemsize)
        if topo.gpus_per_node == 1:
            return RING.analytic_time(cm, topo, nbytes, n_elems, itemsize)
        fabric_hop = cm.blit_route_time(nbytes, remote_node=False)
        total = (cm.launch() + fabric_hop
                 + reduce_time(cm.device, n_elems, topo.gpus_per_node,
                               itemsize))
        chunk_bytes, chunk_elems = _chunked(nbytes, n_elems, topo.num_nodes)
        hop = cm.blit_route_time(chunk_bytes, remote_node=True)
        reduce = reduce_time(cm.device, chunk_elems, 2, itemsize)
        total += (topo.num_nodes - 1) * (2 * hop + reduce)
        return total + fabric_hop


DIRECT = register_allreduce(DirectAllReduce())
RING = register_allreduce(RingAllReduce())
TREE = register_allreduce(TreeAllReduce())
HIER = register_allreduce(HierarchicalAllReduce())
