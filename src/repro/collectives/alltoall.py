"""All-to-All schedules: flat, pairwise, hierarchical two-stage.

``flat`` is the legacy RCCL-like schedule ``algo=None`` resolves to:
every rank fires all of its chunks at once, so a node's off-node chunks
pile into the shared NIC.
``pairwise`` serializes the exchange into ``p-1`` barriered rounds;
``hier`` stages intra-node traffic over the fabric so the NIC carries
``gpus_per_node`` times fewer (and larger) messages.
"""

from __future__ import annotations

from ..hw.gpu import copy_time
from ..utils.xp import xp_of
from .base import (
    AllToAllAlgorithm,
    CommTopology,
    register_alltoall,
)

__all__ = ["FlatAllToAll", "PairwiseAllToAll", "HierarchicalAllToAll"]


class FlatAllToAll(AllToAllAlgorithm):
    """Everyone-to-everyone at once: per-destination chunks launched
    concurrently — dedicated fabric links intra-node, the shared NIC's
    TX/RX pipeline for the off-node incast."""

    name = "flat"
    summary = ("all chunks at once: dedicated fabric links intra-node, "
               "shared-NIC incast off-node (the RCCL-like baseline)")

    def des_run(self, lib, topo, chunk_bytes):
        world = topo.world
        launch = lib._launch_delay()

        def rank_proc(r):
            if launch:
                yield lib.sim.timeout(launch)
            evs = []
            for dst in range(world):
                if dst == r:
                    evs.append(lib.sim.timeout(
                        copy_time(lib.cluster.gpu(r), chunk_bytes)))
                else:
                    evs.append(lib._route(r, dst, chunk_bytes))
            yield lib.sim.all_of(evs)

        yield from lib._run_ranks(rank_proc(r) for r in range(world))

    def analytic_time(self, cm, topo, chunk_bytes):
        if topo.world == 1:
            return cm.launch() + copy_time(cm.device, chunk_bytes)
        xp = xp_of(chunk_bytes)
        longest = copy_time(cm.device, chunk_bytes)
        if topo.gpus_per_node > 1:
            longest = xp.maximum(longest,
                                 cm.blit_route_time(chunk_bytes, False))
        remote_gpus = topo.world - topo.gpus_per_node
        if remote_gpus:
            longest = xp.maximum(longest, cm.nic_pipeline_time(
                topo.gpus_per_node * remote_gpus, chunk_bytes))
        return cm.launch() + longest


def _pairwise_round_counts(topo: CommTopology, k: int):
    """(same-node sends, off-node sends) per node in round ``k``.

    Node-major rank layout makes every node's round-``k`` pattern a
    translate of node 0's, so counting one node's block suffices.
    """
    same = off = 0
    for r in range(topo.gpus_per_node):
        dst = (r + k) % topo.world
        if topo.node_of(dst) == 0:
            same += 1
        else:
            off += 1
    return same, off


class PairwiseAllToAll(AllToAllAlgorithm):
    """``p-1`` barriered rounds; in round ``k`` rank ``r`` exchanges with
    rank ``(r+k) mod p``.  One message per rank per round keeps the NIC's
    message pipeline shallow — the win when chunks are overhead-bound."""

    name = "pairwise"
    summary = ("p-1 barriered rounds, one (r -> r+k) message each: "
               "shallow NIC pipeline for overhead-bound chunks")

    def des_run(self, lib, topo, chunk_bytes):
        world = topo.world
        launch = lib._launch_delay()

        def local_proc(r):
            if launch:
                yield lib.sim.timeout(launch)
            yield lib.sim.timeout(copy_time(lib.cluster.gpu(r),
                                            chunk_bytes))

        yield from lib._run_ranks(local_proc(r) for r in range(world))
        for k in range(1, world):
            def round_proc(r, k=k):
                yield lib._route(r, (r + k) % world, chunk_bytes)
            yield from lib._run_ranks(round_proc(r) for r in range(world))

    def analytic_time(self, cm, topo, chunk_bytes):
        total = cm.launch() + copy_time(cm.device, chunk_bytes)
        for k in range(1, topo.world):
            same, off = _pairwise_round_counts(topo, k)
            longest = 0.0
            if same:
                longest = cm.blit_route_time(chunk_bytes, False)
            if off:
                longest = xp_of(chunk_bytes).maximum(
                    longest, cm.nic_pipeline_time(off, chunk_bytes))
            total += longest
        return total


class HierarchicalAllToAll(AllToAllAlgorithm):
    """Two-stage exchange for multi-GPU nodes behind one shared NIC.

    Stage 1 (fabric): rank ``(n, g)`` sends each same-node peer ``(n, g')``
    one aggregated message — the peer's direct chunk plus the chunks bound
    for local index ``g'`` on every other node (``num_nodes`` chunks
    total).  Stage 2 (NIC): each rank sends its counterpart ``(m, g)`` on
    every other node one ``gpus_per_node``-chunk message carrying the
    whole node's traffic for that destination.  Same total bytes as
    ``flat``, but the NIC sees ``gpus_per_node`` times fewer messages.

    Degenerate shapes (one node, or 1-GPU nodes with no fabric peers to
    stage over) collapse to the flat schedule exactly.
    """

    name = "hier"
    summary = ("aggregate per-node over the fabric, then g/node-times "
               "fewer, larger NIC messages (multi-GPU nodes)")

    def des_run(self, lib, topo, chunk_bytes):
        if topo.num_nodes == 1 or topo.gpus_per_node == 1:
            yield from FLAT.des_run(lib, topo, chunk_bytes)
            return
        launch = lib._launch_delay()
        staged = topo.num_nodes * chunk_bytes
        bundled = topo.gpus_per_node * chunk_bytes

        def stage1_proc(r):
            if launch:
                yield lib.sim.timeout(launch)
            evs = [lib.sim.timeout(copy_time(lib.cluster.gpu(r),
                                             chunk_bytes))]
            evs += [lib._route(r, p, staged) for p in topo.local_peers(r)]
            yield lib.sim.all_of(evs)

        yield from lib._run_ranks(stage1_proc(r) for r in range(topo.world))

        def stage2_proc(r):
            evs = [lib._route(r, topo.counterpart(r, m), bundled)
                   for m in range(topo.num_nodes)
                   if m != topo.node_of(r)]
            yield lib.sim.all_of(evs)

        yield from lib._run_ranks(stage2_proc(r) for r in range(topo.world))

    def analytic_time(self, cm, topo, chunk_bytes):
        if topo.num_nodes == 1 or topo.gpus_per_node == 1:
            return FLAT.analytic_time(cm, topo, chunk_bytes)
        staged = topo.num_nodes * chunk_bytes
        bundled = topo.gpus_per_node * chunk_bytes
        stage1 = xp_of(chunk_bytes).maximum(
            copy_time(cm.device, chunk_bytes),
            cm.blit_route_time(staged, False))
        n_msgs = topo.gpus_per_node * (topo.num_nodes - 1)
        return cm.launch() + stage1 + cm.nic_pipeline_time(n_msgs, bundled)


FLAT = register_alltoall(FlatAllToAll())
PAIRWISE = register_alltoall(PairwiseAllToAll())
HIER = register_alltoall(HierarchicalAllToAll())
