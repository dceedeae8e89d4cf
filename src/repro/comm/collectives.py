"""Baseline bulk-synchronous collective library (RCCL-like).

This is the comparison point for every fused operator in the paper: separate
computation and communication *kernels* executing at kernel boundaries.
Each collective here:

* produces functionally exact outputs (NumPy) — the functional variants
  :meth:`CollectiveLibrary.all_to_all` and
  :meth:`CollectiveLibrary.all_reduce` validate their inputs and compute
  them, and
* advances simulated time through the matching timing-only variant
  (``*_bytes``), which runs a step schedule from :mod:`repro.collectives`
  — a pluggable menu of ring/tree/direct/hierarchical AllReduce and
  flat/pairwise/hierarchical All-to-All selected with the ``algorithm``
  argument (``None`` keeps the legacy defaults the paper evaluates
  against; ``"auto"`` picks by message size and topology).  A schedule
  moves data the way RCCL does on this hardware: a collective kernel
  launch per rank, blit-kernel copies over the intra-node fabric, or
  GPU-direct RDMA transfers between nodes.

All methods are generators meant to run inside a simulation process::

    def scenario(sim):
        outs = yield from lib.all_to_all(sends)
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..collectives import CommTopology, resolve_allreduce, resolve_alltoall
from ..hw.topology import Cluster
from ..sim import Simulator

__all__ = ["CollectiveLibrary"]


#: Fraction of raw fabric-link bandwidth a blit-kernel copy achieves.
#:
#: RCCL's intra-node collectives move data with copy ("blit") kernels that
#: stage payloads through intermediate buffers using a handful of CUs per
#: channel; measured bus bandwidths sit well below the link peak.  The
#: paper's zero-copy fused kernels bypass this entirely — GPU threads store
#: compute results straight into the peer's destination buffer — which is
#: the "zero-copy" benefit of Section III-B.
BLIT_EFFICIENCY = 0.55


class CollectiveLibrary:
    """Bulk-synchronous collectives over a :class:`~repro.hw.Cluster`."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim: Simulator = cluster.sim

    # -- helpers ---------------------------------------------------------------
    def _launch_delay(self) -> float:
        return self.cluster.gpus[0].spec.kernel_launch_overhead

    def _route(self, src_rank: int, dst_rank: int, nbytes: float):
        src = self.cluster.gpu(src_rank)
        dst = self.cluster.gpu(dst_rank)
        if src_rank == dst_rank:
            ev = self.sim.event()
            ev.succeed()
            return ev
        if src.node_id == dst.node_id:
            # Blit-kernel staging: the copy engine sustains only a fraction
            # of the link's peak, modelled as inflated on-the-wire time.
            return src.store_remote(dst, nbytes / BLIT_EFFICIENCY)
        return src.rdma_put(dst, nbytes)

    def _run_ranks(self, rank_gens):
        """Run one generator per rank concurrently; wait for all."""
        procs = [self.sim.process(g) for g in rank_gens]
        yield self.sim.all_of(procs)

    def topology(self) -> CommTopology:
        """This cluster's shape, for algorithm resolution/selection."""
        return CommTopology.from_cluster(self.cluster)

    # -- timing-only variants ---------------------------------------------------
    def all_to_all_bytes(self, chunk_bytes: float,
                         algorithm: Optional[str] = None) -> "Generator":
        """Timing-only All-to-All where every (src, dst) chunk is
        ``chunk_bytes``; no functional payload (paper-scale benchmarks).

        ``algorithm`` names a schedule from :mod:`repro.collectives`
        (``"flat"``, ``"pairwise"``, ``"hier"``, or ``"auto"`` for the
        size/topology selector); ``None`` is the legacy flat schedule.
        """
        if chunk_bytes < 0:
            raise ValueError("chunk_bytes must be >= 0")
        topo = self.topology()
        algo = resolve_alltoall(algorithm, topo, chunk_bytes)
        yield from algo.des_run(self, topo, chunk_bytes)
        return None

    def all_reduce_bytes(self, nbytes: float, n_elems: int, itemsize: int = 4,
                         algorithm: Optional[str] = None) -> "Generator":
        """Timing-only AllReduce of an ``nbytes`` buffer (``n_elems``
        elements of ``itemsize`` bytes); no functional payload.

        ``algorithm`` names a schedule from :mod:`repro.collectives`
        (``"direct"``, ``"ring"``, ``"tree"``, ``"hier"``, or ``"auto"``
        for the size/topology selector); ``None`` keeps the legacy
        default — direct inside a node, ring across nodes.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        topo = self.topology()
        algo = resolve_allreduce(algorithm, topo, nbytes)
        if topo.world == 1:
            yield self.sim.timeout(self._launch_delay())
            return None
        yield from algo.des_run(self, topo, nbytes, n_elems, itemsize)
        return None

    # -- functional variants ---------------------------------------------------
    def all_to_all(self, sends: Sequence[np.ndarray],
                   algorithm: Optional[str] = None) -> "Generator":
        """All-to-All: ``out[r][s] = sends[s][r]``.

        Each ``sends[r]`` must have leading dimension ``world``; the
        timing is :meth:`all_to_all_bytes` of one ``sends[0][0]`` chunk
        under ``algorithm``.
        """
        world = self.cluster.world_size
        if len(sends) != world:
            raise ValueError(f"need {world} send buffers, got {len(sends)}")
        for r, s in enumerate(sends):
            if s.shape[0] != world:
                raise ValueError(
                    f"send buffer {r} leading dim {s.shape[0]} != world {world}")
        outs = [np.stack([sends[s][r] for s in range(world)])
                for r in range(world)]
        yield from self.all_to_all_bytes(float(sends[0][0].nbytes), algorithm)
        return outs

    def all_reduce(self, arrays: Sequence[np.ndarray],
                   algorithm: Optional[str] = None) -> "Generator":
        """Sum-AllReduce across ranks; returns the reduced array per rank.

        The reduced values are schedule-independent; the timing is
        :meth:`all_reduce_bytes` of one rank's buffer under ``algorithm``.
        """
        world = self.cluster.world_size
        if len(arrays) != world:
            raise ValueError(f"need {world} arrays, got {len(arrays)}")
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(f"mismatched AllReduce shapes: {shapes}")

        total = np.sum(np.stack(arrays), axis=0, dtype=arrays[0].dtype)
        outs = [total.copy() for _ in range(world)]
        yield from self.all_reduce_bytes(
            float(arrays[0].nbytes), int(arrays[0].size),
            arrays[0].dtype.itemsize, algorithm)
        return outs
