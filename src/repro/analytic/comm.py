"""Alpha-beta(-gamma) communication models for the analytic backend.

Closed-form twins of the DES transport stack:

* **fabric puts** — one :class:`~repro.sim.FairShareLink` per directed GPU
  pair; a single flow costs ``latency + bytes/bandwidth`` (alpha-beta), and
  ``flows`` concurrent streams on one link divide the bandwidth evenly.
* **RDMA puts** — the NIC TX engine serializes the per-message processing
  overhead (the gamma term bounding message rate) while payload bandwidth
  is charged once at the destination port, so drains are pipelined
  cut-through exactly as :meth:`repro.hw.nic.Nic.rdma_put` models them.
* **RCCL-like collectives** — the closed forms of the step schedules in
  :mod:`repro.collectives` (launch, blit-kernel staging at
  :data:`BLIT_EFFICIENCY`, per-phase barriers), whose DES generators
  :class:`repro.comm.collectives.CollectiveLibrary` runs; for
  single-flow-per-link patterns the two engines agree exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..collectives import (
    AUTO,
    CommTopology,
    resolve_allreduce,
    resolve_alltoall,
    select_allreduce,
    select_alltoall,
)
from ..comm.collectives import BLIT_EFFICIENCY
from ..comm.shmem import FLAG_BYTES, ShmemContext
from ..hw.platform import PlatformLike, get_platform
from ..utils.xp import NP, xp_of
from .device import device_model

__all__ = ["CommModel", "FLAG_BYTES"]


class CommModel:
    """Closed-form communication timing on one platform's cluster shape.

    Byte and element counts may be Python scalars or NumPy columns over a
    scenario axis (the cluster shape, and so every ``remote_node``, is
    uniform); each method is one closed form over :mod:`repro.utils.xp`.
    """

    def __init__(self, platform: PlatformLike = None, num_nodes: int = 1,
                 gpus_per_node: int = 4, cpu_proxy: bool = False):
        if num_nodes < 1 or gpus_per_node < 1:
            raise ValueError("cluster shape counts must be >= 1")
        self.platform = get_platform(platform)
        self.device = device_model(self.platform)
        self.link = self.platform.link
        self.nic = self.platform.nic
        self.num_nodes = num_nodes
        self.gpus_per_node = gpus_per_node
        self.world = num_nodes * gpus_per_node
        self.cpu_proxy = cpu_proxy

    # -- GPU-initiated puts (fused-kernel transport) -------------------------
    def _proxy_latency(self) -> float:
        return ShmemContext.CPU_PROXY_LATENCY if self.cpu_proxy else 0.0

    def fabric_put_time(self, nbytes: float, flows: int = 1) -> float:
        """One zero-copy store stream over a directed fabric link."""
        return self.link.latency + nbytes * max(flows, 1) / self.link.bandwidth

    def rdma_put_time(self, nbytes: float) -> float:
        """One GPU-initiated RDMA put, end to end (TX overhead + wire)."""
        return (self._proxy_latency() + self.nic.message_overhead
                + self.nic.latency + nbytes / self.nic.bandwidth)

    def put_time(self, nbytes: float, remote_node: bool) -> float:
        return (self.rdma_put_time(nbytes) if remote_node
                else self.fabric_put_time(nbytes))

    def drain_time(self, total_bytes, n_messages, remote_node: bool):
        """Steady-state time to push a stream of puts through one channel.

        Fabric links are pure bandwidth; the NIC is the max of its
        bandwidth term and the per-message gamma term (TX serializes one
        ``message_overhead`` per put; flag writes count as messages too).
        """
        if remote_node:
            return xp_of(total_bytes, n_messages).maximum(
                total_bytes / self.nic.bandwidth,
                n_messages * self.nic.message_overhead)
        return total_bytes / self.link.bandwidth

    def signal_tail(self, nbytes: float, remote_node: bool) -> float:
        """Latency from *issuing* the final put to its fenced flag landing:
        the payload's wire time plus the chained flag write (the paper's
        "PUT data, remote fence, PUT sliceRdy" idiom)."""
        return (self.put_time(nbytes, remote_node)
                + self.put_time(FLAG_BYTES, remote_node))

    # -- RCCL-like collectives (baseline transport) --------------------------
    def launch(self) -> float:
        return self.device.spec.kernel_launch_overhead

    def blit_route_time(self, nbytes: float, remote_node: bool) -> float:
        """One baseline-collective chunk: blit staging intra-node, RDMA
        (no blit, no proxy — collectives are host-launched) inter-node."""
        if remote_node:
            return (self.nic.message_overhead + self.nic.latency
                    + nbytes / self.nic.bandwidth)
        return self.link.latency + (nbytes / BLIT_EFFICIENCY
                                    / self.link.bandwidth)

    def nic_pipeline_time(self, n_msgs: int, msg_bytes: float,
                          rx_msgs: Optional[int] = None) -> float:
        """``n_msgs`` concurrent off-node messages through one shared NIC.

        The TX engine serializes the per-message overhead of every
        off-node chunk, and the destination's RX port serializes their
        payload bytes — a two-stage pipeline whose last completion is
        bounded by the slower stage plus one unit of the other.
        ``rx_msgs`` overrides the arrival count at the busiest RX port
        when it differs from the TX count (asymmetric schedules like the
        tree's cross-node rounds); it defaults to ``n_msgs``.
        """
        rx = n_msgs if rx_msgs is None else rx_msgs
        mo = self.nic.message_overhead
        wire = msg_bytes / self.nic.bandwidth
        return self.nic.latency + xp_of(wire).maximum(n_msgs * mo + wire,
                                                      mo + rx * wire)

    def topology(self) -> CommTopology:
        return CommTopology(self.num_nodes, self.gpus_per_node)

    def alltoall_time(self, chunk_bytes, algo: Optional[str] = None):
        """Mirror of ``CollectiveLibrary.all_to_all_bytes`` (symmetric
        ranks).  ``algo`` names a schedule from
        :mod:`repro.collectives` (``None`` = the legacy flat one); each
        closed form mirrors its DES schedule round for round."""
        xp = xp_of(chunk_bytes)
        if xp.any(chunk_bytes < 0):
            raise ValueError("chunk_bytes must be >= 0")
        topo = self.topology()
        if algo == AUTO and xp is NP:
            return self._auto_columns(resolve_alltoall, select_alltoall,
                                      chunk_bytes)
        algorithm = resolve_alltoall(algo, topo, chunk_bytes)
        return algorithm.analytic_time(self, topo, chunk_bytes)

    def allreduce_time(self, nbytes, n_elems, itemsize=4,
                       algo: Optional[str] = None):
        """Mirror of ``CollectiveLibrary.all_reduce_bytes``.  ``algo``
        names a schedule from :mod:`repro.collectives`; ``None`` keeps
        the legacy default (direct inside a node, ring across nodes)."""
        xp = xp_of(nbytes)
        if xp.any(nbytes < 0):
            raise ValueError("nbytes must be >= 0")
        topo = self.topology()
        if algo == AUTO and xp is NP:
            return self._auto_columns(resolve_allreduce, select_allreduce,
                                      nbytes, n_elems, itemsize)
        algorithm = resolve_allreduce(algo, topo, nbytes)
        if topo.world == 1:
            return xp.full_like(nbytes, self.launch())
        return algorithm.analytic_time(self, topo, nbytes, n_elems, itemsize)

    def _auto_columns(self, resolve, select, size, *args):
        """``algo="auto"`` over a column of sizes: the selector picks a
        schedule per row, and each picked schedule evaluates its rows."""
        topo = self.topology()
        names = np.broadcast_to(select(topo, size), np.shape(size))
        out = np.empty(np.shape(size))
        for name in np.unique(names):
            rows = names == name
            algorithm = resolve(str(name), topo, None)
            out[rows] = algorithm.analytic_time(
                self, topo, *(a[rows] if np.ndim(a) else a
                              for a in (size, *args)))
        return out
