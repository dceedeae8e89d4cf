"""RDMA NIC model (GPU-direct, GPU-initiated networking).

A :class:`Nic` owns a FIFO transmit engine (serialized at link bandwidth,
plus per-message processing overhead) and delivers into the destination
node's NIC through the inter-node :class:`~repro.hw.network.Network`.  The
completion event of :meth:`rdma_put` fires when the payload is fully visible
in the *destination GPU's* memory — the semantics fused kernels rely on when
they send a `sliceRdy` flag after a fence.
"""

from __future__ import annotations

from ..sim import Event, FifoChannel, Simulator
from .specs import NicSpec

__all__ = ["Nic"]


class Nic:
    """One RDMA NIC attached to a node (GPU-direct capable)."""

    def __init__(self, sim: Simulator, spec: NicSpec, node_id: int,
                 nic_id: int = 0):
        self.sim = sim
        self.spec = spec
        self.node_id = node_id
        self.nic_id = nic_id
        self.network = None  # set by topology
        self._tx = FifoChannel(sim, bandwidth=spec.bandwidth, latency=0.0,
                               name=f"nic{node_id}.{nic_id}.tx")
        self.messages = 0
        self.bytes = 0.0

    def __repr__(self) -> str:
        return f"<Nic node={self.node_id} {self.spec.name}>"

    def rdma_put(self, dst_gpu: "Gpu", nbytes: float, value=None) -> Event:
        """Transmit ``nbytes`` to a remote GPU; event fires on remote delivery.

        Bandwidth is charged exactly once per payload (at the destination
        port, where incast contention lives); the TX engine serializes only
        the per-message processing cost (doorbell + descriptor), which is
        what bounds a NIC's message rate.  Large transfers are therefore
        pipelined cut-through, as real RDMA NICs do.
        """
        if self.network is None:
            raise RuntimeError(f"{self!r} not attached to a network")
        if dst_gpu.node_id == self.node_id:
            raise ValueError(
                f"rdma_put to local node {dst_gpu.node_id}; use the fabric")
        self.messages += 1
        self.bytes += nbytes
        done = self.sim.event()

        # The TX engine is busy for the message-processing time only.
        overhead_bytes = self.spec.message_overhead * self.spec.bandwidth
        tx_done = self._tx.transfer(overhead_bytes)

        def after_tx(_ev):
            wire = self.network.deliver(self.node_id, dst_gpu.node_id, nbytes)
            wire.add_callback(lambda _e: done.succeed(value))

        tx_done.add_callback(after_tx)
        return done

    @property
    def tx_busy_until(self) -> float:
        return self._tx.busy_until
