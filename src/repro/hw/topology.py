"""Cluster construction: nodes of GPUs + fabric, joined by a network.

These builders wire together every hardware model and are the entry point
for all experiments::

    cluster = build_cluster(sim, num_nodes=2, gpus_per_node=1)
    gpu = cluster.gpu(0)          # global GPU index
    peers = cluster.gpus          # flat list, rank order = global index
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim import NULL_TRACE, Simulator, TraceRecorder
from .fabric import Fabric
from .gpu import Gpu
from .network import Network
from .nic import Nic
from .specs import ClusterSpec, NodeSpec

__all__ = ["Node", "Cluster", "build_node", "build_cluster"]


@dataclass
class Node:
    """One server: GPUs connected by an intra-node fabric, plus a NIC."""

    node_id: int
    gpus: List[Gpu]
    fabric: Fabric
    nic: Optional[Nic] = None

    def __post_init__(self):
        for g in self.gpus:
            if g.nic is not None and g.nic is not self.nic:
                # Silently re-pointing a reused Gpu's NIC would reroute
                # its RDMA traffic through the newest node ever built —
                # and corrupt the older node's timing behind its back.
                raise ValueError(
                    f"GPU {g.gpu_id} already belongs to node "
                    f"{g.nic.node_id}'s NIC; build each node (and "
                    f"cluster) with fresh Gpu objects")
            g.nic = self.nic


@dataclass
class Cluster:
    """A set of nodes joined by an inter-node network."""

    nodes: List[Node]
    network: Optional[Network]
    sim: Simulator
    trace: TraceRecorder
    gpus: List[Gpu] = field(init=False)

    def __post_init__(self):
        self.gpus = [g for node in self.nodes for g in node.gpus]
        for rank, g in enumerate(self.gpus):
            if g.gpu_id != rank:
                raise ValueError("GPU ids must equal their flat rank order")

    @property
    def world_size(self) -> int:
        return len(self.gpus)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def gpu(self, rank: int) -> Gpu:
        return self.gpus[rank]

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.gpus[rank_a].node_id == self.gpus[rank_b].node_id

    def transfers(self) -> int:
        """Transfers started so far on every fabric link, NIC transmit
        engine and switch port (one per ``transfer`` call)."""
        n = sum(link.transfers for node in self.nodes
                for link in node.fabric.links().values())
        n += sum(node.nic.messages for node in self.nodes
                 if node.nic is not None)
        if self.network is not None:
            n += sum(self.network.rx_port(i).messages_sent
                     for i in range(self.network.num_nodes))
        return n


def build_node(sim: Simulator, spec: Optional[NodeSpec] = None,
               node_id: int = 0, first_gpu_id: int = 0,
               trace: Optional[TraceRecorder] = None,
               platform=None) -> Node:
    """Construct one node: GPUs, fully-connected fabric, one NIC.

    Either an explicit :class:`NodeSpec` or a ``platform`` (anything
    :func:`repro.hw.platform.get_platform` resolves) selects the hardware;
    omitting both builds the paper's calibrated MI210 node.
    """
    if spec is not None and platform is not None:
        raise ValueError("pass spec or platform, not both")
    if spec is None:
        from .platform import get_platform
        spec = get_platform(platform).node_spec()
    gpus = [
        Gpu(sim, spec.gpu, gpu_id=first_gpu_id + i, node_id=node_id,
            local_id=i, trace=trace)
        for i in range(spec.num_gpus)
    ]
    fabric = Fabric(sim, gpus, spec.link)
    nic = Nic(sim, spec.nic, node_id=node_id)
    return Node(node_id=node_id, gpus=gpus, fabric=fabric, nic=nic)


def build_cluster(sim: Simulator, num_nodes: int = 1, gpus_per_node: int = 4,
                  node_spec: Optional[NodeSpec] = None,
                  trace: Optional[TraceRecorder] = None,
                  platform=None) -> Cluster:
    """Construct a cluster in rank order (node-major GPU numbering).

    Hardware comes from ``node_spec`` if given, else from ``platform``
    (anything :func:`repro.hw.platform.get_platform` resolves: a catalog
    name, a :class:`~repro.hw.platform.Platform`, or its params mapping);
    the default platform is the paper's calibrated MI210.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if node_spec is not None and platform is not None:
        raise ValueError("pass node_spec or platform, not both")
    if node_spec is not None:
        spec = node_spec
    else:
        from .platform import get_platform
        spec = get_platform(platform).node_spec(gpus_per_node)
    tr = trace if trace is not None else NULL_TRACE
    network = Network(sim, spec.nic, num_nodes) if num_nodes > 1 else None
    nodes = []
    for n in range(num_nodes):
        node = build_node(sim, spec, node_id=n,
                          first_gpu_id=n * spec.num_gpus, trace=tr)
        if node.nic is not None:
            node.nic.network = network
        nodes.append(node)
    return Cluster(nodes=nodes, network=network, sim=sim, trace=tr)


def from_cluster_spec(sim: Simulator, cspec: ClusterSpec,
                      trace: Optional[TraceRecorder] = None) -> Cluster:
    """Build a cluster directly from a :class:`ClusterSpec`."""
    return build_cluster(sim, num_nodes=cspec.num_nodes,
                         gpus_per_node=cspec.node.num_gpus,
                         node_spec=cspec.node, trace=trace)
