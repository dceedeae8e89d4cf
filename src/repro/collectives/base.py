"""Collective-algorithm plumbing: topology, registries, auto-selection.

Real communication libraries pick a schedule per collective from a menu —
ring, tree, direct, hierarchical — based on message size and where the
ranks live.  This package is that menu for the repro's two transport
stacks.  Every algorithm is implemented twice, against the same
structural model:

* ``des_run(lib, topo, ...)`` — a discrete-event schedule driven through
  the :class:`~repro.comm.collectives.CollectiveLibrary` helpers (blit
  staging over :class:`~repro.hw.fabric.Fabric` links, GPU-direct RDMA
  through the shared :class:`~repro.hw.nic.Nic`).
* ``analytic_time(cm, topo, ...)`` — the closed form the analytic
  backend's :class:`~repro.analytic.comm.CommModel` evaluates, mirroring
  the DES schedule round for round (lock-stepped schedules agree exactly;
  the per-algorithm equivalence tests pin this).  Sizes may be scalars
  or NumPy columns over a scenario axis (:mod:`repro.utils.xp`).

Both take local copy and reduce kernel times from the shared
:func:`repro.hw.gpu.copy_time` and :func:`repro.hw.gpu.reduce_time`.

Algorithms register by name at import time; ``"auto"`` resolves through
the size/topology selector below, and ``None`` resolves to the legacy
default schedule so every pre-existing caller (and cached result) is
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..utils.xp import xp_of

__all__ = [
    "AUTO",
    "CommTopology",
    "AllReduceAlgorithm",
    "AllToAllAlgorithm",
    "register_allreduce",
    "register_alltoall",
    "get_allreduce",
    "get_alltoall",
    "allreduce_names",
    "alltoall_names",
    "check_algo",
    "default_allreduce",
    "default_alltoall",
    "select_allreduce",
    "select_alltoall",
    "resolve_allreduce",
    "resolve_alltoall",
    "TREE_MAX_BYTES",
    "PAIRWISE_MAX_BYTES",
]

#: Sentinel name: let :func:`select_allreduce` / :func:`select_alltoall`
#: pick the schedule from the topology and message size.
AUTO = "auto"

#: Above this AllReduce payload the tree's ``log2(p)`` full-buffer hops
#: lose to the ring's ``2(p-1)`` chunk hops (bandwidth-optimal), so the
#: selector switches tree -> ring.  The calibrated-NIC crossover sits
#: near 32-64 KB for 4-16 nodes.
TREE_MAX_BYTES = 32 * 1024

#: Below this per-pair All-to-All chunk the NIC's per-message overhead
#: dominates the wire time, so the selector stages the exchange (``hier``,
#: or ``pairwise`` on 1-GPU nodes) instead of the flat everyone-at-once
#: incast.  The calibrated NIC is overhead-bound below ~6 KB
#: (0.3 us x 20 GB/s); ``hier``'s extra fabric hop moves its break-even
#: with ``flat`` down to 3-6 KB by shape; past it ``hier`` loses up to
#: 13% on 2x2.  At 4 KB ``auto`` stays within 2% of ``flat`` on every
#: multi-GPU shape up to 8x8.
PAIRWISE_MAX_BYTES = 4 * 1024


@dataclass(frozen=True)
class CommTopology:
    """Where the ranks live: ``num_nodes`` x ``gpus_per_node``, node-major.

    Rank numbering follows :func:`repro.hw.topology.build_cluster`: rank
    ``r`` sits on node ``r // gpus_per_node`` with local index
    ``r % gpus_per_node``.
    """

    num_nodes: int
    gpus_per_node: int

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError(
                f"topology counts must be >= 1, got {self.num_nodes}x"
                f"{self.gpus_per_node}")

    @property
    def world(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def local_index(self, rank: int) -> int:
        return rank % self.gpus_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def leader_of(self, rank: int) -> int:
        """First rank of ``rank``'s node (the hierarchical stage root)."""
        return self.node_of(rank) * self.gpus_per_node

    def leaders(self) -> List[int]:
        return [n * self.gpus_per_node for n in range(self.num_nodes)]

    def counterpart(self, rank: int, node: int) -> int:
        """The rank on ``node`` with the same local index as ``rank``."""
        return node * self.gpus_per_node + self.local_index(rank)

    def local_peers(self, rank: int) -> List[int]:
        """Same-node ranks other than ``rank`` (empty on 1-GPU nodes)."""
        n0 = self.leader_of(rank)
        return [r for r in range(n0, n0 + self.gpus_per_node) if r != rank]

    @classmethod
    def from_cluster(cls, cluster) -> "CommTopology":
        sizes = {len(node.gpus) for node in cluster.nodes}
        if len(sizes) != 1:
            raise ValueError(
                f"collective algorithms need uniform nodes, got GPU counts "
                f"{sorted(sizes)}")
        return cls(num_nodes=cluster.num_nodes, gpus_per_node=sizes.pop())


class AllReduceAlgorithm:
    """One AllReduce schedule (see the subclasses in ``allreduce.py``)."""

    #: Registry name.
    name: str = ""
    #: One-line description for ``python -m repro algos``.
    summary: str = ""

    def supports(self, topo: CommTopology) -> Optional[str]:
        """``None`` if the schedule runs on ``topo``, else the reason."""
        return None

    def des_run(self, lib, topo: CommTopology, nbytes: float, n_elems: int,
                itemsize: int):
        raise NotImplementedError

    def analytic_time(self, cm, topo: CommTopology, nbytes: float,
                      n_elems: int, itemsize: int) -> float:
        raise NotImplementedError


class AllToAllAlgorithm:
    """One All-to-All schedule (see the subclasses in ``alltoall.py``)."""

    name: str = ""
    summary: str = ""

    def supports(self, topo: CommTopology) -> Optional[str]:
        return None

    def des_run(self, lib, topo: CommTopology, chunk_bytes: float):
        raise NotImplementedError

    def analytic_time(self, cm, topo: CommTopology,
                      chunk_bytes: float) -> float:
        raise NotImplementedError


ALLREDUCE_ALGOS: Dict[str, AllReduceAlgorithm] = {}
ALLTOALL_ALGOS: Dict[str, AllToAllAlgorithm] = {}


def register_allreduce(algo: AllReduceAlgorithm) -> AllReduceAlgorithm:
    if not algo.name:
        raise ValueError("AllReduce algorithm needs a name")
    if algo.name == AUTO:
        raise ValueError(f"{AUTO!r} is reserved for the selector")
    ALLREDUCE_ALGOS[algo.name] = algo
    return algo


def register_alltoall(algo: AllToAllAlgorithm) -> AllToAllAlgorithm:
    if not algo.name:
        raise ValueError("All-to-All algorithm needs a name")
    if algo.name == AUTO:
        raise ValueError(f"{AUTO!r} is reserved for the selector")
    ALLTOALL_ALGOS[algo.name] = algo
    return algo


def allreduce_names() -> List[str]:
    return sorted(ALLREDUCE_ALGOS)


def alltoall_names() -> List[str]:
    return sorted(ALLTOALL_ALGOS)


def get_allreduce(name: str) -> AllReduceAlgorithm:
    try:
        return ALLREDUCE_ALGOS[name]
    except KeyError:
        raise KeyError(
            f"unknown AllReduce algorithm {name!r}; registered: "
            f"{allreduce_names()} (or {AUTO!r})") from None


def get_alltoall(name: str) -> AllToAllAlgorithm:
    try:
        return ALLTOALL_ALGOS[name]
    except KeyError:
        raise KeyError(
            f"unknown All-to-All algorithm {name!r}; registered: "
            f"{alltoall_names()} (or {AUTO!r})") from None


def check_algo(kind: str, name: Optional[str]) -> None:
    """Validate an ``algo`` knob *before* any simulation or cache write.

    ``None`` (the default schedule) and :data:`AUTO` are always valid;
    anything else must be a registered name of the right ``kind``
    (``"allreduce"`` or ``"alltoall"``).  Raises ``KeyError`` with the
    registered names, so a typo'd scenario fails fast instead of
    producing a cache record.
    """
    if name is None or name == AUTO:
        return
    if kind == "allreduce":
        get_allreduce(name)
    elif kind == "alltoall":
        get_alltoall(name)
    else:
        raise ValueError(f"unknown collective kind {kind!r}")


# ---------------------------------------------------------------------------
# Defaults and the size/topology auto-selector
# ---------------------------------------------------------------------------

def default_allreduce(topo: CommTopology) -> str:
    """The legacy schedule (what ``algo=None`` has always meant): the
    paper's direct two-phase AllReduce inside a fully-connected node,
    a ring across nodes."""
    return "direct" if topo.num_nodes == 1 else "ring"


def default_alltoall(topo: CommTopology) -> str:
    """The legacy schedule: the flat RCCL-like everyone-to-everyone."""
    return "flat"


def select_allreduce(topo: CommTopology, nbytes: float) -> str:
    """Size/topology heuristic for ``algo="auto"``.

    * single node — the fully-connected fabric makes the direct
      two-phase schedule both latency- and bandwidth-optimal;
    * small multi-node payloads (<= :data:`TREE_MAX_BYTES`) are
      latency/overhead-bound: stage onto node leaders when there are
      fabric peers to stage over (hierarchical), else take the
      ``log2(p)``-step tree;
    * large payloads are bandwidth-bound, where the ring's ``2(p-1)``
      ``n/p`` chunks are optimal and staging buys nothing.

    Over a column of sizes the names come back as a column.
    """
    if topo.num_nodes == 1:
        return "direct"
    staged = "hier" if topo.gpus_per_node > 1 else "tree"
    return xp_of(nbytes).where(nbytes <= TREE_MAX_BYTES, staged, "ring")


def select_alltoall(topo: CommTopology, chunk_bytes: float) -> str:
    """Size/topology heuristic for ``algo="auto"``.

    * single node — flat over the fully-connected fabric;
    * small multi-node chunks (<= :data:`PAIRWISE_MAX_BYTES`) are
      NIC-message-rate-bound: aggregate per node over the fabric
      (hierarchical, ``gpus_per_node`` times fewer NIC messages) when
      there are fabric peers, else serialize pairwise rounds;
    * large chunks are wire-bound, where flat's full-incast pipeline
      already saturates the NIC and staging only adds a fabric hop.

    Over a column of sizes the names come back as a column.
    """
    if topo.num_nodes == 1:
        return "flat"
    staged = "hier" if topo.gpus_per_node > 1 else "pairwise"
    return xp_of(chunk_bytes).where(chunk_bytes <= PAIRWISE_MAX_BYTES,
                                    staged, "flat")


def _resolve(kind: str, name: Optional[str], topo: CommTopology,
             nbytes: float):
    if name is None:
        name = (default_allreduce(topo) if kind == "allreduce"
                else default_alltoall(topo))
    elif name == AUTO:
        name = (select_allreduce(topo, nbytes) if kind == "allreduce"
                else select_alltoall(topo, nbytes))
        from ..obs.metrics import get_metrics
        m = get_metrics()
        if m.enabled:
            m.inc(f"collectives.auto.{kind}.{name}")
    algo = get_allreduce(name) if kind == "allreduce" else get_alltoall(name)
    reason = algo.supports(topo)
    if reason is not None:
        raise ValueError(
            f"{kind} algorithm {name!r} does not support "
            f"{topo.num_nodes}x{topo.gpus_per_node}: {reason}")
    return algo


def resolve_allreduce(name: Optional[str], topo: CommTopology,
                      nbytes: float) -> AllReduceAlgorithm:
    """Name (or ``None``/``"auto"``) -> a supported algorithm object."""
    return _resolve("allreduce", name, topo, nbytes)


def resolve_alltoall(name: Optional[str], topo: CommTopology,
                     chunk_bytes: float) -> AllToAllAlgorithm:
    """Name (or ``None``/``"auto"``) -> a supported algorithm object."""
    return _resolve("alltoall", name, topo, chunk_bytes)


def algorithm_table() -> List[Tuple[str, str, str]]:
    """(kind, name, summary) rows for the CLI listing."""
    rows = [("allreduce", n, ALLREDUCE_ALGOS[n].summary)
            for n in allreduce_names()]
    rows += [("alltoall", n, ALLTOALL_ALGOS[n].summary)
             for n in alltoall_names()]
    return rows
