"""Execution graphs for scale-out training simulation (ASTRA-Sim style).

A training iteration is a DAG of named nodes, each bound to a resource:

* ``comp`` — the GPU's compute queue,
* ``net`` — the NIC/network engine (collectives),
* ``fused`` — a fused computation-collective kernel, which occupies *both*
  resources for its duration (it is one kernel doing both things).

Independent ``comp`` and ``net`` nodes overlap (that is how baselines hide
weight-gradient AllReduce behind backward compute); nodes on the same
resource serialize in dependency-respecting FIFO order.  This mirrors how
the paper models its fused kernels inside ASTRA-Sim by modifying the
execution graph.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["GraphNode", "ExecutionGraph"]

_RESOURCES = {"comp": ("comp",), "net": ("net",), "fused": ("comp", "net")}


@dataclass(frozen=True)
class GraphNode:
    """One unit of work in the iteration DAG."""

    name: str
    kind: str                 #: "comp" | "net" | "fused"
    duration: float
    deps: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _RESOURCES:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.duration < 0:
            raise ValueError(f"negative duration for {self.name!r}")


class ExecutionGraph:
    """A DAG of :class:`GraphNode` with list scheduling."""

    def __init__(self):
        self._nodes: Dict[str, GraphNode] = {}

    def add(self, name: str, kind: str, duration: float,
            deps: Sequence[str] = ()) -> GraphNode:
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        for d in deps:
            if d not in self._nodes:
                raise ValueError(f"node {name!r} depends on unknown {d!r}")
        node = GraphNode(name, kind, duration, tuple(deps))
        self._nodes[name] = node
        return node

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[GraphNode]:
        return list(self._nodes.values())

    def simulate(self) -> Tuple[float, Dict[str, Tuple[float, float]]]:
        """List-schedule the DAG; returns (makespan, per-node spans).

        Deterministic: among ready nodes, the earliest-startable runs
        first (ties broken by insertion order).  Ready nodes are kept in
        insertion order, each with the time its last dependency ended;
        a node joins them when its count of unmet dependencies reaches
        zero, so a pick scans only the ready nodes.
        """
        free_at = {"comp": 0.0, "net": 0.0}
        done: Dict[str, float] = {}
        spans: Dict[str, Tuple[float, float]] = {}
        order = list(self._nodes.values())
        index = {node.name: i for i, node in enumerate(order)}
        unmet = [len(node.deps) for node in order]
        dependents: List[List[int]] = [[] for _ in order]
        for i, node in enumerate(order):
            for d in node.deps:
                dependents[index[d]].append(i)
        # (insertion index, dependencies' end) of every ready node.
        ready = [(i, 0.0) for i, n in enumerate(unmet) if n == 0]
        for _ in order:
            best = None
            best_start = None
            for pos, (i, dep_end) in enumerate(ready):
                node = order[i]
                start = max([dep_end] + [free_at[r]
                                         for r in _RESOURCES[node.kind]])
                if best_start is None or start < best_start:
                    best, best_i, best_pos, best_start = node, i, pos, start
            if best is None:
                raise ValueError("dependency cycle in execution graph")
            del ready[best_pos]
            end = best_start + best.duration
            for r in _RESOURCES[best.kind]:
                free_at[r] = end
            done[best.name] = end
            spans[best.name] = (best_start, end)
            for j in dependents[best_i]:
                unmet[j] -= 1
                if unmet[j] == 0:
                    dep_end = max((done[d] for d in order[j].deps),
                                  default=0.0)
                    bisect.insort(ready, (j, dep_end))
        return (max(done.values()) if done else 0.0), spans

    def critical_path(self) -> List[str]:
        """Longest dependency chain by duration (diagnostics)."""
        memo: Dict[str, Tuple[float, List[str]]] = {}

        def longest(name: str) -> Tuple[float, List[str]]:
            if name in memo:
                return memo[name]
            node = self._nodes[name]
            best_len, best_path = 0.0, []
            for d in node.deps:
                ln, path = longest(d)
                if ln > best_len:
                    best_len, best_path = ln, path
            memo[name] = (best_len + node.duration, best_path + [name])
            return memo[name]

        best: Tuple[float, List[str]] = (0.0, [])
        for name in self._nodes:
            cand = longest(name)
            if cand[0] > best[0]:
                best = cand
        return best[1]
