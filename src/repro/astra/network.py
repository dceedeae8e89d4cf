"""2D-torus network model for the scale-out simulator (paper Table II).

Analytic collective-time models in the ASTRA-Sim style: a node has one
bidirectional link per torus direction (4 in 2D), each at 200 Gb/s with
700 ns hop latency.

* **AllReduce** uses per-dimension rings (the standard torus algorithm):
  ring reduce-scatter + all-gather along X, then along Y.
* **All-to-All** is contention-dominated: every node exchanges with every
  other node, and packets traverse ``avg_hops`` links, multiplying the
  traffic each physical link carries.  ``alltoall_efficiency`` captures the
  additional loss from many-to-many link contention (calibrated once so the
  128-node DLRM baseline exposes the All-to-All fraction reported for
  production systems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..models.configs import TorusNetworkConfig

__all__ = ["TorusNetwork"]

#: Fraction of per-link bandwidth an all-to-all sustains under many-to-many
#: contention on a torus (calibration constant, see the module docstring).
ALLTOALL_EFFICIENCY = 0.42


@dataclass
class TorusNetwork:
    """A ``dim_x``-by-``dim_y`` torus of nodes."""

    dim_x: int
    dim_y: int
    cfg: TorusNetworkConfig
    alltoall_efficiency: float = ALLTOALL_EFFICIENCY

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("torus dimensions must be >= 1")
        if not (0.0 < self.alltoall_efficiency <= 1.0):
            raise ValueError("alltoall_efficiency must be in (0, 1]")
        self.cfg.validate()

    @classmethod
    def square_ish(cls, num_nodes: int,
                   cfg: TorusNetworkConfig) -> "TorusNetwork":
        """Factor ``num_nodes`` into the most square 2D torus."""
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        x = int(math.sqrt(num_nodes))
        while num_nodes % x:
            x -= 1
        return cls(dim_x=num_nodes // x, dim_y=x, cfg=cfg)

    @property
    def num_nodes(self) -> int:
        return self.dim_x * self.dim_y

    def avg_hops(self) -> float:
        """Mean shortest-path hop count between random nodes."""

        def dim_avg(d: int) -> float:
            if d == 1:
                return 0.0
            return sum(min(k, d - k) for k in range(d)) / d

        return max(dim_avg(self.dim_x) + dim_avg(self.dim_y), 1.0)

    # -- collectives ---------------------------------------------------------
    def allreduce_time(self, nbytes: float) -> float:
        """Per-dimension ring reduce-scatter + all-gather."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.num_nodes == 1 or nbytes == 0:
            return 0.0
        bw = self.cfg.link_bandwidth
        lat = self.cfg.link_latency
        total = 0.0
        remaining = float(nbytes)
        for d in (self.dim_x, self.dim_y):
            if d == 1:
                continue
            steps = 2 * (d - 1)
            total += steps * (remaining / d / bw + lat)
            remaining /= d  # the next dimension reduces scattered chunks
        return total

    def alltoall_time(self, recv_bytes_per_node: float) -> float:
        """Full-exchange All-to-All with hop-multiplied link traffic."""
        if recv_bytes_per_node < 0:
            raise ValueError("recv_bytes_per_node must be >= 0")
        p = self.num_nodes
        if p == 1 or recv_bytes_per_node == 0:
            return 0.0
        remote = recv_bytes_per_node * (p - 1) / p
        link_traffic = remote * self.avg_hops() / self.cfg.links_per_node
        bw = self.cfg.link_bandwidth * self.alltoall_efficiency
        return link_traffic / bw + (p - 1) * self.cfg.link_latency
