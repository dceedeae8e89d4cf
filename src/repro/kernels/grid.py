"""Logical grids and workgroup tasks.

The paper's kernels (both baseline and fused) are expressed as a list of
:class:`WgTask` — one per *logical* workgroup (or per small cluster of
logical WGs folded together via ``repeat``).  A persistent kernel multiplexes
these tasks onto a fixed number of long-running *physical* WGs
(:mod:`repro.kernels.kernel`).

A task carries:

* ``cost`` — the roofline cost of one logical WG (FLOPs + HBM bytes),
* ``compute`` — optional functional effect (NumPy) applied when the task
  executes, so operators are numerically verifiable,
* ``on_complete`` — optional hook (generator) run by the executing physical
  WG right after the task's compute time elapses.  This is where fused
  kernels issue their non-blocking PUTs, set WG-done bits, and wait on
  flags.  Yielding events inside the hook blocks *that physical WG only* —
  exactly the paper's execution model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from ..hw.gpu import Gpu, OccupancyInfo, WgCost
from ..sim import Simulator, TraceRecorder

__all__ = ["WgTask", "SlotContext"]


@dataclass(slots=True)
class WgTask:
    """One schedulable unit of a kernel (a logical WG or WG-cluster)."""

    task_id: int
    cost: WgCost
    repeat: int = 1
    meta: Dict[str, Any] = field(default_factory=dict)
    compute: Optional[Callable[[], None]] = None
    on_complete: Optional[Callable[["SlotContext", "WgTask"],
                                   Optional[Generator]]] = None

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {self.repeat}")

    @property
    def is_remote(self) -> bool:
        """Convention: tasks whose output leaves this GPU set meta['remote']."""
        return bool(self.meta.get("remote", False))


@dataclass(slots=True)
class SlotContext:
    """Execution context handed to task hooks by a physical WG slot."""

    sim: Simulator
    gpu: Gpu
    kernel: "PersistentKernel"
    slot_id: int
    occupancy: OccupancyInfo
    trace: TraceRecorder
    #: Set when the launch's task loop drives this slot (see
    #: :mod:`repro.kernels.kernel`); changes what :meth:`charge` returns.
    task_loop: bool = False

    @property
    def actor(self) -> str:
        return f"{self.gpu.name}/wg{self.slot_id}"

    def charge(self, seconds: float):
        """Spend WG time (API latency, bookkeeping) — yield the result.

        A slot run as its own process (the ``REPRO_SIM_FASTPATH=0``
        reference) gets a :class:`~repro.sim.Timeout` of ``seconds``.  Under
        the launch's task loop it gets the ``(time, seq)`` key that Timeout
        would have had (:meth:`~repro.sim.Simulator.reserve`), and the loop
        puts the wake on its own heap.  Either way the hook resumes at the
        same simulated time and in the same event order; only ``yield``
        the result.
        """
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if self.task_loop:
            return self.sim.reserve(seconds)
        return self.sim.timeout(seconds)

    def record(self, kind: str, **detail) -> None:
        if self.trace.enabled:
            self.trace.record(self.sim.now, kind, self.actor, **detail)
