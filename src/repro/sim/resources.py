"""Shared-resource primitives for the simulation engine.

Three models cover every piece of hardware in :mod:`repro.hw`:

* :class:`Resource` — a counted semaphore with a FIFO wait queue (compute
  units, DMA engines, NIC queue pairs).
* :class:`FifoChannel` — a store-and-forward server: transfers are serviced
  one at a time at a fixed byte rate, each followed by a fixed latency
  (kernel-launch queues, PCIe-style ordered paths).
* :class:`FairShareLink` — a processor-sharing pipe: all in-flight transfers
  share the link bandwidth equally, which is the standard fluid model for
  xGMI/NVLink-style fabric links and captures the contention effects the
  paper reports for large AllReduce outputs (Fig. 9).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from .engine import PRIORITY_NORMAL, Event, Simulator, SimulationError

__all__ = ["Resource", "FifoChannel", "FairShareLink", "Mailbox"]

# Relative tolerance when deciding a fluid transfer has drained.
_EPS = 1e-9


class Resource:
    """Counted semaphore with FIFO granting order.

    ``request()`` returns an event that triggers when a slot is granted;
    the holder must call ``release()`` exactly once.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def request(self) -> Event:
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiting.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed(self)  # slot transfers directly to the waiter
        else:
            self._in_use -= 1

    def acquire(self):
        """Process helper: ``yield from resource.acquire()``."""
        yield self.request()


class FifoChannel:
    """Single-server store-and-forward channel.

    Each transfer occupies the server for ``nbytes / bandwidth`` seconds (in
    arrival order); its completion event triggers ``latency`` seconds after
    its service ends.  Because service is serialized but the latency is
    pipelined, back-to-back messages see full bandwidth and a single latency
    each — matching a simple wire/DMA model.
    """

    def __init__(self, sim: Simulator, bandwidth: float, latency: float = 0.0,
                 name: str = ""):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._free_at = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0

    def transfer(self, nbytes: float, value: Any = None) -> Event:
        """Schedule ``nbytes`` through the channel; returns completion event."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        now = self.sim.now
        start = max(now, self._free_at)
        service = nbytes / self.bandwidth
        self._free_at = start + service
        done_in = (self._free_at + self.latency) - now
        self.bytes_sent += nbytes
        self.messages_sent += 1
        ev = self.sim.event()
        ev.succeed(value, delay=done_in)
        return ev

    @property
    def busy_until(self) -> float:
        return self._free_at


class _Flow:
    __slots__ = ("target", "event", "value", "nbytes", "start")

    def __init__(self, nbytes: float, event: Event, value: Any, start: float):
        self.nbytes = float(nbytes)
        self.target = 0.0   # cumulative link drain at which this flow is done
        self.event = event
        self.value = value
        self.start = start


class FairShareLink:
    """Processor-sharing fluid link: ``n`` concurrent flows each get ``B/n``.

    This is the model used for intra-node fabric links.  A flow's completion
    event fires when its last byte drains, plus a fixed propagation
    ``latency``.  The link keeps utilization statistics used by the
    benchmark reports.

    Internally flows are tracked against a *cumulative drain counter*: since
    every active flow drains at the same instantaneous rate ``B/n``, a flow
    that starts when the counter reads ``D`` completes when it reads
    ``D + nbytes``.  Advancing the clock is O(1) and the next completion is
    the top of a heap — fused kernels put hundreds of concurrent slices on a
    link, and the previous per-flow decrement loop was the single hottest
    spot in intra-node figure regenerations.

    Every arrival moves the next completion, so the link re-plans its
    deadline often, and most deadlines are superseded before they fire.
    The link therefore *reserves* the engine key ``(time, seq)`` of each
    deadline (:meth:`Simulator.reserve`, drawn exactly when a fresh
    timeout would be) and keeps one armed engine entry at or before it.
    An entry that fires before the live deadline re-arms at the reserved
    key without draining, so the live deadline is processed exactly where
    a per-deadline timeout would be, and a deadline that a later arrival
    supersedes costs nothing.  Only a deadline that moves *earlier* than
    the armed entry pushes a second one.
    """

    def __init__(self, sim: Simulator, bandwidth: float, latency: float = 0.0,
                 name: str = ""):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._heap: list = []        # (target, seq, flow) — next finisher on top
        self._seq = 0
        self._drained = 0.0          # per-flow bytes drained this busy period
        self._last_t = 0.0
        self._due: Optional[tuple] = None   # reserved key of the live deadline
        self._armed: list = []       # keys of this link's engine entries
        self.bytes_sent = 0.0
        self.busy_time = 0.0
        self.transfers = 0

    # -- public API ---------------------------------------------------------
    def transfer(self, nbytes: float, value: Any = None) -> Event:
        """Start a flow of ``nbytes``; returns its completion event."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self.transfers += 1
        ev = self.sim.event()
        if nbytes == 0:
            ev.succeed(value, delay=self.latency)
            return ev
        self._drain_to_now()
        fl = _Flow(nbytes, ev, value, self.sim.now)
        fl.target = self._drained + fl.nbytes
        self._seq += 1
        heapq.heappush(self._heap, (fl.target, self._seq, fl))
        self.bytes_sent += nbytes
        self._reschedule()
        return ev

    @property
    def active_flows(self) -> int:
        return len(self._heap)

    # -- fluid bookkeeping ----------------------------------------------------
    def _drain_to_now(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0 or not self._heap:
            return
        self.busy_time += dt
        self._drained += self.bandwidth / len(self._heap) * dt

    def _reschedule(self) -> None:
        self._due = None
        heap = self._heap
        while heap:
            target, _seq, fl = heap[0]
            rem = target - self._drained
            if rem <= _EPS * max(fl.nbytes, 1.0):
                heapq.heappop(heap)
                fl.event.succeed(fl.value, delay=self.latency)
                continue
            dt = rem * len(heap) / self.bandwidth
            if self.sim.now + dt > self.sim.now:
                due = self._due = self.sim.reserve(dt)
                armed = self._armed
                if not armed or armed[0] > due:
                    self._arm(due)
                return
            # Residue too small for the clock's float resolution to express
            # (epsilon-scale bytes left by cumulative drain rounding):
            # drain it inline and complete, instead of arming a timer that
            # would fire at the same timestamp forever.
            before = self._drained
            self._drained = before + rem
            if self._drained == before:
                # The residue is below the drain counter's own resolution;
                # the flow is done for every observable purpose.
                heapq.heappop(heap)
                fl.event.succeed(fl.value, delay=self.latency)
        # Idle: reset the drain epoch so the counter's float resolution does
        # not degrade over the lifetime of a long simulation.
        self._drained = 0.0

    def _arm(self, key: tuple) -> None:
        heapq.heappush(self._armed, key)
        heapq.heappush(self.sim._heap, (key[0], PRIORITY_NORMAL, key[1], self))

    def _process(self) -> None:
        """Engine callback: the earliest armed entry of this link fired."""
        key = heapq.heappop(self._armed)
        due = self._due
        if due is None:
            return  # the link went idle after this entry was armed
        if key == due:
            self._drain_to_now()
            self._reschedule()
        elif not self._armed or self._armed[0] > due:
            # Fired ahead of a deadline that a later arrival pushed back.
            self._arm(due)


class Mailbox:
    """Unbounded FIFO queue for message passing between processes."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
