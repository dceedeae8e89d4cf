"""Deterministic discrete-event simulation engine.

This is the substrate every hardware model in :mod:`repro.hw` runs on.  It is
a small, dependency-free engine in the style of SimPy: *processes* are Python
generators that ``yield`` :class:`Event` objects and are resumed when those
events trigger.  Determinism is guaranteed by a strict ``(time, priority,
sequence)`` ordering of the event heap — two runs of the same model with the
same seeds produce identical traces, which the reproduction relies on.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)
        return 42

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == 42
    assert sim.now == 5.0

:meth:`Simulator.run` pauses CPython's automatic cyclic garbage collector
while its event loop runs and restores the caller's setting on exit.  A
simulation allocates many short-lived objects (timeouts, heap entries, task
closures), so allocation counts alone trigger frequent collections, and each
one walks every live event and task only to find almost nothing: the DES
object graph is freed by reference counting.  A run leaves a small, fixed
amount of cyclic garbage per runner, whatever its size, which the first
collection after the loop frees.  ``tests/sim/test_engine_gc.py`` enforces
that bound, so a per-event or per-task reference cycle fails the suite
instead of growing memory.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
    "Interrupt",
]

#: Lazily-bound :func:`repro.obs.metrics.get_metrics` — the sim core must
#: not import the observability package at module load (obs sits above sim
#: in the layering), and the indirection costs one global test per
#: :meth:`Simulator.run` call.
_get_metrics: Optional[Callable] = None


def _metrics():
    global _get_metrics
    if _get_metrics is None:
        from ..obs.metrics import get_metrics
        _get_metrics = get_metrics
    return _get_metrics()


#: Scheduling priority for ordinary events.
PRIORITY_NORMAL = 1
#: Priority for events that must run before normal events at the same time
#: (used by resource releases so a release at time t is visible to a request
#: scheduled at the same t).
PRIORITY_URGENT = 0


class SimulationError(RuntimeError):
    """Raised for structural errors in a simulation (e.g. deadlock)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence within a simulation.

    An event starts *untriggered*; calling :meth:`succeed` (or :meth:`fail`)
    schedules it onto the simulator's event heap, after which all registered
    callbacks run at the scheduled simulation time.  Events may carry a
    ``value`` which yielding processes receive as the result of ``yield``.

    The callback list is created lazily on the first :meth:`add_callback` —
    most events in a large simulation (timeouts consumed by exactly one
    process) never need more than one, and many (batched kernel steps) none
    at all until they are yielded on.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = None
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (value is final)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event is undefined")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to trigger successfully after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to trigger with a failure."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._schedule(self, delay=delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (this makes waiting on already-completed events safe).
        """
        if self._processed:
            fn(self)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__ — timeouts are the most-allocated object in
        # a simulation and the extra super() call is measurable.
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        sim._schedule(self, delay=delay)


class _Trigger:
    """Minimal already-succeeded schedulable: runs one callback when popped.

    Used to bootstrap processes without paying for a full :class:`Event`
    (callback list, triggered/processed bookkeeping).  Quacks like a
    processed successful event as far as :meth:`Process._resume` cares.
    """

    __slots__ = ("_callback",)

    _ok = True
    _value: Any = None

    def __init__(self, callback: Callable[["_Trigger"], None]):
        self._callback = callback

    def _process(self) -> None:
        self._callback(self)


class Process(Event):
    """A running generator coroutine; also an event that triggers on return.

    The wrapped generator may ``yield`` any :class:`Event`; the process is
    suspended until that event triggers, at which point the event's value is
    sent into the generator (or its exception thrown, if the event failed).
    When the generator returns, the process event succeeds with the returned
    value.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Bootstrap: resume once at the current time.
        sim._schedule(_Trigger(self._resume))

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a completed process")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        hit = Event(self.sim)
        hit._ok = False
        hit._value = Interrupt(cause)
        hit._triggered = True
        self.sim._schedule(hit, priority=PRIORITY_URGENT)
        hit.add_callback(self._resume)

    def _resume(self, trigger: Event) -> None:
        self._target = None
        try:
            if trigger._ok:
                nxt = self.generator.send(trigger._value)
            else:
                nxt = self.generator.throw(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(nxt, Event):
            err = SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}")
            try:
                self.generator.throw(err)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:
                self.fail(exc)
            return
        if nxt.sim is not self.sim:
            self.fail(SimulationError("event belongs to another simulator"))
            return
        self._target = nxt
        nxt.add_callback(self._resume)


class _ConditionBase(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
        else:
            for ev in self.events:
                ev.add_callback(self._check)

    def _collect(self) -> dict:
        # Building the event->value dict is pure overhead in the (dominant)
        # case where no component event carries a value — the kernel/collective
        # layers use conditions purely as barriers.  Only collect when there
        # is actually a value to deliver.
        for ev in self.events:
            if ev._processed and ev._ok and ev._value is not None:
                return {e: e._value
                        for e in self.events if e._processed and e._ok}
        return {}

    def _check(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_ConditionBase):
    """Triggers when *all* component events have triggered successfully."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_ConditionBase):
    """Triggers when *any* component event triggers successfully."""

    __slots__ = ()

    def _collect(self) -> dict:
        # Unlike AllOf (where every component is in the dict by the time it
        # fires), AnyOf's dict identifies *which* event(s) won — so events
        # with a None value must still be collected.
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self.succeed(self._collect())


class Simulator:
    """Owns the simulated clock and the event heap."""

    def __init__(self):
        self._now: float = 0.0
        self._heap: list = []
        self._seq = 0
        #: Horizon of the current :meth:`run` call.  Participants that
        #: process their own wakes inline (the kernel task loop) must not
        #: advance the clock past it.
        self._until: float = float("inf")

    @property
    def now(self) -> float:
        """Current simulation time (seconds, by library convention)."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event (trigger manually with ``succeed``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that triggers at the *absolute* time ``when``.

        Unlike ``timeout(when - now)``, the trigger time is exactly ``when``
        — no float round-trip through a delay.  The batched kernel fast path
        relies on this to land on the same timestamps the per-task slow path
        produces by repeated ``now + dur`` accumulation.
        """
        if when < self._now:
            raise ValueError(f"timeout_at({when}) is in the past "
                             f"(now={self._now})")
        ev = Event(self)
        ev._triggered = True
        ev._value = value
        self._seq += 1
        heapq.heappush(self._heap, (when, PRIORITY_NORMAL, self._seq, ev))
        return ev

    def reserve(self, delay: float) -> tuple:
        """Draw the ``(time, seq)`` key a :meth:`timeout` of ``delay``
        created now would get, without scheduling anything.

        Participants that keep their own wake heap (the kernel task loop,
        :class:`~repro.sim.resources.FairShareLink`) reserve keys this way,
        so every entry they later put on the engine heap orders exactly
        where the equivalent :class:`Timeout` would have.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self._seq += 1
        return (self._now + delay, self._seq)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = PRIORITY_NORMAL) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on empty schedule")
        t, _prio, _seq, event = heapq.heappop(self._heap)
        if t < self._now:  # pragma: no cover - guarded by construction
            raise SimulationError("time ran backwards")
        self._now = t
        event._process()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the schedule drains or ``until`` is reached.

        Returns the final simulation time.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        self._until = end = float("inf") if until is None else until
        # The event loop is the single hottest function in the library; it is
        # deliberately inlined (no step() call, hoisted locals) — worth ~15%
        # of end-to-end figure-regeneration time.  Events processed and the
        # heap peak are counted in locals and reach the run-metrics registry
        # only when it is live; the bookkeeping may count, never reorder.
        #
        # Automatic cyclic GC is paused for the loop: the events, tasks and
        # closures it allocates are freed by reference counting, so the
        # collector's passes over the live graph find nothing (see the module
        # docstring).  The state on entry is restored on every exit, so a
        # nested run or a caller that already disabled GC keeps its own.
        heap = self._heap
        pop = heapq.heappop
        n = 0
        peak = len(heap)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while heap:
                if heap[0][0] > end:
                    break
                if len(heap) > peak:
                    peak = len(heap)
                t, _prio, _seq, event = pop(heap)
                self._now = t
                event._process()
                n += 1
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None:
            self._now = until
        m = _metrics()
        if m.enabled:
            m.inc("sim.events_processed", n)
            m.gauge_max("sim.heap_peak", peak)
        return self._now

    def run_process(self, generator: Generator, name: Optional[str] = None) -> Any:
        """Convenience: start a process, run to completion, return its value.

        Raises the process's exception if it failed, and
        :class:`SimulationError` if the schedule drained before the process
        finished (deadlock).
        """
        proc = self.process(generator, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"deadlock: process {proc.name!r} never completed")
        if not proc.ok:
            raise proc._value
        return proc.value
