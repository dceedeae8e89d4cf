"""Persistent-workgroup kernel runtime.

Implements the paper's execution model (Section III-A): a kernel is launched
with a *fixed, input-independent grid* of physical workgroups (at most the
device's occupancy limit).  Each physical WG runs a task loop, executing
logical-WG tasks pulled from a shared queue; after each task it runs the
task's ``on_complete`` hook (where fused kernels issue communication), and
after the queue drains it runs the kernel's per-slot ``epilogue`` (where
fused kernels poll their subset of ``sliceRdy`` flags).

The same runtime executes baseline compute kernels — with no hooks, it is
timing-equivalent to an ordinary bulk-synchronous launch under this model.

Fast path
---------

All physical WGs of a launch run as **one engine participant**, the task
loop (:class:`_TaskLoop`), instead of one engine process per WG:

* Each slot's wakes (a task's compute time elapsing, a hook's
  :meth:`~repro.kernels.grid.SlotContext.charge`) sit on the launch's own
  heap, keyed ``(time, seq)``.  The ``seq`` is drawn from the simulator's
  counter (:meth:`~repro.sim.Simulator.reserve`) at the moment a
  per-slot :class:`~repro.sim.Timeout` would draw it, so a wake orders
  against every engine event exactly as that timeout would.
* The launch keeps one proxy entry on the engine heap, at its earliest
  wake's key (a second one only while a slot resumed by an event has
  queued a wake ahead of the armed one).  When a proxy pops, the loop runs
  wakes inline for as long as they come before the engine heap's top and
  within ``run(until)``, then re-arms.  A wake is only ever consumed
  inline (never armed) or by its own proxy, so no proxy goes stale and no
  two engine entries share a key.
* Hooks and epilogues are generators stepped only while a slot is inside
  them.  A yielded event (a flag wait) resumes the slot from that event's
  callback.  Slot completion is a counter; the launch's ``done`` event
  fires when it reaches zero.  An exception from ``compute``,
  ``on_complete`` or a hook fails the launch.

A fully *uniform* kernel (every task identical, hook- and compute-free, no
tracing) skips even that: greedy pulls from the shared queue are exactly
round-robin, so slot ``s`` of ``n`` executes ``ceil((R - s) / n)`` tasks
back to back, and the end time replays the per-task ``now + dur`` float
accumulation and is scheduled absolutely.

Simulated results are bit-identical to the reference path, which runs each
slot as its own :class:`~repro.sim.Process` and every wake as an engine
event.  Set ``REPRO_SIM_FASTPATH=0`` in the environment to select it; the
equivalence tests compare the two.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Generator, List, Optional, Sequence

from ..hw.gpu import (
    Gpu,
    KernelResources,
    OccupancyInfo,
    WgCost,
    persistent_occupancy,
    task_time,
)
from ..obs.metrics import get_metrics
from ..sim import Event, Process, SimulationError, Simulator, TraceRecorder
from ..sim.engine import PRIORITY_NORMAL
from .grid import SlotContext, WgTask

__all__ = ["PersistentKernel", "run_kernel", "make_uniform_tasks",
           "fastpath_enabled"]

def fastpath_enabled() -> bool:
    """Whether the fast path is active (``REPRO_SIM_FASTPATH``; see above).

    Consulted at every kernel launch, so flipping the environment variable
    mid-process (e.g. from a test) takes effect immediately.
    """
    return os.environ.get("REPRO_SIM_FASTPATH", "1") != "0"


class PersistentKernel:
    """A persistent kernel bound to one GPU, ready to launch."""

    def __init__(self, gpu: Gpu, resources: KernelResources,
                 tasks: Sequence[WgTask], name: str = "kernel",
                 occupancy_limit: Optional[float] = None,
                 epilogue: Optional[Callable[[SlotContext],
                                             Optional[Generator]]] = None,
                 trace: Optional[TraceRecorder] = None):
        """
        Args:
            occupancy_limit: optional fraction in (0, 1] of the kernel's own
                achievable occupancy; persistent kernels choose their grid
                size, which is the knob of the paper's Fig. 13 sweep.
            epilogue: per-physical-WG generator run after the task queue
                drains (e.g. waiting on a distinct subset of sliceRdy flags).
        """
        if not tasks:
            raise ValueError("kernel needs at least one task")
        self.gpu = gpu
        self.sim: Simulator = gpu.sim
        self.resources = resources
        self.tasks = list(tasks)
        self.name = name
        self.epilogue = epilogue
        self.trace = trace if trace is not None else gpu.trace
        # Zero-cost bookkeeping tasks do not drive the grid size.
        n_work = sum(1 for t in self.tasks
                     if t.cost.flops > 0 or t.cost.bytes > 0)
        self.occupancy: OccupancyInfo = persistent_occupancy(
            gpu, resources, len(self.tasks), n_work=n_work,
            occupancy_limit=occupancy_limit)
        self.n_slots = min(self.occupancy.resident_wgs, len(self.tasks))

    # -- execution ------------------------------------------------------------
    def launch(self) -> Process:
        """Launch the kernel; returns the process that completes with it."""
        return self.sim.process(self.run(), name=self.name)

    def run(self) -> Generator:
        """Generator form, for composing inside an existing process."""
        spec = self.gpu.spec
        if self.trace.enabled:
            self.trace.record(self.sim.now, "kernel_launch", self.gpu.name,
                              kernel=self.name, n_tasks=len(self.tasks),
                              n_slots=self.n_slots,
                              occupancy=self.occupancy.fraction)
        yield self.sim.timeout(spec.kernel_launch_overhead)
        m = get_metrics()
        if m.enabled:
            m.inc("kernel.launches")
            m.inc("kernel.tasks", len(self.tasks))
        if not fastpath_enabled():
            yield from self._run_reference()
        elif (not self.trace.enabled and self.n_slots > 1
              and self._tasks_uniform_batchable()):
            if m.enabled:
                m.inc("kernel.fastpath_uniform_kernels")
                m.inc("kernel.fastpath_uniform_tasks", len(self.tasks))
            yield from self._run_uniform_fast()
        else:
            yield _TaskLoop(self).done
        if self.trace.enabled:
            self.trace.record(self.sim.now, "kernel_end", self.gpu.name,
                              kernel=self.name)

    def _tasks_uniform_batchable(self) -> bool:
        """True if every task is identical, hook-free and compute-free."""
        first = self.tasks[0]
        if first.on_complete is not None or first.compute is not None:
            return False
        cost, repeat = first.cost, first.repeat
        for t in self.tasks:
            if (t.on_complete is not None or t.compute is not None
                    or t.repeat != repeat
                    or not (t.cost is cost or t.cost == cost)):
                return False
        return True

    def _run_uniform_fast(self) -> Generator:
        """Fast-forward a fully uniform kernel without per-task events.

        Greedy pulls from the shared queue are round-robin here, so slot
        ``s`` executes ``q + 1`` tasks if ``s < r`` else ``q`` (with ``q, r
        = divmod(n_tasks, n_slots)``), back to back.  End times replay the
        per-task ``now + dur`` float accumulation exactly.
        """
        sim = self.sim
        first = self.tasks[0]
        dur = task_time(self.gpu, first.cost, self.occupancy, first.repeat)
        q, r = divmod(len(self.tasks), self.n_slots)
        if self.epilogue is None:
            # Only the joint finish is observable: the slot(s) with the
            # largest task count end last.
            end = sim.now
            for _ in range(q + (1 if r else 0)):
                end += dur
            yield sim.timeout_at(end)
            return
        slots = [
            self.sim.process(
                self._slot_fast(SlotContext(self.sim, self.gpu, self,
                                            slot_id=s, occupancy=self.occupancy,
                                            trace=self.trace),
                                q + (1 if s < r else 0), dur),
                name=f"{self.name}/slot{s}")
            for s in range(self.n_slots)
        ]
        yield self.sim.all_of(slots)

    def _slot_fast(self, ctx: SlotContext, count: int, dur: float) -> Generator:
        sim = self.sim
        end = sim.now
        for _ in range(count):
            end += dur
        yield sim.timeout_at(end)
        epi = self.epilogue(ctx)
        if epi is not None:
            yield from epi

    def _run_reference(self) -> Generator:
        """Each slot as its own engine process, every wake an engine event:
        the ``REPRO_SIM_FASTPATH=0`` reference the task loop is held to."""
        queue = deque(self.tasks)
        slots = [
            self.sim.process(
                self._slot_loop(
                    SlotContext(self.sim, self.gpu, self,
                                slot_id=s, occupancy=self.occupancy,
                                trace=self.trace), queue),
                name=f"{self.name}/slot{s}")
            for s in range(self.n_slots)
        ]
        yield self.sim.all_of(slots)

    def _slot_loop(self, ctx: SlotContext, queue: deque) -> Generator:
        sim = self.sim
        occ = self.occupancy
        wg_duration = self.gpu.wg_duration
        dispatch = self.gpu.spec.wg_dispatch_overhead
        tracing = self.trace.enabled
        popleft = queue.popleft
        while queue:
            task = popleft()
            if tracing:
                ctx.record("wg_start", task=task.task_id, **task.meta)
            if task.compute is not None:
                task.compute()
            yield sim.timeout(
                task.repeat * (wg_duration(task.cost, occ) + dispatch))
            if tracing:
                ctx.record("wg_end", task=task.task_id)
            if task.on_complete is not None:
                hook = task.on_complete(ctx, task)
                if hook is not None:
                    yield from hook
        if self.epilogue is not None:
            epi = self.epilogue(ctx)
            if epi is not None:
                ctx.record("wait_start")
                yield from epi
                ctx.record("wait_end")


class _Slot:
    """One physical WG inside a :class:`_TaskLoop`."""

    __slots__ = ("loop", "ctx", "task", "gen", "in_epilogue")

    def __init__(self, loop: "_TaskLoop", ctx: SlotContext):
        self.loop = loop
        self.ctx = ctx
        self.task: Optional[WgTask] = None   # task whose compute time runs
        self.gen: Optional[Generator] = None  # hook or epilogue being stepped
        self.in_epilogue = False

    def on_event(self, ev: Event) -> None:
        """Callback of an event a hook or epilogue yielded."""
        loop = self.loop
        if loop.failed:
            return
        try:
            if ev._ok:
                loop.advance(self, ev._value, None)
            else:
                loop.advance(self, None, ev._value)
        except BaseException as exc:
            loop.fail(exc)
            return
        loop.arm()


class _TaskLoop:
    """All physical WGs of one launch as a single engine participant.

    See the module docstring ("Fast path") for the ordering argument.
    Engine entries are ``(time, PRIORITY_NORMAL, seq, self)``; the engine
    calls :meth:`_process` when one pops.
    """

    __slots__ = ("kernel", "sim", "queue", "wakes", "armed", "live", "done",
                 "failed", "durs")

    def __init__(self, kernel: PersistentKernel):
        sim = self.sim = kernel.sim
        self.kernel = kernel
        self.queue = deque(kernel.tasks)
        self.wakes: list = []    # (time, seq, slot): this launch's wake heap
        self.armed: list = []    # (time, seq) of this launch's engine entries
        self.live = kernel.n_slots
        self.done = sim.event()
        self.failed = False
        self.durs: dict = {}     # id(cost) -> one repeat's duration
        # Each slot starts where its process bootstrap would have run.
        for s in range(kernel.n_slots):
            ctx = SlotContext(sim, kernel.gpu, kernel, slot_id=s,
                              occupancy=kernel.occupancy, trace=kernel.trace,
                              task_loop=True)
            t, seq = sim.reserve(0.0)
            self.wakes.append((t, seq, _Slot(self, ctx)))
        self.arm()

    # -- engine interface -----------------------------------------------------
    def arm(self) -> None:
        """Keep an engine entry at the earliest wake's key."""
        wakes = self.wakes
        if wakes:
            t, seq, _slot = wakes[0]
            armed = self.armed
            # Every armed key belongs to a pending wake, so if the earliest
            # wake is armed it is the earliest armed key.
            if not armed or armed[0][1] != seq:
                heappush(armed, (t, seq))
                heappush(self.sim._heap, (t, PRIORITY_NORMAL, seq, self))

    def _process(self) -> None:
        """Engine callback: run wakes inline while they precede the heap."""
        heappop(self.armed)
        if self.failed:
            return
        sim = self.sim
        wakes = self.wakes
        heap = sim._heap
        until = sim._until
        advance = self.advance
        try:
            while True:
                t, _seq, slot = heappop(wakes)
                sim._now = t
                advance(slot, None, None)
                if not wakes:
                    break
                t, seq, _slot = wakes[0]
                if t > until:
                    break
                if heap:
                    top = heap[0]
                    # ``<=`` on seq: an equal key is this wake's own proxy,
                    # which must consume it.
                    if top[0] < t or (top[0] == t and (
                            top[1] < PRIORITY_NORMAL
                            or (top[1] == PRIORITY_NORMAL and top[2] <= seq))):
                        break
        except BaseException as exc:
            self.fail(exc)
            return
        self.arm()

    def fail(self, exc: BaseException) -> None:
        self.failed = True
        self.wakes.clear()
        if not self.done._triggered:
            self.done.fail(exc)

    # -- slot stepping --------------------------------------------------------
    def advance(self, slot: _Slot, value, exc) -> None:
        """Run ``slot`` until it waits on a wake or an event, or finishes.

        Called for a wake (``value`` and ``exc`` None) or with the outcome
        of the event the slot's generator yielded.
        """
        kernel = self.kernel
        ctx = slot.ctx
        tracing = ctx.trace.enabled
        gen = slot.gen
        while True:
            if gen is not None:
                try:
                    if exc is None:
                        nxt = gen.send(value)
                    else:
                        nxt = gen.throw(exc)
                except StopIteration:
                    gen = slot.gen = None
                    if slot.in_epilogue:
                        if tracing:
                            ctx.record("wait_end")
                        break
                else:
                    if type(nxt) is tuple:
                        # A charge: its reserved (time, seq) key.
                        heappush(self.wakes, (nxt[0], nxt[1], slot))
                        return
                    if isinstance(nxt, Event) and nxt.sim is self.sim:
                        if not nxt._processed:
                            nxt.add_callback(slot.on_event)
                            return
                        if nxt._ok:
                            value, exc = nxt._value, None
                        else:
                            value, exc = None, nxt._value
                    else:
                        value, exc = None, SimulationError(
                            f"slot {ctx.actor} yielded non-event {nxt!r}")
                    continue
            else:
                task = slot.task
                if task is not None:
                    # The task's compute time has elapsed.
                    slot.task = None
                    if tracing:
                        ctx.record("wg_end", task=task.task_id)
                    if task.on_complete is not None:
                        gen = task.on_complete(ctx, task)
                        if gen is not None:
                            slot.gen = gen
                            value = exc = None
                            continue
            queue = self.queue
            if queue:
                task = slot.task = queue.popleft()
                if tracing:
                    ctx.record("wg_start", task=task.task_id, **task.meta)
                if task.compute is not None:
                    task.compute()
                cost = task.cost
                unit = self.durs.get(id(cost))
                if unit is None:
                    unit = self.durs[id(cost)] = (
                        kernel.gpu.wg_duration(cost, kernel.occupancy)
                        + kernel.gpu.spec.wg_dispatch_overhead)
                # Inlined Simulator.reserve: the key of a per-task timeout.
                sim = self.sim
                sim._seq += 1
                heappush(self.wakes, (sim._now + task.repeat * unit,
                                      sim._seq, slot))
                return
            if kernel.epilogue is None or slot.in_epilogue:
                break
            slot.in_epilogue = True
            gen = kernel.epilogue(ctx)
            if gen is None:
                break
            slot.gen = gen
            value = exc = None
            if tracing:
                ctx.record("wait_start")
        self.live -= 1
        if self.live == 0:
            self.done.succeed()


def make_uniform_tasks(n: int, cost: WgCost, repeat: int = 1,
                       **meta) -> List[WgTask]:
    """``n`` identical tasks (typical regular kernels)."""
    if n < 1:
        raise ValueError("need at least one task")
    return [WgTask(task_id=i, cost=cost, repeat=repeat, meta=dict(meta))
            for i in range(n)]


def run_kernel(gpu: Gpu, resources: KernelResources, tasks: Sequence[WgTask],
               name: str = "kernel",
               trace: Optional[TraceRecorder] = None) -> Generator:
    """Convenience: execute a plain bulk-synchronous kernel (no hooks)."""
    kern = PersistentKernel(gpu, resources, tasks, name=name, trace=trace)
    yield from kern.run()
