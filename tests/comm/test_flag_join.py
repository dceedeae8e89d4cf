"""Joined identical flag waits against the per-wait oracle.

:meth:`repro.comm.shmem.FlagArray.wait_all` hands identical pending waits
one shared countdown and event.  The seeded programs here run once with it
and once with :func:`oracles.flag_wait_all_legacy` (one countdown and one
event per wait) and must resume every waiter at the same time and in the
same order, and end at the same ``sim.now``.  They mix N-way identical
waits, overlapping flag sets, ``wait_until``, sets below a waiter's
threshold and several sets at one timestamp, over both engine processes
and the slots of a persistent kernel.
"""

import random

import pytest

from oracles import flag_wait_all_legacy
from repro.comm.shmem import FlagArray
from repro.hw.gpu import Gpu, WgCost
from repro.hw.specs import MI210
from repro.kernels import PersistentKernel, WgTask
from repro.sim import Simulator

RANKS = 2
N_FLAGS = 8
#: Step of every sleep and setter delay, so many events share a timestamp.
TICK = 1e-6


def _program(seed):
    """Build one random program; returns ``(sim, log, launch)``."""
    rng = random.Random(seed)
    sim = Simulator()
    flags = FlagArray(sim, RANKS, N_FLAGS)
    log = []

    def subset():
        return sorted(rng.sample(range(N_FLAGS), rng.randrange(1, 5)))

    # Few distinct flag sets, so identical waits recur and sets overlap.
    pool = [(rng.randrange(RANKS), subset()) for _ in range(3)]

    def raise_flag(rank, idx, value):
        flags.set(rank, idx, max(flags.read(rank, idx), value))

    def random_step(kind=None):
        kind = kind or rng.choice(["all", "all", "until", "sleep", "set"])
        if kind == "sleep":
            return ("sleep", rng.choice([0, 1, 2]))
        rank, idxs = rng.choice(pool)
        return (kind, rank, idxs if kind == "all" else rng.choice(idxs),
                rng.choice([1, 2]))

    def waiter(name, steps):
        for n, step in enumerate(steps):
            kind = step[0]
            if kind == "all":
                yield flags.wait_all(step[1], step[2], step[3])
            elif kind == "until":
                yield flags.wait_until(step[1], step[2], step[3])
            elif kind == "sleep":
                yield sim.timeout(step[1] * TICK)
            else:
                raise_flag(step[1], step[2], step[3])
            log.append((name, n, sim.now))

    # A group of identical waits made back to back at time 0: these join.
    rank, idxs = pool[0]
    value = rng.choice([1, 2])
    for n in range(rng.randrange(2, 5)):
        sim.process(waiter(f"first{n}", [("all", rank, idxs, value)]))
    for n in range(rng.randrange(6, 12)):
        sim.process(waiter(f"w{n}", [random_step()
                                     for _ in range(rng.randrange(2, 6))]))

    # Setters: several sets per timestamp, values below and at every
    # waiter's threshold; the last pass raises every flag to the top.
    def setter(plan):
        for delay, sets in plan:
            yield sim.timeout(delay * TICK)
            for rank, idx, value in sets:
                flags.set(rank, idx, value)
        yield sim.timeout(TICK)
        for rank in range(RANKS):
            for idx in range(N_FLAGS):
                flags.set(rank, idx, 2)

    for _ in range(2):
        plan = [(rng.choice([0, 1, 1, 2]),
                 [(rng.randrange(RANKS), rng.randrange(N_FLAGS),
                   rng.choice([1, 1, 2])) for _ in range(rng.randrange(1, 4))])
                for _ in range(rng.randrange(3, 8))]
        sim.process(setter(plan))

    # A persistent kernel whose hooks and epilogues wait on the same flags.
    gpu = Gpu(sim, MI210, gpu_id=0)
    bcast = pool[1]

    def make_hook(kind, step):
        def hook(ctx, task):
            if kind == "bcast":
                yield flags.wait_all(bcast[0], bcast[1])
            elif kind == "all":
                yield flags.wait_all(step[1], step[2], step[3])
            elif kind == "until":
                yield flags.wait_until(step[1], step[2], step[3])
            elif kind == "set":
                raise_flag(step[1], step[2], step[3])
            else:
                yield ctx.charge(TICK)
            log.append(("hook", task.task_id, sim.now))
        return hook

    costs = [WgCost(bytes=4096.0), WgCost(bytes=65536.0)]
    tasks = []
    for i in range(rng.randrange(20, 40)):
        kind = rng.choice(["none", "bcast", "bcast", "all", "until",
                           "set", "charge"])
        step = random_step(kind) if kind in ("all", "until", "set") else None
        tasks.append(WgTask(
            task_id=i, cost=rng.choice(costs),
            on_complete=None if kind == "none" else make_hook(kind, step)))

    def epilogue(ctx):
        yield flags.wait_all(1, range(N_FLAGS), 2)
        log.append(("epi", ctx.slot_id, sim.now))

    kern = PersistentKernel(gpu, gpu.fused_res, tasks,
                            occupancy_limit=0.05, epilogue=epilogue)
    return sim, log, kern.launch()


def _run(seed):
    sim, log, launch = _program(seed)
    events = 0
    while sim._heap:
        sim.step()
        events += 1
    assert launch.ok
    return log, sim.now, events


@pytest.mark.parametrize("fastpath", ["1", "0"])
@pytest.mark.parametrize("seed", range(24))
def test_joined_waits_match_per_wait_oracle(monkeypatch, seed, fastpath):
    monkeypatch.setenv("REPRO_SIM_FASTPATH", fastpath)
    log, now, events = _run(seed)
    with monkeypatch.context() as m:
        m.setattr(FlagArray, "wait_all", flag_wait_all_legacy)
        legacy_log, legacy_now, legacy_events = _run(seed)
    assert log == legacy_log
    assert now == legacy_now
    # The identical waits at time 0 always join: fewer engine events.
    assert events < legacy_events


def test_join_needs_the_newest_waiter_on_every_flag():
    """A waiter queued in between splits otherwise identical waits."""
    sim = Simulator()
    flags = FlagArray(sim, 1, 4)
    a = flags.wait_all(0, [0, 1])
    assert flags.wait_all(0, [0, 1]) is a
    flags.wait_until(0, 1)
    assert flags.wait_all(0, [0, 1]) is not a
    # A landed flag changes the pending list; a lower value does not count.
    flags.set(0, 2, 1)
    b = flags.wait_all(0, [0, 2, 3], 2)
    assert flags.wait_all(0, [0, 2, 3], 2) is b
    assert flags.wait_all(0, [0, 2, 3], 1) is not b
