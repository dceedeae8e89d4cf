"""The per-launch task loop against the per-slot reference path.

The task loop keeps every slot wake on the launch's own heap and one proxy
entry on the engine heap (see ``repro.kernels.kernel``).  These tests
stress what that design could get wrong: equal-timestamp wakes, hooks
that block on flags another process sets at random times, ``run(until)``
horizons, and two engine entries sharing a key (which makes ``heapq``
compare the entries' objects and raise ``TypeError``).
"""

import random

import pytest

from repro.comm.shmem import FlagArray
from repro.hw.gpu import Gpu, WgCost
from repro.hw.specs import MI210
from repro.kernels import PersistentKernel, WgTask
from repro.sim import FairShareLink, Simulator

N_FLAGS = 24
BCAST = range(0, N_FLAGS, 4)


def _stress(seed, step_checked=False, horizon=None):
    """Two concurrent launches whose hooks wait on randomly set flags,
    some all on one shared set (identical waits that join).

    Returns every slot's epilogue entry (launch, slot, time) in the order
    the slots reached it, plus each hook's resume (launch, task, time).
    """
    rng = random.Random(seed)
    sim = Simulator()
    flags = FlagArray(sim, 1, N_FLAGS)
    log = []
    # Few distinct durations, so many slots wake at the same timestamps;
    # the long one leaves slots blocked on flags to resume ahead of them.
    costs = [WgCost(bytes=4096.0), WgCost(bytes=8192.0), WgCost(bytes=65536.0)]
    kernels = []
    for k in range(2):
        gpu = Gpu(sim, MI210, gpu_id=k)

        def make_hook(kind, idxs, k=k):
            def hook(ctx, task):
                if kind == "flag":
                    yield flags.wait_until(0, idxs[0])
                    yield ctx.charge(0.0)
                elif kind == "all":
                    yield flags.wait_all(0, idxs)
                elif kind == "bcast":
                    # Every bcast hook polls the same flags: identical
                    # waits that share one event.
                    yield flags.wait_all(0, BCAST)
                elif kind == "charge":
                    yield ctx.charge(0.0)
                    yield ctx.charge(1e-6)
                elif kind == "set":
                    flags.set(0, idxs[0])
                    return
                log.append(("hook", k, task.task_id, sim.now))
            return hook

        tasks = []
        for i in range(rng.randrange(40, 80)):
            kind = rng.choice(["none", "flag", "all", "bcast", "charge",
                               "set"])
            idxs = rng.sample(range(N_FLAGS), rng.randrange(1, 4))
            tasks.append(WgTask(
                task_id=i, cost=rng.choice(costs),
                on_complete=None if kind == "none" else make_hook(kind, idxs)))

        def epilogue(ctx, k=k):
            log.append(("epi", k, ctx.slot_id, sim.now))
            yield flags.wait_all(0, range(ctx.slot_id % 3, N_FLAGS, 3))
            log.append(("done", k, ctx.slot_id, sim.now))

        kernels.append(PersistentKernel(gpu, gpu.fused_res, tasks,
                                        occupancy_limit=rng.choice([0.05, 0.1]),
                                        epilogue=epilogue))
    # The setter's times accumulate task durations the way the slots do,
    # so flag sets land on the slots' own wake timestamps.
    dur = kernels[0].gpu.wg_duration(costs[0], kernels[0].occupancy) \
        + MI210.wg_dispatch_overhead
    order = list(range(N_FLAGS))
    rng.shuffle(order)

    def setter():
        for idx in order:
            for _ in range(rng.choice([0, 1, 2, 4])):
                yield sim.timeout(dur)
            flags.set(0, idx)

    procs = [kern.launch() for kern in kernels]
    sim.process(setter())
    if step_checked:
        heap = sim._heap
        while heap:
            keys = [entry[:3] for entry in heap]
            assert len(set(keys)) == len(keys), "two engine entries share a key"
            sim.step()
    elif horizon is not None:
        until = 0.0
        while sim._heap:
            until += horizon
            sim.run(until=until)
    else:
        sim.run()
    assert all(p.ok for p in procs)
    return log, sim.now


@pytest.mark.parametrize("seed", range(12))
def test_stress_kernel_matches_reference(monkeypatch, seed):
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
    reference = _stress(seed)
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    assert _stress(seed) == reference
    assert _stress(seed, step_checked=True) == reference


@pytest.mark.parametrize("seed", range(4))
def test_run_until_horizons_match_reference(monkeypatch, seed):
    """Inline wakes never run past ``run(until)``."""
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
    reference = _stress(seed)
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    log, _now = _stress(seed, horizon=2.5e-6)
    assert log == reference[0]


def test_failing_hook_after_block_fails_launch():
    """An exception raised after a flag wait still fails the launch."""
    sim = Simulator()
    gpu = Gpu(sim, MI210, gpu_id=0)
    flags = FlagArray(sim, 1, 1)

    def hook(ctx, task):
        yield flags.wait_until(0, 0)
        raise KeyError("late failure")

    kern = PersistentKernel(gpu, gpu.fused_res,
                            [WgTask(task_id=0, cost=WgCost(bytes=1e3),
                                    on_complete=hook)])
    proc = kern.launch()

    def setter():
        yield sim.timeout(1e-3)
        flags.set(0, 0)

    sim.process(setter())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc._value, KeyError)


def test_wait_all_fires_once_when_last_flag_lands():
    sim = Simulator()
    flags = FlagArray(sim, 2, 4)
    flags.set(1, 2)
    ev = flags.wait_all(1, [0, 2, 3])
    fired = []
    ev.add_callback(lambda e: fired.append(sim.now))

    def setter():
        yield sim.timeout(1.0)
        flags.set(1, 3)
        yield sim.timeout(1.0)
        flags.set(1, 0)

    sim.process(setter())
    sim.run()
    assert fired == [2.0]
    done = flags.wait_all(1, [0, 2])
    assert done.triggered


def test_link_superseded_deadlines_cost_no_events(monkeypatch):
    """Arrivals that push a link's deadline back do not leave stale
    timers: the link's engine entries stay within one per completion
    plus one re-arm per arrival."""
    fired = []
    original = FairShareLink._process

    def counting(self):
        fired.append(self.sim.now)
        original(self)

    monkeypatch.setattr(FairShareLink, "_process", counting)
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=1e9)
    done = []

    def arrivals():
        for _ in range(50):
            link.transfer(1e6).add_callback(lambda e: done.append(sim.now))
            yield sim.timeout(1e-5)

    sim.process(arrivals())
    sim.run()
    assert len(done) == 50
    # A timer per re-plan processes 99 link events here (one per arrival
    # plus one per completion, less the one arrival that finds the link
    # idle).  One armed entry per link processes the 50 live deadlines and
    # the one early entry the arrivals pushed back.
    assert len(fired) == 51
    assert len(link._armed) == 0
