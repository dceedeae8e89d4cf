"""The event loop pauses cyclic GC, and the DES leaves no per-event cycles.

:meth:`Simulator.run` disables CPython's automatic cyclic collector for the
duration of its loop and restores the caller's setting on every exit.  That
is only safe while the simulated object graph is freed by reference
counting, so the cycle guard below runs each DES runner at two sizes, with
GC off, and requires both to leave the same count of cyclic garbage: a
per-event or per-task reference cycle would make the larger run leave more.
"""

import gc

import pytest

from repro.experiments.execution import run_scenario
from repro.experiments.specs import ScenarioSpec
from repro.obs.metrics import enable_metrics, reset_metrics
from repro.sim import Simulator


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_on_entry(request):
    """Set the collector's state for the test; put back the old one after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def _ticker(sim, seen, n=3):
    for _ in range(n):
        seen.append(gc.isenabled())
        yield sim.timeout(1.0)


def test_run_pauses_gc_and_restores_it(gc_on_entry):
    sim = Simulator()
    seen = []
    sim.process(_ticker(sim, seen))
    sim.run()
    assert seen == [False, False, False]
    assert gc.isenabled() is gc_on_entry


def test_run_until_restores_gc_state(gc_on_entry):
    sim = Simulator()
    seen = []
    sim.process(_ticker(sim, seen, n=10))
    assert sim.run(until=2.5) == 2.5
    assert gc.isenabled() is gc_on_entry
    assert seen == [False, False, False]
    sim.run()
    assert gc.isenabled() is gc_on_entry
    assert seen == [False] * 10


def test_failed_process_restores_gc_state(gc_on_entry):
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run_process(boom(sim))
    assert gc.isenabled() is gc_on_entry


def test_exception_out_of_loop_restores_gc_state(gc_on_entry):
    sim = Simulator()

    def explode(_event):
        raise RuntimeError("callback failed")

    sim.timeout(1.0).add_callback(explode)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run()
    assert gc.isenabled() is gc_on_entry


def test_nested_run_keeps_outer_pause(gc_on_entry):
    outer = Simulator()
    seen = []

    def outer_proc(sim):
        yield sim.timeout(1.0)
        inner = Simulator()
        inner.process(_ticker(inner, []))
        inner.run()
        seen.append(gc.isenabled())
        yield sim.timeout(1.0)
        seen.append(gc.isenabled())

    outer.process(outer_proc(outer))
    outer.run()
    assert seen == [False, False]
    assert gc.isenabled() is gc_on_entry


_EMBEDDING = dict(slice_vectors=16, num_nodes=1, gpus_per_node=2)

#: (runner, small params, params with at least 4x the engine events)
SIZES = [
    ("gemv_allreduce_pair",
     dict(m=256, n_per_gpu=512, tile_rows=8, world=2),
     dict(m=2048, n_per_gpu=512, tile_rows=8, world=2)),
    ("gemm_a2a_pair",
     dict(tokens=256, model_dim=256, ffn_dim=256, world=2),
     dict(tokens=4096, model_dim=256, ffn_dim=256, world=2)),
] + [
    (runner,
     dict(global_batch=512, tables_per_gpu=2, **_EMBEDDING),
     dict(global_batch=512, tables_per_gpu=16, **_EMBEDDING))
    for runner in ("embedding_a2a_pair", "embedding_fused",
                   "embedding_grad_pair")
]


def _cyclic_garbage(spec):
    """Events processed and cyclic garbage left by one run with GC off.

    The spec runs once first so that process-lifetime caches are warm and
    only the run's own garbage is counted.
    """
    run_scenario(spec)
    registry = enable_metrics()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_scenario(spec)
        garbage = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
        reset_metrics()
    return registry.counters["sim.events_processed"], garbage


@pytest.mark.parametrize("runner,small,large", SIZES,
                         ids=[s[0] for s in SIZES])
def test_cyclic_garbage_does_not_grow_with_events(runner, small, large):
    events_small, garbage_small = _cyclic_garbage(
        ScenarioSpec.make(runner, **small))
    events_large, garbage_large = _cyclic_garbage(
        ScenarioSpec.make(runner, **large))
    assert events_large >= 4 * events_small
    assert garbage_large == garbage_small
