"""Sweep execution: cache lookup, parallel sharding, result assembly.

:func:`run_sweep` is the subsystem's engine room.  For every scenario in a
sweep it first consults the content-addressed store; only the misses are
executed.  Analytic-backend misses whose runner the vectorized mega-batch
engine supports are evaluated in one NumPy call (bit-identical to the
scalar path, toggled by ``REPRO_BATCH``); whatever remains is sharded
across spawn-safe worker processes (``workers > 1``) or run inline (the
serial fallback, also used for single misses).  Scenario
results are canonicalized to what a JSON round trip returns *before* any
consumer sees them, so the serial, parallel, and cached paths all yield
byte-identical downstream reports.

Worker processes are started with the ``spawn`` method: each re-imports
the registry and resolves the runner by name, so no simulator state leaks
between scenarios and the parent's interpreter state is irrelevant.
Scenario order in the sweep is preserved regardless of completion order.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..obs.metrics import get_metrics
from .registry import call_runner, ensure_registered, get_assembler, get_sweep
from .specs import ScenarioSpec, SweepSpec
from .store import ResultStore

__all__ = ["ScenarioOutcome", "SweepRun", "run_scenario", "run_sweep",
           "default_workers", "batch_enabled"]

#: Callback signature: ``progress(done, total, outcome)``.
ProgressFn = Callable[[int, int, "ScenarioOutcome"], None]


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's result plus its provenance."""

    spec: ScenarioSpec
    key: str
    result: Dict[str, Any]
    cached: bool                    #: served from the store, no simulation


@dataclass
class SweepRun:
    """A completed sweep: per-scenario outcomes plus the assembled figure."""

    sweep: SweepSpec
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    _figure: Any = field(default=None, repr=False, compare=False)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    def figure(self):
        """The sweep's :class:`FigureResult` (assembled once, then reused)."""
        if self._figure is None:
            fn = get_assembler(self.sweep.assembler)
            self._figure = fn(self.sweep, [o.spec for o in self.outcomes],
                              [o.result for o in self.outcomes],
                              **self.sweep.assembler_params)
        return self._figure

    def report(self) -> Dict[str, Any]:
        from .report import build_report
        return build_report(self)


class _NotPlainJson(Exception):
    """A value :func:`_plain_copy` leaves to the JSON round trip."""


#: Containers nested deeper than this take the JSON round trip, which
#: also turns a circular reference into its ``ValueError``.
_MAX_PLAIN_DEPTH = 32
#: Ints at least this large take the JSON round trip, which enforces the
#: interpreter's limit on int-to-string conversion.
_PLAIN_INT_LIMIT = 1 << 63


def _plain_copy(value: Any, depth: int) -> Any:
    """What ``json.loads(json.dumps(value))`` returns, built directly, for
    plain JSON values: str-keyed dicts, lists, tuples and exact ``str``,
    ``int``, ``float``, ``bool`` and ``None``.  Raises
    :class:`_NotPlainJson` on anything else."""
    t = type(value)
    if t is float:
        return value if value == value else math.nan
    if t is str or t is bool or value is None:
        return value
    if t is int:
        if -_PLAIN_INT_LIMIT < value < _PLAIN_INT_LIMIT:
            return value
        raise _NotPlainJson
    if depth >= _MAX_PLAIN_DEPTH:
        raise _NotPlainJson
    if t is dict:
        out = {}
        for k, v in value.items():
            if type(k) is not str:
                raise _NotPlainJson
            # Most metrics are finite floats: no call for them.
            out[k] = (v if type(v) is float and v == v
                      else _plain_copy(v, depth + 1))
        return out
    if t is list or t is tuple:
        return [_plain_copy(v, depth + 1) for v in value]
    raise _NotPlainJson


def _canonical_result(result: Any) -> Dict[str, Any]:
    """JSON round-trip a runner's result so every execution path (inline,
    worker process, cache file) yields the identical Python object.

    Plain JSON values are copied structurally, to the same object the
    round trip returns; anything else takes the round trip itself, so it
    converts and raises exactly as before.
    """
    if not isinstance(result, dict):
        raise TypeError(
            f"runner must return a dict of JSON-able metrics, "
            f"got {type(result).__name__}")
    try:
        return _plain_copy(result, 0)
    except _NotPlainJson:
        return json.loads(json.dumps(result))


def run_scenario(spec: ScenarioSpec) -> Dict[str, Any]:
    """Execute one scenario inline; returns its canonicalized result."""
    ensure_registered()
    return _canonical_result(call_runner(spec))


def _worker_run(spec: ScenarioSpec) -> Dict[str, Any]:
    """Spawn-safe worker entry point (module-level, picklable)."""
    return run_scenario(spec)


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (default: serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    except ValueError:
        return 1


def batch_enabled() -> bool:
    """Vectorized fast path toggle (``REPRO_BATCH=0`` forces scalar)."""
    return os.environ.get("REPRO_BATCH", "1") != "0"


def _run_batch_misses(sweep: SweepSpec, misses: List[int],
                      record: Callable[[int, Dict[str, Any]], None]
                      ) -> List[int]:
    """Evaluate analytic cache misses through the vectorized mega-batch
    engine (:mod:`repro.analytic.batch`); returns the miss indices the
    engine did not cover (they fall through to the pool/serial path).

    Only scenarios pinned to the analytic backend are eligible — the
    batch engine runs the scalar closed forms themselves over columns, so
    records, store keys, and downstream reports are unchanged; this is
    purely an execution strategy.
    """
    from ..analytic.batch import batch_supported, evaluate_batch_records
    by_runner: Dict[str, List[int]] = {}
    for i in misses:
        spec = sweep.scenarios[i]
        if spec.backend == "analytic" and batch_supported(spec.runner):
            by_runner.setdefault(spec.runner, []).append(i)
    batched: Dict[int, Dict[str, Any]] = {}
    for name, idxs in by_runner.items():
        if len(idxs) < 2:
            continue            # a lone scenario gains nothing from a batch
        results = evaluate_batch_records(
            name, [sweep.scenarios[i].params for i in idxs])
        if results is None:
            continue
        for i, result in zip(idxs, results):
            batched[i] = _canonical_result(result)
    remaining = []
    for i in misses:
        if i in batched:
            record(i, batched[i])
        else:
            remaining.append(i)
    return remaining


def run_sweep(sweep: Union[str, SweepSpec],
              store: Optional[ResultStore] = None,
              workers: int = 1,
              force: bool = False,
              progress: Optional[ProgressFn] = None) -> SweepRun:
    """Run every scenario of ``sweep``, skipping store hits.

    Parameters
    ----------
    sweep:
        A :class:`SweepSpec` or the name of a registered sweep.
    store:
        Content-addressed result store; ``None`` disables caching.
    workers:
        Process count for the misses.  ``1`` (or a single miss) uses the
        in-process serial path; results are identical either way.
    force:
        Re-execute every scenario even on a store hit (hits are
        overwritten with the fresh results).
    progress:
        Optional ``progress(done, total, outcome)`` callback, invoked in
        sweep order as outcomes become available.
    """
    if isinstance(sweep, str):
        sweep = get_sweep(sweep)
    ensure_registered()
    metrics = get_metrics()

    total = len(sweep.scenarios)
    outcomes: List[Optional[ScenarioOutcome]] = [None] * total
    misses: List[int] = []
    done = 0

    def _notify(outcome: ScenarioOutcome) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, outcome)

    for i, spec in enumerate(sweep.scenarios):
        cached = None if (store is None or force) else store.get(spec)
        if cached is not None:
            outcomes[i] = ScenarioOutcome(spec=spec, key=spec.key(),
                                          result=cached, cached=True)
            _notify(outcomes[i])
        else:
            misses.append(i)
    if metrics.enabled:
        metrics.inc("sweep.cache_hits", total - len(misses))
        metrics.inc("sweep.cache_misses", len(misses))

    def _record(i: int, result: Dict[str, Any]) -> None:
        spec = sweep.scenarios[i]
        if store is not None:
            store.put(spec, result)
        outcomes[i] = ScenarioOutcome(spec=spec, key=spec.key(),
                                      result=result, cached=False)
        _notify(outcomes[i])

    if misses and batch_enabled():
        before = len(misses)
        with metrics.timer("sweep.batch_wall_s"):
            misses = _run_batch_misses(sweep, misses, _record)
        if metrics.enabled:
            metrics.inc("sweep.batch_fastpath_scenarios",
                        before - len(misses))

    if len(misses) > 1 and workers > 1:
        ctx = multiprocessing.get_context("spawn")
        n = min(workers, len(misses))
        with metrics.timer("sweep.pool_wall_s"):
            with ctx.Pool(processes=n) as pool:
                specs = [sweep.scenarios[i] for i in misses]
                for i, result in zip(
                        misses, pool.imap(_worker_run, specs, chunksize=1)):
                    _record(i, result)
    else:
        with metrics.timer("sweep.serial_wall_s"):
            for i in misses:
                _record(i, run_scenario(sweep.scenarios[i]))

    run = SweepRun(sweep=sweep, outcomes=list(outcomes))

    if store is not None:
        # A fully cached run can reuse the stored figure export instead of
        # re-assembling; anything freshly executed refreshes the record.
        payload = store.get_sweep(sweep) if not misses else None
        if payload is not None:
            from ..bench.harness import FigureResult
            run._figure = FigureResult.from_json_dict(payload)
        else:
            store.put_sweep(sweep, run.figure().to_json_dict())
    return run
