"""Process-wide run-metrics registry: counters, gauges, wall-clock timers.

Mirrors the :data:`~repro.sim.trace.NULL_TRACE` pattern: instrumented call
sites ask :func:`get_metrics` for the active registry and get the no-op
:data:`NULL_METRICS` singleton unless metrics were opted into — via the
``REPRO_METRICS`` environment variable (any value other than empty/``0``)
or the :func:`enable_metrics` API.  Disabled-path cost is one attribute
test per *aggregate* record (hot loops hoist ``metrics.enabled`` exactly
like they hoist ``trace.enabled``), and a metrics-enabled run is guaranteed
not to change a single byte of sweep reports or cache records — metrics
read the run, they never feed back into it.

Timers measure *host* wall-clock (``time.perf_counter``) and double as
span recorders: every completed timer appends a ``(name, start, end)``
host-side span that :mod:`repro.obs.chrome` can export onto a dedicated
track next to the simulated-time trace.  Only the most recent
:data:`HOST_SPAN_CAP` spans are kept, so a long-running process holds
bounded memory; timer counts and totals still cover every call.

The JSONL sink (:meth:`MetricsRegistry.write_jsonl`, auto-flushed at
process exit to ``$REPRO_METRICS_JSONL`` when set) appends one JSON object
per metric so long-running services can tail it.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

__all__ = [
    "ENV_VAR",
    "HOST_SPAN_CAP",
    "JSONL_ENV_VAR",
    "MetricsRegistry",
    "NULL_METRICS",
    "disable_metrics",
    "enable_metrics",
    "get_metrics",
    "metrics_env_enabled",
    "reset_metrics",
]

#: Opt-in switch: any value other than ``""``/``"0"`` enables metrics.
ENV_VAR = "REPRO_METRICS"
#: Optional path; when set (and metrics are enabled) a snapshot is appended
#: as JSON lines at interpreter exit.
JSONL_ENV_VAR = "REPRO_METRICS_JSONL"
#: Host spans a registry keeps; older spans are dropped first.
HOST_SPAN_CAP = 100_000

Number = Union[int, float]


class _Timer:
    """Context manager measuring one host wall-clock interval."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._registry._record_timer(self._name, self._t0,
                                     time.perf_counter())


class _NullTimer:
    """Shared do-nothing timer handed out by :data:`NULL_METRICS`."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """In-memory metric store.  All methods are cheap and allocation-light;
    none touch simulation state."""

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        #: name -> [count, total_seconds]
        self.timers: Dict[str, List[float]] = {}
        #: the most recent completed host wall-clock spans:
        #: (name, start, end) in ``perf_counter`` seconds.
        self.host_spans: Deque[Tuple[str, float, float]] = deque(
            maxlen=HOST_SPAN_CAP)

    @property
    def enabled(self) -> bool:
        return True

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to its latest observation."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: Number) -> None:
        """Keep the maximum observation of gauge ``name`` (peak tracking)."""
        cur = self.gauges.get(name)
        if cur is None or value > cur:
            self.gauges[name] = value

    def timer(self, name: str) -> _Timer:
        """``with metrics.timer("phase"):`` — host wall-clock interval."""
        return _Timer(self, name)

    def _record_timer(self, name: str, t0: float, t1: float) -> None:
        entry = self.timers.get(name)
        if entry is None:
            entry = self.timers[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += t1 - t0
        self.host_spans.append((name, t0, t1))

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()
        self.host_spans.clear()

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot (sorted keys; host spans excluded)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {name: {"count": int(c), "total_s": t}
                       for name, (c, t) in sorted(self.timers.items())},
        }

    def render(self) -> str:
        """Human-readable snapshot for ``python -m repro stats``."""
        lines: List[str] = []
        snap = self.snapshot()
        width = max((len(n) for section in snap.values() for n in section),
                    default=0)
        if snap["counters"]:
            lines.append("counters:")
            for name, v in snap["counters"].items():
                lines.append(f"  {name:<{width}}  {v:>14,}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, v in snap["gauges"].items():
                lines.append(f"  {name:<{width}}  {v:>14,}")
        if snap["timers"]:
            lines.append("timers:")
            for name, t in snap["timers"].items():
                lines.append(f"  {name:<{width}}  {t['total_s']:>11.3f} s  "
                             f"(x{t['count']})")
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)

    def write_jsonl(self, path: Union[str, os.PathLike]) -> int:
        """Append one JSON line per metric; returns the line count.

        Lines carry only ``kind``/``name``/value fields — no timestamps or
        hostnames — so repeated snapshots of a deterministic run are
        themselves deterministic.
        """
        snap = self.snapshot()
        lines = []
        for name, v in snap["counters"].items():
            lines.append({"kind": "counter", "name": name, "value": v})
        for name, v in snap["gauges"].items():
            lines.append({"kind": "gauge", "name": name, "value": v})
        for name, t in snap["timers"].items():
            lines.append({"kind": "timer", "name": name,
                          "count": t["count"], "total_s": t["total_s"]})
        with open(path, "a", encoding="utf-8") as f:
            for line in lines:
                f.write(json.dumps(line, sort_keys=True) + "\n")
        return len(lines)


class _NullMetricsRegistry(MetricsRegistry):
    """Permanently-disabled registry whose record calls are true no-ops.

    One shared instance (:data:`NULL_METRICS`) serves the whole process;
    its methods allocate nothing, so instrumented hot paths cost a single
    attribute test when metrics are off.
    """

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    def inc(self, name: str, value: Number = 1) -> None:
        return None

    def gauge(self, name: str, value: Number) -> None:
        return None

    def gauge_max(self, name: str, value: Number) -> None:
        return None

    def timer(self, name: str) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER


#: Process-wide disabled registry (see :class:`_NullMetricsRegistry`).
NULL_METRICS = _NullMetricsRegistry()

#: The active registry; ``None`` means "not yet resolved from the
#: environment" (the next :func:`get_metrics` call resolves it).
_active: Optional[MetricsRegistry] = None
_exit_sink_registered = False


def metrics_env_enabled() -> bool:
    """Whether ``REPRO_METRICS`` opts metrics in."""
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def _register_exit_sink() -> None:
    """Flush the active registry to ``$REPRO_METRICS_JSONL`` at exit."""
    global _exit_sink_registered
    if _exit_sink_registered or not os.environ.get(JSONL_ENV_VAR):
        return
    import atexit

    def _flush() -> None:
        m = _active
        path = os.environ.get(JSONL_ENV_VAR)
        if m is not None and m.enabled and path:
            m.write_jsonl(path)

    atexit.register(_flush)
    _exit_sink_registered = True


def get_metrics() -> MetricsRegistry:
    """The process's active registry (:data:`NULL_METRICS` when disabled).

    The environment is consulted lazily on the first call (and again after
    :func:`reset_metrics`), so spawn-started worker processes inherit the
    opt-in through their environment with no extra plumbing.
    """
    global _active
    m = _active
    if m is None:
        m = MetricsRegistry() if metrics_env_enabled() else NULL_METRICS
        _active = m
        if m.enabled:
            _register_exit_sink()
    return m


def enable_metrics(
        registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) a live registry, ignoring the environment."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    _register_exit_sink()
    return _active


def disable_metrics() -> None:
    """Install :data:`NULL_METRICS` (records are dropped from here on)."""
    global _active
    _active = NULL_METRICS


def reset_metrics() -> None:
    """Forget the active registry; the next :func:`get_metrics` re-reads
    the environment.  Intended for tests."""
    global _active
    _active = None
