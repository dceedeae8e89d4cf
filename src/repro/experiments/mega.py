"""Mega sweeps: axis-defined analytic grids evaluated in one batch call.

A registered :class:`~repro.experiments.specs.SweepSpec` materializes one
:class:`ScenarioSpec` per point — perfect for the paper figures, far too
heavy for six- or seven-axis design grids where a million frozen
dataclasses (and a million cache files) would dwarf the closed-form math
itself.  A :class:`MegaSweepSpec` instead stores the *axes* and hands the
whole Cartesian product to the vectorized mega-batch engine
(:class:`repro.analytic.batch.ScenarioBatch`); assembly runs on the
output columns with :func:`repro.analytic.explorer.pareto_mask`, so a
100k–1M point sweep is an order of seconds end to end.

Caching is sweep-level only: the assembled figure payload is stored under
the spec's content key (same :class:`~repro.experiments.store.ResultStore`
record shape as ordinary sweeps), so a warm ``run``/``report`` touches no
math at all and the rendered report is byte-identical to the cold one —
the figure payload is canonicalized through a JSON round trip before
either path sees it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..bench.harness import FigureResult, Row
from .specs import SCHEMA_VERSION, canonical_json
from .store import ResultStore

__all__ = [
    "MegaSweepSpec", "MegaRun", "run_mega", "register_mega", "get_mega",
    "find_mega", "list_megas", "dse_mega_sweep", "dse_mega_smoke_sweep",
    "MEGA_SWEEPS", "DSE_MEGA_AXES",
]


@dataclass(frozen=True)
class MegaSweepSpec:
    """An axis-defined sweep: runner + Cartesian axes, no scenario list.

    ``axes_json`` preserves the declared axis order (last axis fastest,
    the :func:`~repro.experiments.specs.grid_params` convention), which is
    part of the sweep's identity: reordering axes reorders the grid.
    """

    name: str
    title: str
    runner: str
    axes_json: str
    description: str = ""
    figure: str = ""

    @classmethod
    def make(cls, name: str, title: str, runner: str,
             axes: Dict[str, Sequence[Any]], description: str = "",
             figure: str = "") -> "MegaSweepSpec":
        axes = {k: list(v) for k, v in axes.items()}
        return cls(name=name, title=title, runner=runner,
                   # Axis order is load-bearing (it defines grid order and
                   # the content key), so this dumps is deliberately
                   # insertion-ordered, not sort_keys.
                   axes_json=json.dumps(axes, separators=(",", ":")),  # repro-lint: ignore[determinism]
                   description=description, figure=figure or title)

    @property
    def axes(self) -> Dict[str, List[Any]]:
        return json.loads(self.axes_json)

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def key(self) -> str:
        """Content hash (axis order included — it defines grid order)."""
        record = canonical_json({
            "schema": SCHEMA_VERSION,
            "kind": "mega",
            "name": self.name,
            "runner": self.runner,
            "axes": [[k, v] for k, v in self.axes.items()],
        })
        return hashlib.sha256(record.encode("utf-8")).hexdigest()


@dataclass
class MegaRun:
    """A completed mega sweep: scale counters plus the assembled figure."""

    spec: MegaSweepSpec
    executed: int                   #: 0 when served from the sweep record
    _figure: FigureResult = field(repr=False)

    @property
    def cache_hits(self) -> int:
        return 0 if self.executed else len(self.spec)

    def figure(self) -> FigureResult:
        return self._figure

    def report(self) -> Dict[str, Any]:
        """Report-shaped like an ordinary sweep's, minus the per-scenario
        entries (a million records would drown the signal — the frontier
        *is* the result)."""
        from .report import REPORT_SCHEMA
        return {
            "schema": REPORT_SCHEMA,
            "sweep": self.spec.name,
            "title": self.spec.title,
            "description": self.spec.description,
            "sweep_key": self.spec.key(),
            "scenarios": [],
            "figure": self._figure.to_json_dict(),
        }


# ----------------------------------------------------------------------
# Assembly: output columns -> the dse_frontier FigureResult shape.
# ----------------------------------------------------------------------

def _axis_index_columns(axes: Dict[str, List[Any]]
                        ) -> Dict[str, np.ndarray]:
    """Per-row value-index column for every axis, in grid-product order."""
    names = list(axes)
    lengths = [len(axes[k]) for k in names]
    n = int(np.prod(lengths, dtype=np.int64)) if names else 1
    cols: Dict[str, np.ndarray] = {}
    inner = n
    for k, ln in zip(names, lengths):
        inner //= ln
        outer = n // (ln * inner)
        cols[k] = np.tile(np.repeat(np.arange(ln), inner), outer)
    return cols


def _display(value: Any) -> str:
    """Platform axis values render by catalog/params name, like the
    registered DSE sweep's labels."""
    if isinstance(value, dict):
        return value.get("name", "custom")
    return str(value)


def _point_label(axes: Dict[str, List[Any]],
                 idx_cols: Dict[str, np.ndarray], row: int) -> str:
    """Compact deterministic label from the varying axes of one grid row."""
    parts: List[str] = []
    for k, values in axes.items():
        if len(values) < 2:
            continue
        v = values[int(idx_cols[k][row])]
        if k == "platform":
            parts.insert(0, _display(v))
        elif k == "algo":
            if v:                   # None = legacy schedule, no suffix
                parts.append(str(v))
        else:
            parts.append(f"{k}={v}")
    return " ".join(parts) or f"#{row}"


def _assemble_frontier(spec: MegaSweepSpec,
                       outputs: Dict[str, np.ndarray]) -> FigureResult:
    """Vectorized twin of the ``dse_frontier`` assembler: per-platform
    Pareto frontiers of (fused latency, fused-over-baseline speedup),
    plus the globally undominated subset — computed with
    :func:`~repro.analytic.explorer.pareto_mask` on the output columns
    instead of per-scenario tuples.

    The global frontier is the Pareto subset of the *union* of the
    per-platform frontiers, not of every grid row, and that is exact:
    a globally undominated point is undominated within its own platform,
    so it is in the union; a dominated point is dominated by some
    globally undominated point (transitivity on a finite set), which is
    in the union; and equal objective vectors never dominate each other,
    so duplicates are kept exactly as before."""
    from ..analytic.explorer import pareto_mask
    axes = spec.axes
    idx_cols = _axis_index_columns(axes)
    fused = outputs["fused_time"]
    baseline = outputs["baseline_time"]
    speedup = baseline / fused
    objs = np.stack([fused, -speedup], axis=1)

    platforms = axes.get("platform", [None])
    plat_idx = idx_cols.get("platform", np.zeros(len(fused), np.int64))
    by_name: Dict[str, int] = {}
    frontier_rows: List[int] = []
    order = np.argsort([_display(p) for p in platforms], kind="stable")
    for pi in order:
        rows = np.flatnonzero(plat_idx == pi)
        front = rows[pareto_mask(objs[rows])]
        by_name[_display(platforms[pi])] = len(front)
        frontier_rows.extend(int(r) for r in front)

    res = FigureResult(spec.figure or spec.title, spec.description)
    frontier_data = []
    for r in frontier_rows:
        label = _point_label(axes, idx_cols, r)
        res.add(Row(label=label, fused_time=float(fused[r]),
                    baseline_time=float(baseline[r])))
        frontier_data.append({
            "label": label,
            "fused_us": round(float(fused[r]) * 1e6, 3),
            "speedup": round(float(speedup[r]), 4),
        })
    union = np.asarray(frontier_rows, np.int64)
    global_rows = union[pareto_mask(objs[union])]
    best = int(np.argmax(speedup))
    res.extra["n_scenarios"] = len(fused)
    res.extra["n_frontier"] = len(frontier_data)
    res.extra["best_speedup"] = (f"{float(speedup[best]):.2f}x at "
                                 f"{_point_label(axes, idx_cols, best)}")
    res.extra["frontier_by_platform"] = by_name
    res.extra["global_frontier"] = sorted(
        _point_label(axes, idx_cols, int(r)) for r in global_rows)
    res.extra["frontier"] = frontier_data
    return res


# ----------------------------------------------------------------------
# Execution: one batch call, sweep-level cache record.
# ----------------------------------------------------------------------

def run_mega(spec: MegaSweepSpec,
             store: Optional[ResultStore] = None,
             force: bool = False) -> MegaRun:
    """Evaluate a mega sweep (or serve its cached figure record).

    The grid never touches per-scenario records: the only store artifact
    is the sweep-level assembled-figure payload under ``spec.key()``.
    Cold and cached runs produce byte-identical reports because the
    figure is canonicalized through a JSON round trip before either path
    returns it.
    """
    if store is not None and not force:
        payload = store.get_sweep(spec)
        if payload is not None:
            return MegaRun(spec=spec, executed=0,
                           _figure=FigureResult.from_json_dict(payload))
    from ..analytic.batch import ScenarioBatch
    batch = ScenarioBatch.from_grid(spec.runner, spec.axes)
    figure = _assemble_frontier(spec, batch.evaluate())
    payload = json.loads(json.dumps(figure.to_json_dict()))
    if store is not None:
        store.put_sweep(spec, payload)
    return MegaRun(spec=spec, executed=len(spec),
                   _figure=FigureResult.from_json_dict(payload))


# ----------------------------------------------------------------------
# Registry + the shipped mega sweeps.
# ----------------------------------------------------------------------

MEGA_SWEEPS: Dict[str, MegaSweepSpec] = {}


def register_mega(spec: MegaSweepSpec,
                  overwrite: bool = False) -> MegaSweepSpec:
    if spec.name in MEGA_SWEEPS and not overwrite:
        raise ValueError(f"mega sweep {spec.name!r} already registered")
    MEGA_SWEEPS[spec.name] = spec
    return spec


def get_mega(name: str) -> MegaSweepSpec:
    try:
        return MEGA_SWEEPS[name]
    except KeyError:
        raise KeyError(f"unknown mega sweep {name!r}; registered: "
                       f"{sorted(MEGA_SWEEPS)}") from None


def find_mega(name: str) -> Optional[MegaSweepSpec]:
    return MEGA_SWEEPS.get(name)


def list_megas() -> List[MegaSweepSpec]:
    return [MEGA_SWEEPS[name] for name in sorted(MEGA_SWEEPS)]


#: The ``dse_mega`` grid: every axis value satisfies the embedding+A2A
#: config invariants for every topology in the grid (``global_batch`` is
#: a multiple of ``world * slice_vectors`` throughout), so all 103,680
#: points validate.  ~40x the registered ``dse_fused_frontier`` grid.
DSE_MEGA_AXES: Dict[str, List[Any]] = {
    "platform": ["mi210", "mi250x", "mi300x", "h100"],
    "num_nodes": [1, 2],
    "gpus_per_node": [1, 2, 4],
    "global_batch": [512 * k for k in range(1, 19)],
    "tables_per_gpu": [8, 16, 24, 32, 48, 64, 96, 128, 192, 256],
    "slice_vectors": [8, 16, 32, 64],
    "occupancy_of_baseline": [0.25, 0.5, 0.75],
    "algo": [None, "pairwise"],
}


def dse_mega_sweep(name: str = "dse_mega") -> MegaSweepSpec:
    """The headline mega grid: ~104k fused embedding+A2A design points,
    evaluated in one vectorized call (about a second end to end)."""
    return MegaSweepSpec.make(
        name, "DSE mega", "embedding_a2a_pair", DSE_MEGA_AXES,
        description="mega-batch fused embedding+A2A design-space frontier "
                    "(latency vs speedup)",
        figure="DSE mega")


def dse_mega_smoke_sweep(name: str = "dse-mega-smoke") -> MegaSweepSpec:
    """16-point slice of :func:`dse_mega_sweep` for CI cache-behaviour
    checks (cold run, then a byte-identical fully-cached re-run)."""
    return MegaSweepSpec.make(
        name, "DSE mega smoke", "embedding_a2a_pair",
        {
            "platform": ["mi210", "h100"],
            "num_nodes": [2],
            "gpus_per_node": [1],
            "global_batch": [512, 2048],
            "tables_per_gpu": [16, 64],
            "slice_vectors": [32],
            "occupancy_of_baseline": [0.25, 0.75],
            "algo": [None],
        },
        description="CI slice of the dse_mega grid (16 points)",
        figure="DSE mega smoke")


register_mega(dse_mega_sweep())
register_mega(dse_mega_smoke_sweep())
