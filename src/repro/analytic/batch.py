"""Vectorized mega-batch engine over the analytic closed forms.

A :class:`ScenarioBatch` is a table of scenarios for one runner, split into
groups that each evaluate in one call of the runner's closed form.  A
runner declares only its *knobs*: the numeric workload parameters (batch
sizes, table counts, tile shapes, ...) that become NumPy columns over a
group's rows.  Every other parameter (platform, cluster shape, scheduler,
``algo``, dtypes, the baseline override) is passed as it is and keys the
group, and so does the set of knobs a row sets: a knob a row leaves out is
not passed, so the closed form's own default applies.

There is no second copy of the model here, nor of its defaults or result
shapes.  A group is evaluated by the very ``predict_*`` closed form in
:mod:`repro.analytic.ops` that answers a single scenario, called with
columns instead of scalars (the forms are written once against
:mod:`repro.utils.xp`), and its outputs are split back into rows as
builtins.  Batch results are therefore elementwise **bit-identical** to
the scalar path, of the same types, and a missing or unknown parameter
fails with the scalar path's exception.  This module only groups rows,
builds columns and splits the outputs.

A row whose knob value no column can hold (``global_batch=512.0``) forms a
group of its own with no columns, which is the scalar evaluation itself,
so ``records()`` is always a safe drop-in for looping over ``predict_*``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import get_metrics
from .ops import (
    _wg_timeline_record,
    _wg_timeline_values,
    predict_dlrm_scaleout,
    predict_embedding_a2a,
    predict_embedding_fused,
    predict_embedding_grad_a2a,
    predict_gemm_a2a,
    predict_gemv_allreduce,
)

__all__ = ["ScenarioBatch", "batch_runners", "batch_supported",
           "evaluate_batch_records"]


def _canonical(value: Any) -> str:
    """Deterministic grouping key for a parameter mapping."""
    return json.dumps(value, sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# Runner schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RunnerBatch:
    """How one scenario runner batches.

    ``form`` is the closed form a group is evaluated by, called with the
    group's shared parameters and knob columns as keyword arguments;
    ``record``, if set, formats each row of its outputs into the runner's
    result.  A knob left out of ``ints``/``floats`` keys the groups
    instead: slower, never wrong.
    """

    form: Callable[..., Dict[str, Any]]
    ints: Tuple[str, ...] = ()      #: int64 knob columns
    floats: Tuple[str, ...] = ()    #: float64 knob columns, None -> NaN
    record: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None

    def fits(self, name: str, value: Any) -> bool:
        """Whether ``value`` of knob ``name`` can go into its column."""
        if isinstance(value, bool):
            return False
        if name in self.floats:
            return value is None or isinstance(value, (int, float))
        return isinstance(value, (int, np.integer))

    def column(self, name: str, values: Any) -> np.ndarray:
        return np.asarray(values, np.float64 if name in self.floats
                          else np.int64)


_EMB_INTS = ("global_batch", "tables_per_gpu", "dim", "pooling",
             "rows_per_table", "slice_vectors", "tasks_per_slice", "seed")
_EMB_FLOATS = ("occupancy_of_baseline",)

_RUNNERS: Dict[str, _RunnerBatch] = {
    "embedding_a2a_pair": _RunnerBatch(
        predict_embedding_a2a, _EMB_INTS, _EMB_FLOATS),
    "embedding_fused": _RunnerBatch(
        predict_embedding_fused, _EMB_INTS, _EMB_FLOATS),
    "embedding_grad_pair": _RunnerBatch(
        predict_embedding_grad_a2a, _EMB_INTS, _EMB_FLOATS),
    "gemv_allreduce_pair": _RunnerBatch(
        predict_gemv_allreduce,
        ("m", "n_per_gpu", "tile_rows", "itemsize", "seed")),
    "gemm_a2a_pair": _RunnerBatch(
        predict_gemm_a2a,
        ("tokens", "model_dim", "ffn_dim", "block_m", "block_n", "itemsize",
         "seed")),
    # Scale-out DLRM list-schedules execution graphs: no closed form over
    # columns, so each distinct scenario is a group of its own (its
    # sweeps are tiny).
    "dlrm_scaleout": _RunnerBatch(predict_dlrm_scaleout),
    "wg_timeline": _RunnerBatch(
        _wg_timeline_values,
        ("batch", "tables", "wgs_per_slice", "timeline_width"),
        record=_wg_timeline_record),
}


def batch_runners() -> Tuple[str, ...]:
    """Runner names the vectorized engine can evaluate."""
    return tuple(_RUNNERS)


def batch_supported(runner: str) -> bool:
    return runner in _RUNNERS


def _split(value: Any, n: int) -> List[Any]:
    """The ``n`` row values of one closed-form output, as builtins: a
    column's elements, a scalar repeated, a dict split key by key."""
    if isinstance(value, dict):
        keys = list(value)
        return [dict(zip(keys, row))
                for row in zip(*(_split(value[k], n) for k in keys))]
    if isinstance(value, (np.ndarray, np.generic)):
        return np.broadcast_to(value, (n,)).tolist()
    return [value] * n


# ---------------------------------------------------------------------------
# The scenario table
# ---------------------------------------------------------------------------

@dataclass
class _Group:
    """Rows evaluated by one call of the closed form: ``params`` passed as
    they are, plus one column per knob the rows set."""

    rows: np.ndarray
    params: Dict[str, Any]
    columns: Dict[str, np.ndarray]


@dataclass
class ScenarioBatch:
    """Columnar table of scenarios for one analytic runner.

    Build with :meth:`from_params` (a sweep's parameter dicts),
    :meth:`from_columns` (pre-built columns, zero per-row overhead), or
    :meth:`from_grid` (the cartesian product of axis lists, mirroring
    ``grid_params`` row order).  :meth:`evaluate` returns output columns
    over the whole batch; :meth:`records` the exact per-scenario result
    dicts the scalar ``predict_*`` functions produce.
    """

    runner: str
    n: int
    groups: List[_Group] = field(default_factory=list)
    #: rows evaluated alone because a knob value fits no column
    fallback_rows: int = 0

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_params(cls, runner: str,
                    params_list: Sequence[Mapping[str, Any]]
                    ) -> "ScenarioBatch":
        spec = _RUNNERS[runner]
        knobs = spec.ints + spec.floats
        buckets: Dict[Any, Tuple[Dict[str, Any], Tuple[str, ...],
                                 List[int]]] = {}
        fallback = 0
        for i, params in enumerate(params_list):
            shared = {k: v for k, v in params.items() if k != "backend"}
            names = tuple(k for k in knobs if k in shared)
            if all(spec.fits(k, shared[k]) for k in names):
                for k in names:
                    del shared[k]
                key: Any = (_canonical(shared), names)
            else:
                key, names = i, ()
                fallback += 1
            if key not in buckets:
                buckets[key] = (shared, names, [])
            buckets[key][2].append(i)
        groups = [
            _Group(rows=np.asarray(rows, np.int64), params=shared,
                   columns={k: spec.column(k, [params_list[i][k]
                                               for i in rows])
                            for k in names})
            for shared, names, rows in buckets.values()]
        return cls(runner=runner, n=len(params_list), groups=groups,
                   fallback_rows=fallback)

    @classmethod
    def from_columns(cls, runner: str, columns: Mapping[str, Any],
                     structural: Optional[Mapping[str, Any]] = None
                     ) -> "ScenarioBatch":
        spec = _RUNNERS[runner]
        unknown = set(columns) - set(spec.ints + spec.floats)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}")
        lengths = {len(np.asarray(v)) for v in columns.values()}
        if len(lengths) != 1:
            raise ValueError("columns must share one length")
        n = lengths.pop()
        cols = {k: spec.column(k, v) for k, v in columns.items()}
        return cls(runner=runner, n=n,
                   groups=[_Group(rows=np.arange(n, dtype=np.int64),
                                  params=dict(structural or {}),
                                  columns=cols)])

    @classmethod
    def from_grid(cls, runner: str,
                  axes: Mapping[str, Sequence[Any]]) -> "ScenarioBatch":
        """Cartesian product of axis value lists, in ``grid_params`` row
        order (last axis fastest)."""
        spec = _RUNNERS[runner]
        names = list(axes)
        lengths = [len(axes[k]) for k in names]
        if any(ln < 1 for ln in lengths):
            raise ValueError("every axis needs at least one value")
        knob_axes = [k for k in names if k in spec.ints + spec.floats]
        for k in knob_axes:
            for v in axes[k]:
                if not spec.fits(k, v):
                    raise ValueError(
                        f"axis {k!r}: value {v!r} does not fit its column")
        n = int(np.prod(lengths, dtype=np.int64)) if names else 1
        # Value-index column per axis, in product order.
        idx_cols: Dict[str, np.ndarray] = {}
        inner = n
        for k, ln in zip(names, lengths):
            inner //= ln
            outer = n // (inner * ln)
            idx_cols[k] = np.tile(np.repeat(np.arange(ln), inner), outer)
        values = {k: spec.column(k, axes[k]) for k in knob_axes}
        struct_names = [k for k in names if k not in values]
        groups = [
            _Group(rows=rows, params=dict(zip(struct_names, struct_vals)),
                   columns={k: v[idx_cols[k][rows]]
                            for k, v in values.items()})
            for rows, struct_vals in cls._structural_combos(
                struct_names, axes, idx_cols, n)]
        return cls(runner=runner, n=n, groups=groups)

    @staticmethod
    def _structural_combos(struct_names, axes, idx_cols, n):
        if not struct_names:
            yield np.arange(n, dtype=np.int64), ()
            return
        shape = [len(axes[k]) for k in struct_names]
        combo_id = np.zeros(n, np.int64)
        for k, ln in zip(struct_names, shape):
            combo_id = combo_id * ln + idx_cols[k]
        order = np.argsort(combo_id, kind="stable")
        sorted_ids = combo_id[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:]
                                      != sorted_ids[:-1]])
        bounds = np.r_[starts, n]
        for b, e in zip(bounds[:-1], bounds[1:]):
            cid = int(sorted_ids[b])
            vals = []
            for ln, k in zip(reversed(shape), reversed(struct_names)):
                vals.append(axes[k][cid % ln])
                cid //= ln
            # ``order`` is a stable argsort, so each group's slice is
            # already in ascending row order.
            yield order[b:e], tuple(reversed(vals))

    # -- evaluation ----------------------------------------------------------
    def _group_outputs(self) -> List[Tuple[_Group, Dict[str, Any]]]:
        form = _RUNNERS[self.runner].form
        out = [(g, form(**g.params, **g.columns)) for g in self.groups]
        m = get_metrics()
        if m.enabled:
            if self.fallback_rows:
                m.inc("batch.scalar_fallback_rows", self.fallback_rows)
            m.inc("batch.rows", self.n)
            m.inc("batch.groups", len(self.groups))
        return out

    def evaluate(self) -> Dict[str, np.ndarray]:
        """The closed form's top-level numeric outputs as columns over the
        full batch, in input-row order."""
        parts: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for g, res in self._group_outputs():
            for k, v in res.items():
                if not isinstance(v, dict):
                    parts.setdefault(k, []).append(
                        (g.rows, np.broadcast_to(v, g.rows.shape)))
        out: Dict[str, np.ndarray] = {}
        for k, pieces in parts.items():
            col = np.empty(self.n, np.result_type(*(v for _, v in pieces)))
            for rows, v in pieces:
                col[rows] = v
            out[k] = col
        return out

    def records(self) -> List[Dict[str, Any]]:
        """Exact per-scenario result dicts (the scalar oracle's shapes)."""
        record = _RUNNERS[self.runner].record
        results: List[Optional[Dict[str, Any]]] = [None] * self.n
        for g, res in self._group_outputs():
            for i, row in zip(g.rows.tolist(), _split(res, len(g.rows))):
                results[i] = record(row) if record else row
        return results


def evaluate_batch_records(runner: str,
                           params_list: Sequence[Mapping[str, Any]]
                           ) -> Optional[List[Dict[str, Any]]]:
    """Batch-evaluate a runner's scenarios; ``None`` if unsupported."""
    if runner not in _RUNNERS or not params_list:
        return None
    return ScenarioBatch.from_params(runner, params_list).records()
