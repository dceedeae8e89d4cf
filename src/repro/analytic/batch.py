"""Vectorized mega-batch engine over the analytic closed forms.

A :class:`ScenarioBatch` is a columnar table of scenarios for one runner:
numeric workload knobs (batch sizes, table counts, tile shapes, ...) are
NumPy columns over the scenario axis, while *structural* parameters — the
ones that change control flow or object identity (platform, cluster shape,
scheduler, ``algo``, dtypes, the baseline-override mapping) — partition the
table into groups that each evaluate in one vectorized call.

There is no second copy of the model here: a group is evaluated by the
very ``predict_*`` closed form in :mod:`repro.analytic.ops` that answers a
single scenario, called with columns instead of scalars (the forms are
written once against :mod:`repro.utils.xp`).  Batch results are therefore
elementwise **bit-identical** to the scalar path, not merely close.  This
module only groups rows, builds columns, and assembles the per-scenario
result records.

Scenarios whose parameters the columnar schema cannot represent (unknown
keys, non-integer values where the schema expects integers) transparently
fall back to per-row scalar evaluation, so ``records()`` is always a safe
drop-in for looping over ``predict_*``.
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
    predict_wg_timeline,
)

__all__ = ["ScenarioBatch", "batch_runners", "batch_supported",
           "evaluate_batch_records"]

#: Sentinel for parameters the caller must supply (no default).
_REQUIRED = object()


def _canonical(value: Any) -> str:
    """Deterministic grouping key for a structural-parameter mapping."""
    return json.dumps(value, sort_keys=True, default=repr)


def _is_int(v: Any) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# Per-runner record builders (exact scalar result-dict shapes)
# ---------------------------------------------------------------------------

def _pair_record(s: Dict[str, Any], row: Dict[str, Any]) -> Dict[str, Any]:
    return {"fused_time": row["fused_time"],
            "baseline_time": row["baseline_time"]}


def _fused_record(s: Dict[str, Any], row: Dict[str, Any]) -> Dict[str, Any]:
    world = s["num_nodes"] * s["gpus_per_node"]
    return {"elapsed": row["elapsed"],
            "rank_end_times": {str(r): row["elapsed"]
                               for r in range(world)}}


# ---------------------------------------------------------------------------
# Runner schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RunnerBatch:
    """Columnar schema for one scenario runner.

    ``columns`` is the closed form a structural group is evaluated by,
    called with the group's structural params and numeric columns as
    keyword arguments; ``None`` marks a runner with no closed form over
    columns, whose rows the scalar form evaluates one by one.
    """

    scalar: Callable[..., Dict[str, Any]]
    numeric: Mapping[str, Any]              #: int64 columns (default/_REQUIRED)
    structural: Mapping[str, Any]           #: group params (default/_REQUIRED)
    float_out: Tuple[str, ...]
    columns: Optional[Callable[..., Dict[str, Any]]] = None
    record: Optional[Callable[[Dict[str, Any], Dict[str, Any]],
                              Dict[str, Any]]] = None
    nan_numeric: Tuple[str, ...] = ()       #: float columns, None -> NaN
    int_out: Tuple[str, ...] = ()
    extra_out: Tuple[str, ...] = ()         #: record-only column outputs


_EMB_NUMERIC = {"global_batch": _REQUIRED, "tables_per_gpu": _REQUIRED,
                "dim": 256, "pooling": 70, "rows_per_table": 1000,
                "slice_vectors": 32, "tasks_per_slice": 0, "seed": 0}
_EMB_STRUCTURAL = {"scheduler": "comm_aware", "zero_copy": True,
                   "pooling_mode": "sum", "algo": None, "platform": None}

_RUNNERS: Dict[str, _RunnerBatch] = {
    "embedding_a2a_pair": _RunnerBatch(
        scalar=predict_embedding_a2a,
        columns=predict_embedding_a2a,
        numeric=_EMB_NUMERIC,
        nan_numeric=("occupancy_of_baseline",),
        structural={**_EMB_STRUCTURAL, "num_nodes": _REQUIRED,
                    "gpus_per_node": _REQUIRED, "baseline": None},
        float_out=("fused_time", "baseline_time"),
        record=_pair_record),
    "embedding_fused": _RunnerBatch(
        scalar=predict_embedding_fused,
        columns=predict_embedding_fused,
        numeric=_EMB_NUMERIC,
        nan_numeric=("occupancy_of_baseline",),
        structural={**_EMB_STRUCTURAL, "num_nodes": 2, "gpus_per_node": 1,
                    "cpu_proxy": False},
        float_out=("elapsed",),
        record=_fused_record),
    "embedding_grad_pair": _RunnerBatch(
        scalar=predict_embedding_grad_a2a,
        columns=predict_embedding_grad_a2a,
        numeric=_EMB_NUMERIC,
        nan_numeric=("occupancy_of_baseline",),
        structural={**_EMB_STRUCTURAL, "num_nodes": 2, "gpus_per_node": 1},
        float_out=("fused_time", "baseline_time"),
        record=_pair_record),
    "gemv_allreduce_pair": _RunnerBatch(
        scalar=predict_gemv_allreduce,
        columns=predict_gemv_allreduce,
        numeric={"m": _REQUIRED, "n_per_gpu": _REQUIRED, "tile_rows": 16,
                 "itemsize": 2, "seed": 0},
        structural={"world": 4, "platform": None, "flop_dtype": "fp16",
                    "scheduler": "comm_aware", "algo": None},
        float_out=("fused_time", "baseline_time"),
        record=_pair_record),
    "gemm_a2a_pair": _RunnerBatch(
        scalar=predict_gemm_a2a,
        columns=predict_gemm_a2a,
        numeric={"tokens": _REQUIRED, "model_dim": _REQUIRED,
                 "ffn_dim": _REQUIRED, "block_m": 64, "block_n": 128,
                 "itemsize": 2, "seed": 0},
        structural={"world": 4, "platform": None, "flop_dtype": "fp16",
                    "scheduler": "comm_aware", "algo": None},
        float_out=("fused_time", "baseline_time"),
        record=_pair_record),
    # Scale-out DLRM list-schedules execution graphs: no closed form over
    # columns, and its sweeps are tiny.
    "dlrm_scaleout": _RunnerBatch(
        scalar=predict_dlrm_scaleout,
        numeric={"num_nodes": _REQUIRED},
        structural={"platform": None},
        float_out=("fused_time", "baseline_time", "reduction_pct",
                   "exposed_a2a_fraction")),
    "wg_timeline": _RunnerBatch(
        scalar=predict_wg_timeline,
        columns=_wg_timeline_values,
        numeric={"batch": 512, "tables": 32, "wgs_per_slice": 16,
                 "timeline_width": 100},
        structural={"platform": None},
        float_out=("_kernel_time_s", "_first_put_frac", "_last_put_frac",
                   "_elapsed_s"),
        int_out=("puts_issued_node0",),
        extra_out=("first_issue", "last_issue"),
        record=lambda s, row: _wg_timeline_record(row)),
}


def batch_runners() -> Tuple[str, ...]:
    """Runner names the vectorized engine can evaluate."""
    return tuple(_RUNNERS)


def batch_supported(runner: str) -> bool:
    return runner in _RUNNERS


# ---------------------------------------------------------------------------
# The scenario table
# ---------------------------------------------------------------------------

@dataclass
class _Group:
    """One structurally-uniform slice of the batch.  ``structural is None``
    marks a scalar-fallback group (rows the columnar schema can't hold)."""

    rows: np.ndarray
    structural: Optional[Dict[str, Any]] = None
    columns: Optional[Dict[str, np.ndarray]] = None
    fallback_params: Optional[List[Dict[str, Any]]] = None


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

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_params(cls, runner: str,
                    params_list: Sequence[Mapping[str, Any]]
                    ) -> "ScenarioBatch":
        spec = _RUNNERS[runner]
        num_names = set(spec.numeric) | set(spec.nan_numeric)
        buckets: Dict[str, Tuple[Dict[str, Any], List[int]]] = {}
        fallback_rows: List[int] = []
        for i, params in enumerate(params_list):
            p = dict(params)
            p.pop("backend", None)
            structural = {k: v for k, v in p.items() if k not in num_names}
            if not cls._representable(spec, structural, p):
                fallback_rows.append(i)
                continue
            key = _canonical(structural)
            if key not in buckets:
                buckets[key] = (structural, [])
            buckets[key][1].append(i)
        groups = []
        for structural, rows in buckets.values():
            merged = {k: structural.get(k, d)
                      for k, d in spec.structural.items()}
            cols = cls._build_columns(spec, [params_list[i] for i in rows])
            groups.append(_Group(rows=np.asarray(rows, np.int64),
                                 structural=merged, columns=cols))
        if fallback_rows:
            groups.append(_Group(
                rows=np.asarray(fallback_rows, np.int64),
                fallback_params=[
                    {k: v for k, v in params_list[i].items()
                     if k != "backend"} for i in fallback_rows]))
        return cls(runner=runner, n=len(params_list), groups=groups)

    @classmethod
    def from_columns(cls, runner: str, columns: Mapping[str, Any],
                     structural: Optional[Mapping[str, Any]] = None
                     ) -> "ScenarioBatch":
        spec = _RUNNERS[runner]
        s = dict(structural or {})
        unknown = set(s) - set(spec.structural)
        if unknown:
            raise ValueError(f"unknown structural params {sorted(unknown)}")
        missing = [k for k, d in spec.structural.items()
                   if d is _REQUIRED and k not in s]
        if missing:
            raise ValueError(f"missing structural params {missing}")
        merged = {k: s.get(k, d) for k, d in spec.structural.items()}
        lengths = {len(np.asarray(v)) for v in columns.values()}
        if len(lengths) != 1:
            raise ValueError("columns must share one length")
        n = lengths.pop()
        cols: Dict[str, np.ndarray] = {}
        for name, default in spec.numeric.items():
            if name in columns:
                cols[name] = np.asarray(columns[name], np.int64)
            elif default is _REQUIRED:
                raise ValueError(f"missing required column {name!r}")
            else:
                cols[name] = np.full(n, default, np.int64)
        for name in spec.nan_numeric:
            if name in columns:
                cols[name] = np.asarray(columns[name], np.float64)
            else:
                cols[name] = np.full(n, np.nan)
        extra = set(columns) - set(cols)
        if extra:
            raise ValueError(f"unknown columns {sorted(extra)}")
        return cls(runner=runner, n=n,
                   groups=[_Group(rows=np.arange(n, dtype=np.int64),
                                  structural=merged, columns=cols)])

    @classmethod
    def from_grid(cls, runner: str,
                  axes: Mapping[str, Sequence[Any]]) -> "ScenarioBatch":
        """Cartesian product of axis value lists, in ``grid_params`` row
        order (last axis fastest)."""
        spec = _RUNNERS[runner]
        num_names = set(spec.numeric) | set(spec.nan_numeric)
        unknown = set(axes) - num_names - set(spec.structural)
        if unknown:
            raise ValueError(f"unknown axes {sorted(unknown)}")
        names = list(axes)
        lengths = [len(axes[k]) for k in names]
        if any(ln < 1 for ln in lengths):
            raise ValueError("every axis needs at least one value")
        n = int(np.prod(lengths, dtype=np.int64)) if names else 1
        # Value-index column per axis, in product order.
        idx_cols: Dict[str, np.ndarray] = {}
        inner = n
        for k, ln in zip(names, lengths):
            inner //= ln
            outer = n // (inner * ln)
            idx_cols[k] = np.tile(np.repeat(np.arange(ln), inner), outer)
        struct_names = [k for k in names if k not in num_names]
        groups: List[_Group] = []
        for combo_rows, struct_vals in cls._structural_combos(
                struct_names, axes, idx_cols, n):
            structural = dict(zip(struct_names, struct_vals))
            merged = {k: structural.get(k, d)
                      for k, d in spec.structural.items()}
            missing = [k for k, d in merged.items() if d is _REQUIRED]
            if missing:
                raise ValueError(f"missing structural axes {missing}")
            cols: Dict[str, np.ndarray] = {}
            for name, default in spec.numeric.items():
                if name in axes:
                    vals = np.asarray(axes[name], np.int64)
                    cols[name] = vals[idx_cols[name][combo_rows]]
                elif default is _REQUIRED:
                    raise ValueError(f"missing required axis {name!r}")
                else:
                    cols[name] = np.full(len(combo_rows), default, np.int64)
            for name in spec.nan_numeric:
                if name in axes:
                    vals = np.asarray(
                        [np.nan if v is None else float(v)
                         for v in axes[name]])
                    cols[name] = vals[idx_cols[name][combo_rows]]
                else:
                    cols[name] = np.full(len(combo_rows), np.nan)
            groups.append(_Group(rows=combo_rows, structural=merged,
                                 columns=cols))
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

    # -- schema guards -------------------------------------------------------
    @staticmethod
    def _representable(spec: _RunnerBatch, structural: Dict[str, Any],
                       params: Dict[str, Any]) -> bool:
        if set(structural) - set(spec.structural):
            return False
        if any(d is _REQUIRED and k not in structural
               for k, d in spec.structural.items()
               if k not in spec.numeric):
            return False
        for name, default in spec.numeric.items():
            v = params.get(name, 0 if default is _REQUIRED else default)
            if name not in params and default is _REQUIRED:
                return False
            if not _is_int(v):
                return False
        for name in spec.nan_numeric:
            v = params.get(name)
            if v is not None and not isinstance(v, (int, float)):
                return False
        return True

    @staticmethod
    def _build_columns(spec: _RunnerBatch,
                       rows: List[Mapping[str, Any]]
                       ) -> Dict[str, np.ndarray]:
        cols: Dict[str, np.ndarray] = {}
        for name, default in spec.numeric.items():
            cols[name] = np.asarray([r[name] if default is _REQUIRED
                                     else r.get(name, default)
                                     for r in rows], np.int64)
        for name in spec.nan_numeric:
            cols[name] = np.asarray(
                [np.nan if r.get(name) is None else float(r[name])
                 for r in rows], np.float64)
        return cols

    # -- evaluation ----------------------------------------------------------
    def _group_outputs(self) -> List[Tuple[_Group, Dict[str, Any]]]:
        spec = _RUNNERS[self.runner]
        names = spec.float_out + spec.int_out + spec.extra_out
        m = get_metrics()
        out = []
        for g in self.groups:
            if g.structural is None or spec.columns is None:
                if g.structural is None:
                    params = g.fallback_params
                    if m.enabled:
                        m.inc("batch.scalar_fallback_rows", len(g.rows))
                else:
                    params = [{**g.structural,
                               **{k: c[j].item()
                                  for k, c in g.columns.items()}}
                              for j in range(len(g.rows))]
                results = [spec.scalar(**p) for p in params]
                cols: Dict[str, Any] = {
                    k: np.asarray([r[k] for r in results])
                    for k in spec.float_out + spec.int_out}
                cols["_records"] = results
            else:
                res = spec.columns(**g.structural, **g.columns)
                cols = {k: np.broadcast_to(res[k], g.rows.shape)
                        for k in names}
            out.append((g, cols))
        if m.enabled:
            m.inc("batch.rows", self.n)
            m.inc("batch.groups", len(self.groups))
        return out

    def evaluate(self) -> Dict[str, np.ndarray]:
        """Output columns over the full batch, in input-row order."""
        spec = _RUNNERS[self.runner]
        out: Dict[str, np.ndarray] = {
            k: np.empty(self.n) for k in spec.float_out}
        out.update({k: np.empty(self.n, np.int64) for k in spec.int_out})
        for g, cols in self._group_outputs():
            for k in spec.float_out + spec.int_out:
                out[k][g.rows] = cols[k]
        return out

    def records(self) -> List[Dict[str, Any]]:
        """Exact per-scenario result dicts (the scalar oracle's shapes)."""
        spec = _RUNNERS[self.runner]
        results: List[Optional[Dict[str, Any]]] = [None] * self.n
        names = spec.float_out + spec.int_out + spec.extra_out
        for g, cols in self._group_outputs():
            if "_records" in cols:
                for i, r in zip(g.rows, cols["_records"]):
                    results[i] = r
                continue
            for j, i in enumerate(g.rows):
                row = {}
                for k in names:
                    v = cols[k][j]
                    row[k] = int(v) if k in spec.int_out else float(v)
                results[i] = spec.record(g.structural, row)
        return results


def evaluate_batch_records(runner: str,
                           params_list: Sequence[Mapping[str, Any]]
                           ) -> Optional[List[Dict[str, Any]]]:
    """Batch-evaluate a runner's scenarios; ``None`` if unsupported."""
    if runner not in _RUNNERS or not params_list:
        return None
    return ScenarioBatch.from_params(runner, params_list).records()
