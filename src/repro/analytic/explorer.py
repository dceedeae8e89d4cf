"""Design-space exploration helpers: Pareto frontiers over sweep results.

The analytic backend makes grids of thousands of scenarios cheap — and the
vectorized mega-batch engine (:mod:`repro.analytic.batch`) grids of
*millions* — so the frontier extraction itself must scale too.
:func:`pareto_mask` finds the non-dominated subset of an ``(n, k)``
objective array in ``O(n log n)`` for two objectives (one stable sort
plus a prefix-minimum scan) and a sorted frontier-scan for ``k > 2``;
:func:`pareto_frontier` keeps the historical item-level API on top of it.

:func:`refine` adds the first *search-driven* explorer: Pareto-guided
successive grid refinement over continuous axes (for example the
``repro.hw.platform.generic`` geometry knobs ``num_cus`` /
``hbm_bandwidth`` / ``fp16_flops``), shrinking a lattice around each
frontier point every round.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

__all__ = ["dominates", "pareto_frontier", "pareto_mask", "refine"]

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if objective vector ``a`` dominates ``b``.

    Objectives are *minimized*: ``a`` dominates ``b`` when it is no worse
    on every axis and strictly better on at least one.  Flip the sign of
    any axis the caller wants maximized.
    """
    if len(a) != len(b):
        raise ValueError(f"objective lengths differ: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b))


def pareto_mask(objs: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an ``(n, k)`` array.

    Same dominance semantics as :func:`dominates` (minimize every column;
    duplicate rows are all non-dominated; ``±inf`` are ordinary values).
    A row with any NaN objective compares False against everything, so,
    exactly as :func:`dominates` says, it is never dominated and
    dominates nothing: such rows are kept and the rest are scanned
    without them.  ``k == 2`` runs in ``O(n log n)``; larger ``k`` falls
    back to a sorted scan against the growing frontier, which is
    near-linear for typical frontier sizes.
    """
    objs = np.asarray(objs, np.float64)
    if objs.ndim != 2:
        raise ValueError("objs must be 2-D (n points x k objectives)")
    n, k = objs.shape
    if n == 0:
        return np.zeros(0, bool)
    if k == 0:
        raise ValueError("need at least one objective")
    nan = np.isnan(objs)
    if nan.any():
        clean = ~nan.any(axis=1)
        mask = np.ones(n, bool)
        mask[clean] = pareto_mask(objs[clean])
        return mask
    if k == 1:
        return objs[:, 0] == objs[:, 0].min()
    if k == 2:
        return _pareto_mask_2d(objs[:, 0], objs[:, 1])
    # General k: a dominator always sorts lexicographically earlier, and
    # any dominated point is dominated by some frontier member, so one
    # pass against the accumulated frontier suffices.
    order = np.lexsort(tuple(objs[:, j] for j in reversed(range(k))))
    dominated = np.zeros(n, bool)
    frontier = np.empty((0, k))
    for idx in order:
        p = objs[idx]
        if frontier.shape[0] and np.any(
                np.all(frontier <= p, axis=1)
                & np.any(frontier < p, axis=1)):
            dominated[idx] = True
        else:
            frontier = np.vstack([frontier, p[None, :]])
    return ~dominated


def _pareto_mask_2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-objective mask (NaN-free input): one stable sort by ``a`` plus
    a prefix-minimum scan.

    A point is dominated iff some strictly-smaller-``a`` point has
    ``b <=`` its own (the prefix minimum over the earlier ``a`` groups),
    or a same-``a`` point has strictly smaller ``b`` (the group minimum,
    one ``reduceat``).  The first group's prefix is NaN, which compares
    False, so nothing before it can dominate — even at ``b == +inf``."""
    order = np.argsort(a, kind="stable")
    a_s, b_s = a[order], b[order]
    new_group = np.r_[True, a_s[1:] != a_s[:-1]]
    group_min_b = np.minimum.reduceat(b_s, np.flatnonzero(new_group))
    gid = np.cumsum(new_group) - 1
    prev_min = np.r_[np.nan, np.minimum.accumulate(group_min_b)[:-1]][gid]
    dominated = np.empty(len(a), bool)
    dominated[order] = (prev_min <= b_s) | (group_min_b[gid] < b_s)
    return ~dominated


def pareto_frontier(items: Sequence[T],
                    objectives: Callable[[T], Tuple[float, ...]]
                    ) -> List[T]:
    """Non-dominated subset of ``items`` under minimized ``objectives``.

    Stable: frontier members keep their input order.  Duplicate objective
    vectors are all kept (none strictly improves on the other), so
    distinct configurations with identical predicted metrics stay visible.
    """
    if not items:
        return []
    objs = np.asarray([tuple(objectives(it)) for it in items], np.float64)
    if objs.ndim != 2:
        raise ValueError("objectives must all have the same length")
    keep = pareto_mask(objs)
    return [it for it, k in zip(items, keep) if k]


def refine(objective_fn: Callable[[Dict[str, np.ndarray]], np.ndarray],
           axes: Mapping[str, Tuple[float, float]], *,
           rounds: int = 3, grid: int = 6, max_regions: int = 8
           ) -> List[Tuple[Dict[str, float], Tuple[float, ...]]]:
    """Pareto-guided successive grid refinement over continuous axes.

    ``axes`` maps axis name to inclusive ``(lo, hi)`` bounds — e.g. the
    :func:`repro.hw.platform.generic` geometry knobs.  Each round lays a
    ``grid``-point lattice per axis over every active region, evaluates
    all lattice points in one ``objective_fn`` call (``dict of 1-D
    columns -> (n, k) minimized-objective array``), and shrinks a
    half-span box around each of the best ``max_regions`` frontier points
    for the next round.  Returns the Pareto frontier over *every* point
    evaluated in any round, as ``(point, objectives)`` pairs in
    evaluation order.
    """
    if rounds < 1 or grid < 2 or max_regions < 1:
        raise ValueError("rounds >= 1, grid >= 2, max_regions >= 1")
    names = list(axes)
    if not names:
        raise ValueError("need at least one axis")
    for name, (lo, hi) in axes.items():
        if not lo <= hi:
            raise ValueError(f"axis {name!r}: lo must be <= hi")
    regions: List[Dict[str, Tuple[float, float]]] = [dict(axes)]
    all_cols: Dict[str, List[np.ndarray]] = {k: [] for k in names}
    all_objs: List[np.ndarray] = []
    for _ in range(rounds):
        cols = {k: [] for k in names}
        for region in regions:
            lattices = [np.linspace(region[k][0], region[k][1], grid)
                        for k in names]
            mesh = np.meshgrid(*lattices, indexing="ij")
            for k, m in zip(names, mesh):
                cols[k].append(m.ravel())
        round_cols = {k: np.concatenate(v) for k, v in cols.items()}
        objs = np.asarray(objective_fn(round_cols), np.float64)
        if objs.ndim != 2 or objs.shape[0] != len(round_cols[names[0]]):
            raise ValueError("objective_fn must return an (n, k) array")
        for k in names:
            all_cols[k].append(round_cols[k])
        all_objs.append(objs)
        # Shrink a half-span box around each frontier point (best first
        # by the first objective, capped at max_regions), clipped to the
        # original bounds.
        front = np.flatnonzero(pareto_mask(objs))
        front = front[np.argsort(objs[front, 0], kind="stable")]
        spans = {k: (regions[0][k][1] - regions[0][k][0]) / 2
                 for k in names}
        next_regions = []
        for idx in front[:max_regions]:
            box = {}
            for k in names:
                c = round_cols[k][idx]
                half = spans[k] / 2
                lo = max(axes[k][0], c - half)
                hi = min(axes[k][1], c + half)
                box[k] = (lo, hi)
            next_regions.append(box)
        regions = next_regions or regions
    merged = {k: np.concatenate(v) for k, v in all_cols.items()}
    objs = np.concatenate(all_objs, axis=0)
    keep = np.flatnonzero(pareto_mask(objs))
    return [({k: float(merged[k][i]) for k in names},
             tuple(float(x) for x in objs[i])) for i in keep]
