"""Vectorized Pareto frontier vs the legacy all-pairs oracle, plus the
successive-refinement explorer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pareto_frontier_legacy
from repro.analytic.explorer import (
    dominates,
    pareto_frontier,
    pareto_mask,
    refine,
)


def _random_grid(rng, n, k, levels):
    # Quantized values force plenty of exact ties and duplicate rows.
    return rng.integers(0, levels, size=(n, k)).astype(float)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("levels", [3, 8, 50])
def test_matches_legacy_on_random_grids(k, levels):
    rng = np.random.default_rng(20240807 + 10 * k + levels)
    for n in (1, 2, 17, 200):
        objs = _random_grid(rng, n, k, levels)
        items = list(range(n))
        got = pareto_frontier(items, lambda i: tuple(objs[i]))
        want = pareto_frontier_legacy(items, lambda i: tuple(objs[i]))
        assert got == want


INF, NAN = float("inf"), float("nan")

# Any float, NaN and ±inf included, mixed with a small pool of special
# values so that exact ties, signed zeros and duplicate rows are common.
_objective = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [NAN, -INF, INF, -0.0, 0.0, 1.0, 2.0, 3.0])


def _assert_matches_legacy(pts):
    items = list(range(len(pts)))
    got = pareto_frontier(items, lambda i: pts[i])
    want = pareto_frontier_legacy(items, lambda i: pts[i])
    assert got == want


@given(st.lists(st.tuples(_objective), min_size=0, max_size=60))
@example([(NAN,), (1.0,), (2.0,)])
@settings(max_examples=60, deadline=None)
def test_matches_legacy_on_float_singles(pts):
    _assert_matches_legacy(pts)


@given(st.lists(st.tuples(_objective, _objective), min_size=0, max_size=60))
@example([(0.0, INF)])
@example([(1.0, 3.0), (-INF, INF)])
@example([(NAN, 1.0), (NAN, 2.0), (0.0, 5.0)])
@settings(max_examples=60, deadline=None)
def test_matches_legacy_on_float_pairs(pts):
    _assert_matches_legacy(pts)


@given(st.lists(st.tuples(_objective, _objective, _objective),
                min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_matches_legacy_on_float_triples(pts):
    _assert_matches_legacy(pts)


@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.tuples(st.integers(0, 3),
              st.tuples(*[st.sampled_from([NAN, -INF, INF, 0.0, 1.0, 2.0])]
                        * k)),
    min_size=1, max_size=60)))
@settings(max_examples=80, deadline=None)
def test_global_frontier_is_frontier_of_group_frontier_union(rows):
    """The Pareto subset of the union of per-group frontiers is exactly
    the Pareto subset of all rows (the mega assembler's shortcut)."""
    groups = np.array([g for g, _ in rows])
    objs = np.array([o for _, o in rows], float)
    union = np.concatenate([
        np.flatnonzero(groups == g)[pareto_mask(objs[groups == g])]
        for g in np.unique(groups)])
    got = np.sort(union[pareto_mask(objs[union])])
    assert got.tolist() == np.flatnonzero(pareto_mask(objs)).tolist()


def test_keeps_input_order_and_duplicates():
    pts = [(2.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (1.0, 2.0)]
    items = ["a", "b", "c", "d", "e"]
    got = pareto_frontier(items, lambda it: pts[items.index(it)])
    assert got == ["a", "b", "c", "e"]


def test_mask_semantics_match_dominates():
    rng = np.random.default_rng(7)
    objs = _random_grid(rng, 80, 3, 5)
    mask = pareto_mask(objs)
    for i in range(len(objs)):
        dominated = any(dominates(tuple(objs[j]), tuple(objs[i]))
                        for j in range(len(objs)) if j != i)
        assert mask[i] == (not dominated)


def test_mask_single_objective_and_empty():
    assert pareto_mask(np.zeros((0, 2))).shape == (0,)
    mask = pareto_mask(np.array([[3.0], [1.0], [1.0], [2.0]]))
    assert mask.tolist() == [False, True, True, False]
    with pytest.raises(ValueError):
        pareto_mask(np.zeros(4))


def test_mask_is_fast_enough_for_mega_grids():
    rng = np.random.default_rng(11)
    objs = rng.random((200_000, 2))
    mask = pareto_mask(objs)
    # Random uniform squares have tiny frontiers; just sanity-check shape
    # and that the frontier is mutually non-dominated.
    front = objs[mask]
    assert 1 <= len(front) < 100
    assert pareto_mask(front).all()


def test_refine_converges_on_analytic_objective():
    # Frontier of (f1, f2) = ((x-2)^2 + y^2, x^2 + (y-2)^2) is the segment
    # between (2, 0) and (0, 2); refinement should approach both ends.
    def objective(cols):
        x, y = cols["x"], cols["y"]
        return np.stack([(x - 2.0) ** 2 + y ** 2,
                         x ** 2 + (y - 2.0) ** 2], axis=1)

    coarse = refine(objective, {"x": (-4.0, 4.0), "y": (-4.0, 4.0)},
                    rounds=1, grid=5)
    fine = refine(objective, {"x": (-4.0, 4.0), "y": (-4.0, 4.0)},
                  rounds=4, grid=5)
    best_f1 = min(obj[0] for _, obj in fine)
    best_f2 = min(obj[1] for _, obj in fine)
    assert best_f1 <= min(obj[0] for _, obj in coarse)
    assert best_f1 < 0.05 and best_f2 < 0.05
    # Every returned point is mutually non-dominated.
    objs = np.array([obj for _, obj in fine])
    assert pareto_mask(objs).all()


def test_refine_validates_arguments():
    def objective(cols):
        return np.stack([cols["x"], -cols["x"]], axis=1)

    with pytest.raises(ValueError):
        refine(objective, {}, rounds=1)
    with pytest.raises(ValueError):
        refine(objective, {"x": (1.0, 0.0)})
    with pytest.raises(ValueError):
        refine(objective, {"x": (0.0, 1.0)}, rounds=0)


def test_refine_over_generic_platform_geometry():
    # The ISSUE's headline use: search generic() GPU geometry for designs
    # trading fused latency against CU count (a cost proxy).
    from repro.analytic import predict_embedding_a2a
    from repro.hw.platform import generic

    def objective(cols):
        out = np.empty((len(cols["num_cus"]), 2))
        for i, (cus, bw) in enumerate(zip(cols["num_cus"], cols["hbm_tbps"])):
            plat = generic("probe", num_cus=int(round(cus)),
                           hbm_bandwidth=float(bw) * 1e12)
            rec = predict_embedding_a2a(
                num_nodes=1, gpus_per_node=4, global_batch=4096,
                tables_per_gpu=16, platform=plat)
            out[i] = (rec["fused_time"], float(cus))
        return out

    front = refine(objective, {"num_cus": (64.0, 160.0),
                               "hbm_tbps": (1.0, 2.0)},
                   rounds=2, grid=3, max_regions=2)
    assert front
    objs = np.array([obj for _, obj in front])
    assert pareto_mask(objs).all()
    for point, _ in front:
        assert 64.0 <= point["num_cus"] <= 160.0
        assert 1.0 <= point["hbm_tbps"] <= 2.0
