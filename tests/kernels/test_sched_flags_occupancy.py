"""Tests for scheduling policies, WG-done bitmask, and occupancy helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import MI210, Gpu, KernelResources, WgCost
from repro.kernels import (
    WgDoneBitmask,
    WgTask,
    comm_aware_order,
    get_scheduler,
    max_active_wgs,
    oblivious_order,
    occupancy_sweep_points,
)
from repro.sim import Simulator


def make_tasks(pattern):
    """pattern: string of 'R'/'L' -> remote/local tasks in order."""
    return [WgTask(task_id=i, cost=WgCost(bytes=1.0),
                   meta={"remote": ch == "R"})
            for i, ch in enumerate(pattern)]


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------

def test_oblivious_preserves_order():
    tasks = make_tasks("LRLR")
    assert [t.task_id for t in oblivious_order(tasks)] == [0, 1, 2, 3]


def test_comm_aware_puts_remote_first():
    tasks = make_tasks("LRLR")
    assert [t.task_id for t in comm_aware_order(tasks)] == [1, 3, 0, 2]


def test_comm_aware_is_stable_within_groups():
    tasks = make_tasks("RRLLRR")
    ordered = comm_aware_order(tasks)
    remote_ids = [t.task_id for t in ordered if t.is_remote]
    local_ids = [t.task_id for t in ordered if not t.is_remote]
    assert remote_ids == [0, 1, 4, 5]
    assert local_ids == [2, 3]


def test_get_scheduler():
    assert get_scheduler("comm_aware") is comm_aware_order
    assert get_scheduler("oblivious") is oblivious_order
    with pytest.raises(KeyError):
        get_scheduler("bogus")


@given(st.lists(st.booleans(), min_size=1, max_size=50))
def test_comm_aware_is_a_permutation(flags):
    tasks = [WgTask(task_id=i, cost=WgCost(bytes=1.0), meta={"remote": f})
             for i, f in enumerate(flags)]
    ordered = comm_aware_order(tasks)
    assert sorted(t.task_id for t in ordered) == list(range(len(flags)))
    # No local task may precede any remote task.
    seen_local = False
    for t in ordered:
        if not t.is_remote:
            seen_local = True
        elif seen_local:
            pytest.fail("remote task after a local task")


# ---------------------------------------------------------------------------
# WG-done bitmask
# ---------------------------------------------------------------------------

def test_bitmask_last_wg_detection():
    bm = WgDoneBitmask()
    bm.register(0, n_wgs=3)
    assert bm.set_done(0, 0) is False
    assert bm.set_done(0, 2) is False
    assert bm.set_done(0, 1) is True
    assert bm.is_complete(0)


def test_bitmask_single_wg_slice():
    bm = WgDoneBitmask()
    bm.register(5, n_wgs=1)
    assert bm.set_done(5, 0) is True


def test_bitmask_double_completion_rejected():
    bm = WgDoneBitmask()
    bm.register(0, 2)
    bm.set_done(0, 1)
    with pytest.raises(ValueError, match="twice"):
        bm.set_done(0, 1)


def test_bitmask_validation():
    bm = WgDoneBitmask()
    with pytest.raises(ValueError):
        bm.register(0, 0)
    bm.register(0, 2)
    with pytest.raises(ValueError):
        bm.register(0, 2)
    with pytest.raises(KeyError):
        bm.set_done(1, 0)
    with pytest.raises(ValueError):
        bm.set_done(0, 5)


def test_bitmask_pending_slices():
    bm = WgDoneBitmask()
    bm.register(0, 1)
    bm.register(1, 2)
    bm.set_done(0, 0)
    assert bm.pending_slices() == [1]
    assert len(bm) == 2


@given(n_wgs=st.integers(1, 32), data=st.data())
@settings(max_examples=50)
def test_bitmask_exactly_one_last_wg(n_wgs, data):
    """For any completion order there is exactly one 'last' WG."""
    order = data.draw(st.permutations(range(n_wgs)))
    bm = WgDoneBitmask()
    bm.register(0, n_wgs)
    lasts = [bm.set_done(0, i) for i in order]
    assert sum(lasts) == 1
    assert lasts[-1] is True


# ---------------------------------------------------------------------------
# Occupancy helpers
# ---------------------------------------------------------------------------

def test_max_active_wgs_matches_gpu():
    gpu = Gpu(Simulator(), MI210, gpu_id=0)
    res = KernelResources(256, 64)
    assert max_active_wgs(gpu, res) == gpu.occupancy(res).resident_wgs


def test_occupancy_sweep_points_match_fig13():
    pts = occupancy_sweep_points()
    assert pts == pytest.approx([0.875 / 6 * i for i in range(1, 7)])
    assert pts[-1] == pytest.approx(0.875)
    with pytest.raises(ValueError):
        occupancy_sweep_points(steps=1)
    with pytest.raises(ValueError):
        occupancy_sweep_points(max_fraction=0.0)
