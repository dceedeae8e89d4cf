"""Property-based tests for execution-graph scheduling invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.astra import ExecutionGraph
from oracles import graph_simulate_legacy


@st.composite
def random_dag(draw):
    """A random DAG: each node may depend on earlier nodes only."""
    n = draw(st.integers(1, 15))
    nodes = []
    for i in range(n):
        kind = draw(st.sampled_from(["comp", "net", "fused"]))
        dur = draw(st.floats(0.0, 10.0, allow_nan=False))
        n_deps = draw(st.integers(0, min(i, 3)))
        deps = sorted(set(draw(st.lists(st.integers(0, i - 1),
                                        min_size=n_deps, max_size=n_deps))
                          )) if i else []
        nodes.append((f"n{i}", kind, dur, [f"n{d}" for d in deps]))
    return nodes


@given(random_dag())
@settings(max_examples=60, deadline=None)
def test_makespan_lower_bounds(dag):
    g = ExecutionGraph()
    for name, kind, dur, deps in dag:
        g.add(name, kind, dur, deps=deps)
    total, spans = g.simulate()

    # Bound 1: makespan >= critical (dependency) path length.
    cp = g.critical_path()
    durs = {name: dur for name, _k, dur, _d in dag}
    assert total >= sum(durs[n] for n in cp) - 1e-9

    # Bound 2: makespan >= per-resource work sums (fused uses both).
    comp = sum(d for _n, k, d, _ in dag if k in ("comp", "fused"))
    net = sum(d for _n, k, d, _ in dag if k in ("net", "fused"))
    assert total >= max(comp, net) - 1e-9


@given(random_dag())
@settings(max_examples=60, deadline=None)
def test_spans_respect_dependencies_and_resources(dag):
    g = ExecutionGraph()
    for name, kind, dur, deps in dag:
        g.add(name, kind, dur, deps=deps)
    total, spans = g.simulate()
    kinds = {name: kind for name, kind, _d, _deps in dag}

    for name, kind, dur, deps in dag:
        start, end = spans[name]
        assert end == pytest.approx(start + dur)
        for d in deps:
            assert start >= spans[d][1] - 1e-9  # after dependencies

    # No two nodes sharing a resource overlap.
    res_of = {"comp": {"comp"}, "net": {"net"}, "fused": {"comp", "net"}}
    names = list(spans)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if res_of[kinds[a]] & res_of[kinds[b]]:
                sa, ea = spans[a]
                sb, eb = spans[b]
                assert ea <= sb + 1e-9 or eb <= sa + 1e-9, (a, b)


@st.composite
def tied_dag(draw):
    """A random DAG whose durations come from a small pool, so that equal
    start times are common.  Ints and NaN are in the pool too: with them
    the order of ``max``'s arguments and of the start comparisons shows
    in the result."""
    n = draw(st.integers(1, 14))
    g = ExecutionGraph()
    for i in range(n):
        deps = draw(st.lists(st.integers(0, i - 1), max_size=min(i, 3))
                    ) if i else []
        g.add(f"n{i}", draw(st.sampled_from(["comp", "net", "fused"])),
              draw(st.sampled_from([0, 0.0, 1, 1.0, 0.5, 2.0, 3, math.nan])),
              deps=[f"n{d}" for d in deps])
    return g


@given(tied_dag())
@settings(max_examples=300, deadline=None)
def test_ready_list_schedule_matches_legacy_scan(g):
    """Same picks, times and types as rescanning every pending node:
    makespan and spans equal by ``repr``, spans in the same key order."""
    total, spans = g.simulate()
    want_total, want_spans = graph_simulate_legacy(g)
    assert repr(total) == repr(want_total)
    assert repr(list(spans.items())) == repr(list(want_spans.items()))
