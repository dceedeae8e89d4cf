"""``_canonical_result`` against the JSON round trip it replaces.

Every runner result passes through it before any consumer sees it, so it
must return what ``json.loads(json.dumps(result))`` returns — the same
types, the same float bits, the same key order — and raise the same
exception type wherever the round trip raises.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.execution import _canonical_result


def _round_trip(value):
    """``(result, None)`` of the JSON round trip, or ``(None, exc type)``."""
    try:
        return json.loads(json.dumps(value)), None
    except Exception as exc:        # compared by type below
        return None, type(exc)


def _assert_identical(got, want):
    """Equal to the bit: same types, float bits, key order and nesting."""
    assert type(got) is type(want)
    if type(want) is float:
        assert struct.pack("<d", got) == struct.pack("<d", want)
    elif type(want) is dict:
        assert list(got) == list(want)
        for k in want:
            _assert_identical(got[k], want[k])
    elif type(want) is list:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_identical(g, w)
    else:
        assert got == want


def _check(result):
    want, exc = _round_trip(result)
    if exc is not None:
        with pytest.raises(exc):
            _canonical_result(result)
    else:
        _assert_identical(_canonical_result(result), want)


scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.integers(), st.integers(-(1 << 200), 1 << 200),
    st.floats(), st.sampled_from([math.nan, -math.nan, math.inf, -math.inf,
                                  -0.0, 0.0, 1e308, 5e-324]),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-100, 100).map(np.int64),
    st.just(object()), st.just({1, 2}), st.just(b"x"), st.just(1j))
keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                 st.none(), st.floats(allow_nan=False, width=16),
                 st.just((1, 2)))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4)),
    max_leaves=16)


@given(st.dictionaries(st.text(max_size=6), values, max_size=5))
@settings(max_examples=400, deadline=None)
def test_matches_json_round_trip(result):
    _check(result)


@given(st.dictionaries(keys, values, max_size=5))
@settings(max_examples=200, deadline=None)
def test_matches_json_round_trip_on_any_keys(result):
    _check(result)


@pytest.mark.parametrize("result", [
    {"a": {1: "int key", "1": "str key"}},      # the round trip's collision
    {"big": 10 ** 5000},                        # beyond int-to-str digits
    {"big": -(1 << 63)}, {"big": 1 << 63}, {"ok": (1 << 63) - 1},
    {"deep": json.loads("[" * 200 + "]" * 200)},
    {"np": np.float64(-0.0), "nan": np.float64("nan")},
    {"t": (1, (2.5, [None, True]))},
])
def test_edge_values(result):
    _check(result)


def test_circular_references_raise_like_json():
    d = {"x": 1.0}
    d["self"] = d
    lst = [1.0]
    lst.append(lst)
    for result in (d, {"list": lst}):
        with pytest.raises(ValueError, match="Circular reference"):
            json.dumps(result)
        with pytest.raises(ValueError, match="Circular reference"):
            _canonical_result(result)


def test_copy_shares_no_container_with_the_result():
    result = {"rows": [[1.0, 2.0]], "meta": {"k": "v"}}
    out = _canonical_result(result)
    result["rows"][0].append(3.0)
    result["meta"]["k"] = "changed"
    assert out == {"rows": [[1.0, 2.0]], "meta": {"k": "v"}}
