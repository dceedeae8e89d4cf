"""Spec-layer tests: grids, canonicalization, and hash stability.

The content-addressed store only works if a spec's key is *stable* —
identical across param orderings, processes, and machines — and
*sensitive* — any changed field yields a new key.  Both properties are
pinned here, including a subprocess check for cross-process stability.
"""

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import (
    SCHEMA_VERSION,
    ScenarioSpec,
    SweepSpec,
    grid_params,
    scenario,
    sweep_with_backend,
    zip_params,
)
from repro.experiments.specs import canonical_json


def test_grid_params_cartesian_order():
    combos = grid_params(batch=(1, 2), tables=(64, 256))
    assert combos == [
        {"batch": 1, "tables": 64}, {"batch": 1, "tables": 256},
        {"batch": 2, "tables": 64}, {"batch": 2, "tables": 256},
    ]


def test_grid_params_scalar_broadcast():
    assert grid_params(batch=(1, 2), world=4) == [
        {"batch": 1, "world": 4}, {"batch": 2, "world": 4}]


def test_zip_params():
    assert zip_params(batch=(512, 1024), tables=(64, 256)) == [
        {"batch": 512, "tables": 64}, {"batch": 1024, "tables": 256}]
    with pytest.raises(ValueError):
        zip_params(a=(1, 2), b=(1, 2, 3))


def test_params_canonical_under_ordering():
    a = scenario("r", x=1, y=2)
    b = scenario("r", y=2, x=1)
    assert a == b
    assert a.key() == b.key()
    assert hash(a) == hash(b)


def test_params_must_be_jsonable():
    with pytest.raises(TypeError):
        scenario("r", bad=object())


def test_key_sensitivity():
    base = scenario("r", x=1, y=2)
    assert base.key() != scenario("r", x=1, y=3).key()        # value change
    assert base.key() != scenario("r", x=1).key()             # field removed
    assert base.key() != scenario("r2", x=1, y=2).key()       # runner change
    assert base.key() != scenario("r", x=1, y=2, z=0).key()   # field added


def test_label_excluded_from_key():
    assert (scenario("r", label="a", x=1).key()
            == scenario("r", label="b", x=1).key())


def test_with_params_overrides():
    spec = scenario("r", x=1, y=2)
    bumped = spec.with_params(y=3)
    assert bumped.params == {"x": 1, "y": 3}
    assert bumped.key() != spec.key()
    assert spec.params == {"x": 1, "y": 2}      # original untouched


def test_stable_seed_deterministic_and_distinct():
    a = scenario("r", x=1)
    assert a.stable_seed() == scenario("r", x=1).stable_seed()
    assert a.stable_seed() != scenario("r", x=2).stable_seed()
    assert 0 <= a.stable_seed() < 2 ** 64


def test_key_stable_across_processes():
    """Same spec hashed in a fresh interpreter yields the same key."""
    spec = scenario("embedding_a2a_pair", label="x",
                    global_batch=1024, tables_per_gpu=64,
                    num_nodes=2, gpus_per_node=1)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    code = (
        "from repro.experiments import scenario;"
        "print(scenario('embedding_a2a_pair', label='other',"
        " global_batch=1024, tables_per_gpu=64, num_nodes=2,"
        " gpus_per_node=1).key())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == spec.key()


def test_sweep_key_covers_scenarios_and_assembly():
    def make(**kw):
        defaults = dict(name="s", title="T",
                        scenarios=[scenario("r", label="a", x=1)],
                        assembler="rows")
        defaults.update(kw)
        return SweepSpec.make(**defaults)

    base = make()
    assert base.key() == make().key()
    assert base.key() != make(scenarios=[scenario("r", label="a", x=2)]).key()
    assert base.key() != make(assembler="table").key()
    assert base.key() != make(figure="Fig. 1").key()   # assembler params


def test_schema_version_feeds_key(monkeypatch):
    spec = scenario("r", x=1)
    before = spec.key()
    monkeypatch.setattr("repro.experiments.specs.SCHEMA_VERSION",
                        SCHEMA_VERSION + 1)
    assert spec.key() != before


# -- one key per spec ------------------------------------------------------

#: JSON-representable parameter values: non-ASCII text, every float
#: (NaN and infinities included, as ``json`` encodes them), bools, None,
#: and nested lists/objects.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)
#: ``ScenarioSpec.make``'s own argument names cannot be parameter names.
_param_names = st.text().filter(lambda k: k not in ("cls", "runner", "label"))


@given(runner=st.text(min_size=1),
       params=st.dictionaries(_param_names, _json_values, max_size=6))
@settings(max_examples=200, deadline=None)
def test_spliced_key_equals_canonical_record_hash(runner, params):
    """The key splices ``params_json`` into the record envelope; its bytes
    must equal the canonical encoding of the whole record."""
    spec = ScenarioSpec.make(runner, **params)
    record = canonical_json({"schema": SCHEMA_VERSION, "runner": runner,
                             "params": params})
    assert spec.key() == hashlib.sha256(record.encode("utf-8")).hexdigest()
    assert spec.key() == spec.key()


def test_copies_get_fresh_keys():
    """A memoized key never leaks into a copy with different fields."""
    spec = scenario("r", label="a", x=1)
    key = spec.key()
    assert spec.with_params(x=2).key() == scenario("r", x=2).key() != key
    assert (spec.with_backend("analytic").key()
            == scenario("r", x=1, backend="analytic").key() != key)
    assert (spec.with_algo("ring").key()
            == scenario("r", x=1, algo="ring").key() != key)
    assert (dataclasses.replace(spec, runner="r2").key()
            == scenario("r2", x=1).key() != key)
    assert dataclasses.replace(spec, label="b").key() == key
    assert spec.with_backend("analytic").with_backend("sim").key() == key

    sweep = SweepSpec.make("s", "T", [spec], assembler="rows")
    sweep_key = sweep.key()
    assert sweep_with_backend(sweep, "analytic").key() != sweep_key
    assert dataclasses.replace(sweep, name="s2").key() != sweep_key
    assert sweep_with_backend(sweep, "sim").key() == sweep_key


def test_pickle_roundtrip_keeps_key_and_equality():
    """Spawn workers receive pickled specs, with or without a memoized
    key; either way the clone equals the original and hashes alike."""
    hashed = scenario("r", label="a", x=1.5, name="na\u00efve")
    hashed.key()
    fresh = scenario("r", label="b", x=[1, {"y": None}])
    for spec in (hashed, fresh):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.key() == spec.key()
    sweep = SweepSpec.make("s", "T", [hashed, fresh], assembler="rows")
    sweep.key()
    clone = pickle.loads(pickle.dumps(sweep))
    assert clone == sweep and clone.key() == sweep.key()
