"""Sweep-registry tests: lazy built-in sweeps and registration checks.

The built-in sweeps are registered as name, title and factory; each is
built on its first lookup.  Start-up (``ensure_registered``, as every CLI
call and spawn worker runs it) must build none of them, and the checks
``register_sweep`` always made must still hold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import register_sweep, scenario
from repro.experiments.registry import (
    SWEEPS,
    get_sweep,
    register_sweep_factory,
)
from repro.experiments.specs import SweepSpec

SRC = Path(__file__).resolve().parents[2] / "src"

# Runs in a fresh interpreter: records the name of every SweepSpec built,
# before and after looking up fig9.
_SPY = """
import json
from repro.experiments import specs
built = []
post_init = specs.SweepSpec.__post_init__
def spy(self):
    built.append(self.name)
    post_init(self)
specs.SweepSpec.__post_init__ = spy
from repro.experiments.registry import ensure_registered, get_sweep, SWEEPS
ensure_registered()
at_start = list(built)
fig9 = get_sweep("fig9")
print(json.dumps({"registered": len(SWEEPS), "at_start": at_start,
                  "after_fig9": built, "fig9": [fig9.name, len(fig9)],
                  "again": get_sweep("fig9") is fig9}))
"""


def test_start_up_builds_no_sweep_and_lookup_builds_one():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", _SPY], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["registered"] == 27
    assert out["at_start"] == []
    assert out["after_fig9"] == ["fig9"]
    assert out["fig9"] == ["fig9", 8]
    assert out["again"] is True


def _dupes(name="test-lazy-dupes"):
    return SweepSpec.make(
        name, "T",
        [scenario("r", label="same", x=1), scenario("r", label="same", x=2)],
        assembler="rows")


def test_duplicate_sweep_name_rejected_at_registration():
    get_sweep("smoke")                      # a built entry
    with pytest.raises(ValueError, match="'smoke' already registered"):
        register_sweep(SweepSpec.make("smoke", "T", [], assembler="rows"))
    with pytest.raises(ValueError, match="'fig9' already registered"):
        register_sweep_factory("fig9", "Fig. 9", _dupes)
    register_sweep_factory("test-lazy-once", "T", _dupes)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_sweep_factory("test-lazy-once", "T", _dupes)
        with pytest.raises(ValueError, match="already registered"):
            register_sweep(_dupes("test-lazy-once"))
    finally:
        SWEEPS.pop("test-lazy-once")


def test_duplicate_labels_rejected_when_first_built():
    with pytest.raises(ValueError) as eager:
        register_sweep(_dupes())
    assert "test-lazy-dupes" not in SWEEPS
    register_sweep_factory("test-lazy-dupes", "T", _dupes)
    try:
        for _ in range(2):                  # a failed build is not cached
            with pytest.raises(ValueError) as lazy:
                get_sweep("test-lazy-dupes")
            assert str(lazy.value) == str(eager.value) == (
                "sweep 'test-lazy-dupes' has duplicate scenario labels: "
                "['same']")
    finally:
        SWEEPS.pop("test-lazy-dupes")


def test_factory_must_build_the_registered_sweep():
    register_sweep_factory("test-lazy-misnamed", "T",
                           lambda: _dupes("something-else"))
    try:
        with pytest.raises(ValueError, match="built 'something-else'"):
            get_sweep("test-lazy-misnamed")
    finally:
        SWEEPS.pop("test-lazy-misnamed")
