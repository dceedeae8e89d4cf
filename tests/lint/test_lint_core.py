"""Engine unit tests: suppression parsing, findings, file lookups."""

from pathlib import Path

from repro.lint import Finding, SourceFile, run_lint
from repro.lint.names import import_aliases, resolve_call

FIXTURE = Path(__file__).parent / "fixtures" / "tree"


def _source(tmp_path, text, rel="src/repro/mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return SourceFile(tmp_path, path)


def test_suppression_parsing(tmp_path):
    src = _source(tmp_path, (
        "a = 1  # repro-lint: ignore[determinism]\n"
        "b = 2  # repro-lint: ignore[determinism, hot-path-guards]\n"
        "c = 3  # repro-lint: ignore\n"
        "d = 4  # unrelated comment\n"))
    assert src.suppressed(1, "determinism")
    assert not src.suppressed(1, "layering")
    assert src.suppressed(2, "hot-path-guards")
    assert src.suppressed(3, "determinism") and src.suppressed(3, "layering")
    assert not src.suppressed(4, "determinism")
    assert not src.suppressed(99, "determinism")


def test_module_name_derivation(tmp_path):
    assert _source(tmp_path, "", "src/repro/sim/engine.py").module \
        == "repro.sim.engine"
    assert _source(tmp_path, "", "src/repro/lint/__init__.py").module \
        == "repro.lint"


def test_finding_render_and_order():
    a = Finding("a.py", 3, "determinism", "x")
    b = Finding("a.py", 3, "layering", "x")
    c = Finding("b.py", 1, "determinism", "x")
    assert sorted([c, b, a]) == [a, b, c]
    assert a.render() == "a.py:3: [determinism] x"
    assert a.to_dict() == {"file": "a.py", "line": 3,
                           "rule": "determinism", "message": "x"}


def test_rules_subset_runs_only_selected():
    found, _ = run_lint(root=FIXTURE, rules=["layering"])
    assert found and all(f.rule == "layering" for f in found)


def test_import_alias_resolution(tmp_path):
    src = _source(tmp_path, (
        "import time\n"
        "import numpy as np\n"
        "from time import perf_counter as pc\n"
        "from ..obs.metrics import get_metrics\n"))
    aliases = import_aliases(src.tree)
    assert aliases["time"] == "time"
    assert aliases["np"] == "numpy"
    assert aliases["pc"] == "time.perf_counter"
    assert aliases["get_metrics"] == "..obs.metrics.get_metrics"

    import ast
    call = ast.parse("np.random.default_rng()").body[0].value
    assert resolve_call(call.func, aliases) == "numpy.random.default_rng"
    unknown = ast.parse("self.nic.latency()").body[0].value
    assert resolve_call(unknown.func, aliases) is None
