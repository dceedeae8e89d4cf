"""Each rule fires on its fixture violation and only there.

The fixture tree (``fixtures/tree``) is a miniature repo: every file
carries the violations one rule should catch next to clean twins the rule
must leave alone, so these tests pin both the true-positive and the
false-positive behaviour of each rule.
"""

from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURE = Path(__file__).parent / "fixtures" / "tree"


def _findings(rule):
    found, _ctx = run_lint(root=FIXTURE, rules=[rule])
    return found


def _lines(findings, relpath):
    return [f.line for f in findings if f.file == relpath]


class TestDeterminism:
    def test_exact_violation_set(self):
        found = _findings("determinism")
        assert [f.file for f in found] == ["src/repro/util.py"] * 9
        text = (FIXTURE / "src/repro/util.py").read_text()
        lines = text.splitlines()
        flagged = {lines[f.line - 1].strip() for f in found}
        assert flagged == {
            "return time.time()",
            "return pc()",
            "return random.random()",
            "return np.random.default_rng()",
            "return np.random.rand(4)",
            "return json.dumps(payload)",
            "return [x for x in {3, 1, 2}]",
            "for x in {3, 1, 2}:",
            "return list({3, 1, 2})",
        }

    def test_suppressions_hide_both_forms(self):
        found = _findings("determinism")
        text = (FIXTURE / "src/repro/util.py").read_text()
        for f in found:
            assert "repro-lint" not in text.splitlines()[f.line - 1]

    def test_clean_twins_pass(self):
        found = _findings("determinism")
        messages = " ".join(f.message for f in found)
        assert "sort_keys=True" in messages          # the bad dumps
        for f in found:
            line = (FIXTURE / "src/repro/util.py").read_text() \
                .splitlines()[f.line - 1]
            assert "_ok" not in line


class TestHotPath:
    def test_unguarded_loop_call_flagged(self):
        found = _findings("hot-path-guards")
        assert len(found) == 1
        (f,) = found
        assert f.file == "src/repro/sim/engine.py"
        assert ".inc(...)" in f.message
        line = (FIXTURE / f.file).read_text().splitlines()[f.line - 1]
        assert line.strip() == 'm.inc("events")'

    def test_guarded_and_out_of_loop_calls_pass(self):
        # The same fixture file contains a guarded gauge, a post-loop inc,
        # and a hoisted-alias-guarded record; none may be flagged.
        found = _findings("hot-path-guards")
        assert len(found) == 1


class TestLayering:
    def test_module_scope_obs_imports_flagged(self):
        found = _findings("layering")
        assert {f.file for f in found} == {"src/repro/hw/gpu.py",
                                           "src/repro/sim/engine.py"}
        assert sorted(_lines(found, "src/repro/sim/engine.py")) == [3, 4]

    def test_analytic_imports_below_it_flagged_even_lazily(self):
        found = _findings("layering")
        lines = (FIXTURE / "src/repro/hw/gpu.py").read_text().splitlines()
        flagged = {lines[n - 1].strip()
                   for n in _lines(found, "src/repro/hw/gpu.py")}
        assert flagged == {
            "from ..analytic.device import device_model",
            "from repro.analytic import CommModel",
            "from .. import analytic",
        }

    def test_lazy_in_function_import_passes(self):
        found = _findings("layering")
        text = (FIXTURE / "src/repro/sim/engine.py").read_text()
        lazy_line = next(i for i, ln in enumerate(text.splitlines(), 1)
                         if "get_metrics as gm" in ln)
        assert lazy_line not in _lines(found, "src/repro/sim/engine.py")


class TestParamCompat:
    def test_new_field_without_none_default_flagged(self):
        found = _findings("param-compat")
        by_file = {f.file for f in found}
        assert by_file == {"src/repro/experiments/specs.py",
                           "src/repro/fused/widget.py"}
        spec = next(f for f in found
                    if f.file == "src/repro/experiments/specs.py")
        assert ".tuned" in spec.message
        widget = next(f for f in found
                      if f.file == "src/repro/fused/widget.py")
        assert "no entry" in widget.message

    def test_grandfathered_and_none_default_fields_pass(self):
        found = _findings("param-compat")
        messages = " ".join(f.message for f in found)
        for ok_name in ("runner", "new_knob", "blessed"):
            assert f".{ok_name} " not in messages


class TestRegistryIntegrity:
    def test_unregistered_names_flagged(self):
        found = _findings("registry-integrity")
        assert len(found) == 2
        assert {f.file for f in found} == {"src/repro/experiments/sweeps.py"}
        messages = " ".join(f.message for f in found)
        assert "'missing_runner'" in messages
        assert "'missing_assembler'" in messages
        assert "'good_runner'" not in messages.split("names:")[0]


def test_unknown_rule_rejected():
    with pytest.raises(KeyError, match="unknown lint rule"):
        run_lint(root=FIXTURE, rules=["no-such-rule"])


def test_missing_tree_rejected(tmp_path):
    with pytest.raises(FileNotFoundError, match="no src/repro package"):
        run_lint(root=tmp_path)


def test_findings_are_sorted_and_deterministic():
    a, _ = run_lint(root=FIXTURE)
    b, _ = run_lint(root=FIXTURE)
    assert a == b == sorted(a)
