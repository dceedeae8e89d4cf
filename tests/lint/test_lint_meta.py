"""Meta-gates: the real tree is lint-clean.

These are the tests that make the linter *binding*: adding a determinism
hazard or an unguarded hot-loop metrics call anywhere in ``src/repro``
fails the suite, not just CI's lint step.
"""

from repro.lint import RULES, run_lint
from repro.lint.core import detect_root


def test_detect_root_finds_this_repo():
    root = detect_root()
    assert (root / "src" / "repro" / "lint" / "core.py").is_file()
    assert (root / "ROADMAP.md").is_file()


def test_real_tree_is_clean():
    findings, _ = run_lint()
    assert findings == [], "\n".join(f.render() for f in findings)


def test_all_advertised_rules_registered():
    run_lint(rules=[])  # force rule-module import
    assert sorted(RULES) == [
        "determinism", "hot-path-guards", "layering",
        "param-compat", "registry-integrity"]
    for rule in RULES.values():
        assert rule.summary


def test_suppression_comments_are_rare_and_justified():
    """Every in-tree suppression must name its rule explicitly — the bare
    catch-all form is reserved for truly exceptional sites."""
    _, ctx = run_lint(rules=[])
    suppressions = [(src.relpath, line, rules)
                    for src in ctx.files
                    # The lint package's own docs quote the syntax.
                    if not src.relpath.startswith("src/repro/lint/")
                    for line, rules in sorted(src.suppressions.items())]
    assert len(suppressions) <= 3, suppressions
    for relpath, line, rules in suppressions:
        assert rules is not None, \
            f"{relpath}:{line}: bare 'repro-lint: ignore' in production code"
