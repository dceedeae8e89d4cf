"""Static invariant checker for the repro tree (``python -m repro lint``).

AST-based, stdlib-only.  See :mod:`repro.lint.core` for the engine and
the ``rules_*`` modules for the individual invariants.
"""

from .core import (
    RULES,
    Finding,
    LintContext,
    Rule,
    SourceFile,
    collect_files,
    detect_root,
    lint_rule,
    run_lint,
)

__all__ = [
    "Finding",
    "LintContext",
    "RULES",
    "Rule",
    "SourceFile",
    "collect_files",
    "detect_root",
    "lint_rule",
    "run_lint",
]
