"""Engine of ``repro lint``: file collection, suppressions, rule registry.

The linter is a purpose-built AST checker (stdlib :mod:`ast` only) that
statically enforces the repo's cross-cutting contracts *before* the
runtime byte-compare suites get a chance to catch drift: determinism of
everything that feeds cache keys and reports, ``.enabled`` guards around
observability calls in hot loops, the absence-means-legacy rule for
scenario parameters, and registry/layering integrity.

Findings are structured (file, line, rule, message) and deterministic:
repo-relative POSIX paths, sorted by (file, line, rule, message), so two
runs over the same tree are byte-identical — the same property the sweep
reports have.

Suppression
-----------

A finding is suppressed by a comment on the line it is anchored to::

    t0 = time.perf_counter()   # repro-lint: ignore[determinism]

``ignore[a,b]`` suppresses the named rules only; a bare
``# repro-lint: ignore`` suppresses every rule on that line.  Suppressions
are deliberately per-line so each one is visible next to the code it
excuses — there is no file- or directory-level escape hatch.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "RULES",
    "SourceFile",
    "collect_files",
    "detect_root",
    "lint_rule",
    "run_lint",
]

#: ``# repro-lint: ignore`` or ``# repro-lint: ignore[rule-a,rule-b]``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[a-z0-9_,\- ]+)\])?")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source line."""

    file: str       #: repo-relative POSIX path
    line: int       #: 1-indexed
    rule: str       #: rule id (kebab-case)
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"file": self.file, "line": self.line,
                "rule": self.rule, "message": self.message}

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """A parsed source file plus the lookups every rule needs."""

    def __init__(self, root: Path, path: Path):
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.tree = ast.parse(self.text, filename=str(path))
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._suppressions: Optional[Dict[int, Optional[FrozenSet[str]]]] = None

    @property
    def module(self) -> str:
        """Dotted module name (``src/repro/sim/engine.py`` ->
        ``repro.sim.engine``)."""
        parts = list(Path(self.relpath).with_suffix("").parts)
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily once)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        parents = self.parents
        while node in parents:
            node = parents[node]
            yield node

    @property
    def suppressions(self) -> Dict[int, Optional[FrozenSet[str]]]:
        """line -> suppressed rule ids (``None`` = all rules)."""
        if self._suppressions is None:
            table: Dict[int, Optional[FrozenSet[str]]] = {}
            for lineno, line in enumerate(self.text.splitlines(), start=1):
                m = _SUPPRESS_RE.search(line)
                if m is None:
                    continue
                names = m.group("rules")
                if names is None:
                    table[lineno] = None
                else:
                    table[lineno] = frozenset(
                        n.strip() for n in names.split(",") if n.strip())
            self._suppressions = table
        return self._suppressions

    def suppressed(self, line: int, rule: str) -> bool:
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule in rules


@dataclass
class LintContext:
    """Everything a rule check receives."""

    root: Path
    files: List[SourceFile]
    #: human-readable notes a rule attaches to the run (not findings)
    notes: List[str] = field(default_factory=list)

    def files_under(self, *prefixes: str,
                    exclude: Tuple[str, ...] = ()) -> List[SourceFile]:
        """Scanned files whose relpath starts with any prefix (all files
        when no prefix is given), minus exact ``exclude`` relpaths."""
        out = []
        for f in self.files:
            if f.relpath in exclude:
                continue
            if not prefixes or any(f.relpath.startswith(p) for p in prefixes):
                out.append(f)
        return out

    def get_file(self, relpath: str) -> Optional[SourceFile]:
        for f in self.files:
            if f.relpath == relpath:
                return f
        return None


@dataclass(frozen=True)
class Rule:
    """A registered invariant check."""

    id: str
    summary: str
    check: Callable[[LintContext], Iterable[Finding]]


RULES: Dict[str, Rule] = {}


def lint_rule(rule_id: str, summary: str) -> Callable[[Callable], Callable]:
    """Decorator: register ``fn(ctx) -> Iterable[Finding]`` as a rule."""

    def deco(fn: Callable[[LintContext], Iterable[Finding]]) -> Callable:
        if rule_id in RULES:
            raise ValueError(f"lint rule {rule_id!r} already registered")
        RULES[rule_id] = Rule(id=rule_id, summary=summary, check=fn)
        return fn

    return deco


def detect_root() -> Path:
    """The repo root this installation lints by default.

    Derived from the package location (``<root>/src/repro/lint/core.py``),
    so ``python -m repro lint`` works from any working directory.
    """
    return Path(__file__).resolve().parents[3]


def collect_files(root: Path) -> List[SourceFile]:
    """Parse every production source file under ``<root>/src/repro``."""
    src = root / "src" / "repro"
    if not src.is_dir():
        raise FileNotFoundError(f"no src/repro package under {root}")
    files = []
    for path in sorted(src.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        files.append(SourceFile(root, path))
    return files


def _ensure_rules_loaded() -> None:
    """Import the built-in rule modules (registration side effect)."""
    from . import rules_determinism  # noqa: F401
    from . import rules_hotpath  # noqa: F401
    from . import rules_params  # noqa: F401
    from . import rules_registry  # noqa: F401


def run_lint(root: Optional[Path] = None,
             rules: Optional[Iterable[str]] = None
             ) -> Tuple[List[Finding], LintContext]:
    """Run the selected rules (default: all) over ``root``'s tree.

    Returns the suppression-filtered, deterministically sorted findings
    plus the context.
    """
    _ensure_rules_loaded()
    root = detect_root() if root is None else Path(root).resolve()
    ctx = LintContext(root=root, files=collect_files(root))
    selected = sorted(RULES) if rules is None else list(rules)
    unknown = [r for r in selected if r not in RULES]
    if unknown:
        raise KeyError(
            f"unknown lint rule(s) {unknown}; available: {sorted(RULES)}")
    findings: List[Finding] = []
    by_path = {f.relpath: f for f in ctx.files}
    for rule_id in selected:
        for finding in RULES[rule_id].check(ctx):
            src = by_path.get(finding.file)
            if src is not None and src.suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    return sorted(findings), ctx
