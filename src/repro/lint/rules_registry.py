"""Rules ``registry-integrity`` and ``layering``.

``registry-integrity`` — every runner/assembler *name* used when building
scenarios and sweeps must correspond to a ``@runner(...)``/
``@assembler(...)`` registration somewhere in the tree.  The registries
resolve lazily by string (worker processes re-import and re-resolve), so
a typo'd name survives import, passes ``list``, and only explodes when
the scenario finally executes — or worse, inside a spawn worker.  This
check cross-references the string literals statically.

``layering`` — the dependency direction holds in two places.  The
simulation core must stay importable without the observability package:
``sim/`` modules may not import ``repro.obs`` at module scope (PR 7
threaded metrics into the engine through a lazily-bound ``_metrics()``
indirection for exactly this reason; obs sits *above* sim in the
layering and imports it back).  And the analytic backend sits above the
device, simulation and operator layers it evaluates: ``hw/``, ``sim/``,
``kernels/``, ``comm/``, ``collectives/`` and ``fused/`` may not import
``repro.analytic`` at all, not even lazily inside a function — the one
device model in ``hw/gpu.py`` is what both backends share.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from .core import Finding, LintContext, lint_rule

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _literal(node: ast.AST) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def _registrations(ctx: LintContext) -> Dict[str, set]:
    """Names registered via ``@runner("x")`` / ``@assembler("x")``."""
    names: Dict[str, set] = {"runner": set(), "assembler": set()}
    for src in ctx.files_under():
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                if not (isinstance(deco, ast.Call)
                        and isinstance(deco.func, ast.Name)
                        and deco.func.id in names and deco.args):
                    continue
                name = _literal(deco.args[0])
                if name:
                    names[deco.func.id].add(name)
    return names


def _usages(ctx: LintContext) -> List[Tuple[str, str, str, int]]:
    """``(kind, name, relpath, lineno)`` for every literal runner or
    assembler reference at a scenario/sweep construction site."""
    out = []
    for src in ctx.files_under():
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", "")
            owner = ""
            if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                              ast.Name):
                owner = func.value.id
            # scenario("runner", ...) / ScenarioSpec.make("runner", ...)
            if (callee == "scenario"
                    or (callee == "make" and owner == "ScenarioSpec")):
                if node.args:
                    name = _literal(node.args[0])
                    if name:
                        out.append(("runner", name, src.relpath,
                                    node.lineno))
            # runner= / assembler= keywords on any constructor-ish call
            # (ScenarioSpec(...), SweepSpec.make(...), MegaSweepSpec.make).
            for kw in node.keywords:
                if kw.arg in ("runner", "assembler"):
                    name = _literal(kw.value)
                    if name:
                        out.append((kw.arg, name, src.relpath, kw.value.lineno))
            # MegaSweepSpec.make(name, title, runner, ...) positional form.
            if (callee == "make" and owner == "MegaSweepSpec"
                    and len(node.args) >= 3):
                name = _literal(node.args[2])
                if name:
                    out.append(("runner", name, src.relpath,
                                node.args[2].lineno))
    return out


@lint_rule(
    "registry-integrity",
    "every runner/assembler name used by a sweep must resolve to a "
    "registration")
def check_registry_integrity(ctx: LintContext) -> Iterator[Finding]:
    registered = _registrations(ctx)
    for kind, name, relpath, lineno in _usages(ctx):
        if name not in registered[kind]:
            known = ", ".join(sorted(registered[kind])) or "(none)"
            yield Finding(
                relpath, lineno, "registry-integrity",
                f"{kind} {name!r} is not registered anywhere "
                f"(@{kind}(...) names: {known}); the lookup would only "
                f"fail at execution time, possibly inside a spawn worker")


#: Packages the analytic backend builds on; none may import it back.
_BELOW_ANALYTIC = tuple(f"src/repro/{pkg}/" for pkg in (
    "hw", "sim", "kernels", "comm", "collectives", "fused"))


def _imported_modules(src, node: ast.AST) -> List[str]:
    """Absolute names an import statement binds from, relative forms
    resolved against ``src``'s package (``from . import x`` -> ``pkg.x``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if not node.level:
        base = node.module or ""
    else:
        package = src.module.split(".")
        if not src.relpath.endswith("__init__.py"):
            package = package[:-1]
        if node.level > 1:
            package = package[: -(node.level - 1)]
        base = ".".join(package + ([node.module] if node.module else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@lint_rule(
    "layering",
    "sim/ must not import repro.obs at module scope (the engine binds "
    "metrics lazily); hw/, sim/, kernels/, comm/, collectives/ and fused/ "
    "must not import repro.analytic at all")
def check_layering(ctx: LintContext) -> Iterator[Finding]:
    for src in ctx.files_under(*_BELOW_ANALYTIC):
        in_sim = src.relpath.startswith("src/repro/sim/")
        for node in ast.walk(src.tree):
            names = _imported_modules(src, node)
            analytic = next((n for n in names
                             if _within(n, "repro.analytic")), None)
            if analytic:
                yield Finding(
                    src.relpath, node.lineno, "layering",
                    f"import of {analytic} below the analytic backend; "
                    f"it builds on this package, so the dependency must "
                    f"only point the other way (shared device timing "
                    f"lives in repro.hw.gpu)")
                continue
            obs = next((n for n in names if _within(n, "repro.obs")), None)
            if not in_sim or not obs:
                continue
            if any(isinstance(a, _FUNCS) for a in src.ancestors(node)):
                continue        # lazy, inside-function import: the pattern
            yield Finding(
                src.relpath, node.lineno, "layering",
                f"module-scope import of {obs} from the simulation "
                f"core; obs sits above sim — bind it lazily inside the "
                f"function that needs it (see sim/engine.py:_metrics)")
