"""Name-based registries for scenario runners, assemblers, and sweeps.

Three registries back the orchestration subsystem:

* **runners** — functions executing one scenario: ``fn(params) -> dict``
  (or ``fn(params, seed) -> dict`` to receive the scenario's deterministic
  seed).  The returned mapping must be JSON-representable; it becomes the
  store's record payload.
* **assemblers** — functions turning a sweep's scenario results back into
  a :class:`~repro.bench.harness.FigureResult`:
  ``fn(sweep, specs, results, **assembler_params)``.
* **sweeps** — named :class:`~repro.experiments.specs.SweepSpec` instances
  (the ported paper figures/ablations plus any user registrations).  The
  built-in sweeps are registered as name, title and factory and built on
  their first lookup (:func:`get_sweep`, :func:`list_sweeps`), so
  :func:`ensure_registered` builds nothing: a spawn worker resolves
  runners, never sweeps, and ``repro run fig9`` builds fig9 alone.

Lookup is by plain string so specs stay declarative and picklable: worker
processes re-resolve names against their own imported registry.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Union

from .specs import ScenarioSpec, SweepSpec

__all__ = [
    "runner",
    "assembler",
    "register_sweep",
    "register_sweep_factory",
    "get_runner",
    "get_assembler",
    "get_sweep",
    "list_sweeps",
    "call_runner",
    "ensure_registered",
]

RUNNERS: Dict[str, Callable[..., Mapping[str, Any]]] = {}
ASSEMBLERS: Dict[str, Callable[..., Any]] = {}


class _Unbuilt(NamedTuple):
    """A registered sweep not yet looked up: its factory builds it."""

    title: str
    factory: Callable[[], SweepSpec]


#: Registered sweeps by name; unbuilt entries are replaced by their
#: :class:`SweepSpec` on first lookup.
SWEEPS: Dict[str, Union[SweepSpec, _Unbuilt]] = {}

#: Runners whose declared signature accepts the scenario seed.
_SEEDED: Dict[str, bool] = {}


def runner(name: str) -> Callable[[Callable], Callable]:
    """Decorator: register a scenario runner under ``name``."""

    def deco(fn: Callable) -> Callable:
        if name in RUNNERS and RUNNERS[name] is not fn:
            raise ValueError(f"runner {name!r} already registered")
        n_params = len(inspect.signature(fn).parameters)
        if n_params not in (1, 2):
            raise TypeError(
                f"runner {name!r} must accept (params) or (params, seed)")
        RUNNERS[name] = fn
        _SEEDED[name] = n_params == 2
        return fn

    return deco


def assembler(name: str) -> Callable[[Callable], Callable]:
    """Decorator: register a result assembler under ``name``."""

    def deco(fn: Callable) -> Callable:
        if name in ASSEMBLERS and ASSEMBLERS[name] is not fn:
            raise ValueError(f"assembler {name!r} already registered")
        ASSEMBLERS[name] = fn
        return fn

    return deco


def _claim(name: str, overwrite: bool) -> None:
    if name in SWEEPS and not overwrite:
        raise ValueError(f"sweep {name!r} already registered")


def _checked(spec: SweepSpec) -> SweepSpec:
    labels = [s.label for s in spec.scenarios]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ValueError(
            f"sweep {spec.name!r} has duplicate scenario labels: {dupes}")
    return spec


def register_sweep(spec: SweepSpec, overwrite: bool = False) -> SweepSpec:
    """Register a sweep for lookup by name (CLI, tests, cache tooling)."""
    _claim(spec.name, overwrite)
    SWEEPS[spec.name] = _checked(spec)
    return spec


def register_sweep_factory(name: str, title: str,
                           factory: Callable[[], SweepSpec]) -> None:
    """Register a sweep that ``factory()`` builds on its first lookup.

    The label check of :func:`register_sweep` runs at that build, as does
    a check that the built sweep carries the registered name and title.
    """
    _claim(name, overwrite=False)
    SWEEPS[name] = _Unbuilt(title, factory)


def _built(name: str) -> SweepSpec:
    entry = SWEEPS[name]
    if isinstance(entry, _Unbuilt):
        spec = entry.factory()
        if (spec.name, spec.title) != (name, entry.title):
            raise ValueError(
                f"sweep factory registered as {name!r} ({entry.title!r}) "
                f"built {spec.name!r} ({spec.title!r})")
        entry = SWEEPS[name] = _checked(spec)
    return entry


def get_runner(name: str) -> Callable[..., Mapping[str, Any]]:
    ensure_registered()
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown runner {name!r}; registered: {sorted(RUNNERS)}"
        ) from None


def get_assembler(name: str) -> Callable[..., Any]:
    ensure_registered()
    try:
        return ASSEMBLERS[name]
    except KeyError:
        raise KeyError(
            f"unknown assembler {name!r}; registered: {sorted(ASSEMBLERS)}"
        ) from None


def get_sweep(name: str) -> SweepSpec:
    ensure_registered()
    if name not in SWEEPS:
        raise KeyError(
            f"unknown sweep {name!r}; registered: {sorted(SWEEPS)}")
    return _built(name)


def list_sweeps() -> List[SweepSpec]:
    ensure_registered()
    return [_built(name) for name in sorted(SWEEPS)]


def call_runner(spec: ScenarioSpec) -> Mapping[str, Any]:
    """Execute one scenario through its registered runner."""
    fn = get_runner(spec.runner)
    if _SEEDED[spec.runner]:
        return fn(spec.params, spec.stable_seed())
    return fn(spec.params)


_registered = False
_registering = False


def ensure_registered() -> None:
    """Import the built-in figure/ablation registrations (idempotent).

    Worker processes call this on startup so name lookup works no matter
    which module spawned them.  The done-flag is only set once the import
    *succeeds*: a failed import propagates its real error again on the
    next call instead of leaving an empty registry behind.
    """
    global _registered, _registering
    if _registered or _registering:
        return
    _registering = True
    try:
        from . import figures  # noqa: F401  (import populates the registries)
        _registered = True
    finally:
        _registering = False
