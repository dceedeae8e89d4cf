"""A minimal array namespace: one closed form for a scenario or a column.

The analytic closed forms (:mod:`repro.analytic`, :mod:`repro.hw.memory`,
:mod:`repro.collectives`) are written once, against ``xp``, and evaluate
either one scenario on Python scalars or a whole scenario axis on NumPy
columns.  :func:`xp_of` picks the namespace from the inputs: NumPy as soon
as any of them is an ``ndarray``, else builtins and :mod:`math`, so a
scalar evaluation returns builtins and never pays for NumPy.

The two namespaces agree bit for bit on float64: ``+ - * /``, max/min,
integer floor division, ceil, round-half-to-even and float conversion are
exact in both.
A data-dependent branch is written ``if xp.any(cond):`` around an
``xp.where(cond, ...)``, so a scalar evaluation computes only the arm it
takes while a column evaluates the arm for the rows that need it.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

__all__ = ["NP", "PY", "xp_of"]


def _first_scalar(values, mask):
    return values


def _first_column(values, mask):
    """First of ``values`` (broadcast against ``mask``) where ``mask``
    holds, as a builtin — for error messages naming the offending row."""
    return np.broadcast_to(values, np.shape(mask))[mask][0].item()


#: Python scalars: builtins and :mod:`math`.
PY = SimpleNamespace(
    maximum=max,
    minimum=min,
    ceil=math.ceil,
    round=round,
    any=bool,
    asfloat=float,
    where=lambda cond, a, b: a if cond else b,
    full_like=lambda like, value: value,
    first=_first_scalar,
)

#: NumPy columns over a scenario axis.
NP = SimpleNamespace(
    maximum=np.maximum,
    minimum=np.minimum,
    ceil=np.ceil,
    round=np.round,
    any=np.any,
    asfloat=lambda x: np.asarray(x, np.float64),
    where=np.where,
    full_like=lambda like, value: np.full(np.shape(like), value),
    first=_first_column,
)


_ndarray = np.ndarray


def xp_of(*values) -> SimpleNamespace:
    """:data:`NP` if any value is an ``ndarray``, else :data:`PY`."""
    for v in values:
        if type(v) is _ndarray:     # hot on the scalar path: no isinstance
            return NP
    return PY
