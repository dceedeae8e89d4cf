"""Analytic evaluation backend: closed-form twins of the DES metrics.

The discrete-event simulator answers roughly one scenario per second; this
package answers thousands per second by evaluating the same first-order
physics — roofline WG timing with the HBM ramp/knee, alpha-beta(-gamma)
link/NIC models, occupancy-scaled compute/communication overlap — in
closed form, with no event loop.

The backend deliberately *shares* the DES's pure cost models (the one
device model of :mod:`repro.hw.gpu` — occupancy, WG roofline, kernel
spans, persistent-grid selection, copy and reduce times — the
``repro.ops`` WG cost functions, the :mod:`repro.astra` graphs): where
the simulator is already analytic at heart, the two engines agree exactly;
where event interleaving matters (persistent-kernel queues, link
contention, flag waits) the backend substitutes explicit serial-fraction
and drain-time terms.  ``python -m repro validate`` quantifies the
residual error against an enforced accuracy budget
(:mod:`repro.analytic.validate`).

Each closed form exists once, written against the minimal array namespace
of :mod:`repro.utils.xp`: called with Python scalars it answers one
scenario in builtins, called with NumPy columns it answers a whole
scenario axis — which is all :class:`ScenarioBatch` does, so the batch
engine is bit-identical to ``predict_*`` by construction.  The engine
declares only which parameters are numeric knobs; defaults, validation
and result shapes all come from the closed forms.

Calibration caveat: every platform inherits the HBM concurrency ramp and
contention knee fitted once against the paper's Fig. 13 on the MI210 (see
:mod:`repro.hw.specs`), so analytic predictions on other catalog entries
are exactly as (un)calibrated as their DES counterparts.
"""

from .batch import (
    ScenarioBatch,
    batch_runners,
    batch_supported,
    evaluate_batch_records,
)
from .comm import CommModel
from .device import DeviceModel, device_model
from .explorer import (
    dominates,
    pareto_frontier,
    pareto_mask,
    refine,
)
from .ops import (
    predict_dlrm_scaleout,
    predict_embedding_a2a,
    predict_embedding_fused,
    predict_embedding_grad_a2a,
    predict_gemm_a2a,
    predict_gemv_allreduce,
    predict_wg_timeline,
)

__all__ = [
    "CommModel",
    "DeviceModel",
    "ScenarioBatch",
    "batch_runners",
    "batch_supported",
    "device_model",
    "dominates",
    "evaluate_batch_records",
    "pareto_frontier",
    "pareto_mask",
    "refine",
    "predict_dlrm_scaleout",
    "predict_embedding_a2a",
    "predict_embedding_fused",
    "predict_embedding_grad_a2a",
    "predict_gemm_a2a",
    "predict_gemv_allreduce",
    "predict_wg_timeline",
]
