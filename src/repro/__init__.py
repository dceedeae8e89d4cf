"""repro — fused computation-collective operations for distributed ML.

A production-quality reproduction of "Optimizing Distributed ML Communication
with Fused Computation-Collective Operations" (SC'24, arXiv:2305.06942) on a
simulated multi-GPU substrate.

Layers (bottom-up):

* :mod:`repro.sim` — deterministic discrete-event engine.
* :mod:`repro.hw` — GPU / fabric / NIC / cluster hardware models.
* :mod:`repro.comm` — symmetric heap, GPU-initiated SHMEM API, baseline
  collective library.
* :mod:`repro.kernels` — kernel execution: grids, persistent workgroups,
  occupancy, scheduling policies.
* :mod:`repro.ops` — functional + costed operators (embedding, GEMM, GEMV...).
* :mod:`repro.fused` — the paper's fused operators.
* :mod:`repro.frameworks` — minitorch / mini-Triton integration layers.
* :mod:`repro.models` — DLRM / Transformer / MoE workloads.
* :mod:`repro.astra` — execution-graph scale-out training simulator.
* :mod:`repro.bench` — figure results, the fused/baseline pair runner, and
  host-performance reporting.
* :mod:`repro.experiments` — every paper table and figure as a registered
  sweep (parallel, cached, diffable); ``regenerate("fig9")`` runs one.
"""

__version__ = "1.0.0"
