"""Seeded workloads of the host-time benchmark, with their output checks.

Each workload turns a seed into a list of distinct inputs and a fixed,
seed-shuffled plan of calls over them.  Every input is called several
times, so repeats can be checked for byte-identical results.  The program
only ever sees the generated specs.  A worker process takes every
``parts``-th call of the plan, so the work of a run is the same however
many processes share it.

Inputs are drawn so that every call of a workload costs about the same
host time: the per-call percentiles then describe the code, not the mix,
and a different seed measures the same amount of work.

* ``des-ops``: one cold discrete-event ``run_scenario`` per call, drawn
  from the paper grids of all five DES runners (fig8/fig12 embedding+A2A,
  fig9 GEMV+AllReduce, fig10 GEMM+A2A, the backward extension, fig13/14
  fused embedding), with platform and collective schedule varied.
* ``analytic-points``: one call evaluates a block of 1,000 seeded
  analytic-backend scenarios, one ``run_scenario`` each (the scalar path).
* ``analytic-mega``: one call is ``run_mega`` over a seeded
  103,680-point grid (the vectorized path).
* ``sweep-warm``: one call re-runs a seeded 1,296-scenario analytic
  sweep against a store that set-up filled, then builds its report.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments import execution, mega, report
from repro.experiments.specs import ScenarioSpec, SweepSpec, canonical_json

__all__ = ["WORKLOADS", "make_workload", "digest_json", "Workload"]

PLATFORMS = ("mi210", "mi250x", "mi300x", "h100")


def digest_json(value: Any) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def _digest_lines(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _plan(rng: random.Random, n_inputs: int, calls: int) -> List[int]:
    """``calls`` calls cycling evenly over the inputs, shuffled."""
    plan = [i % n_inputs for i in range(calls)]
    rng.shuffle(plan)
    return plan


class Workload:
    """A seeded input set plus the call plan over it.

    Subclasses fill ``inputs`` and ``plan`` (input indices, one per timed
    call) in ``__init__`` and implement :meth:`call`, the timed work.
    Everything else runs outside the timer.
    """

    name = ""
    #: which :mod:`speed` probe tracks this workload's host speed
    probe_kind = "python"

    def __init__(self, seed: int, calls: int, workdir: Path):
        self.workdir = workdir
        self.inputs: List[Any] = []
        self.plan: List[int] = []
        self._keys: Dict[int, str] = {}
        self._checked: Dict[int, Optional[str]] = {}

    def input_key(self, i: int) -> str:
        """Content key of input ``i`` (what the repeat check groups by)."""
        if i not in self._keys:
            self._keys[i] = self._key(self.inputs[i])
        return self._keys[i]

    def _key(self, value: Any) -> str:
        return value.key()

    def inputs_digest(self) -> str:
        """sha256 over the content keys of the planned calls, in order."""
        return _digest_lines([self.input_key(i) for i in self.plan])

    def scenarios(self, i: int) -> int:
        """Scenarios (design points, for ``analytic-mega``) per call."""
        return 1

    def setup(self) -> None:
        """Preparation beyond generation; counts into set-up time."""

    def warmup(self) -> None:
        """Calls that fill lazy caches before timing starts."""
        self.call(0)

    def call(self, i: int) -> Any:
        raise NotImplementedError

    def result_digest(self, i: int, result: Any) -> str:
        return digest_json(result)

    def check(self, i: int, result: Any, digest: str) -> Optional[str]:
        """Output check beyond repeat identity, given the result and its
        digest: a failure message or ``None``.  By default it runs
        :meth:`check_input` on the first result of each input only; the
        repeat-identity check holds every later repeat to that result."""
        if i not in self._checked:
            self._checked[i] = self.check_input(i, result)
        return self._checked[i]

    def check_input(self, i: int, result: Any) -> Optional[str]:
        return None

    def close(self) -> None:
        """Release what :meth:`setup` created."""


# ---------------------------------------------------------------------------
# des-ops
# ---------------------------------------------------------------------------

def _emb(batch: int, tables: int, nodes: int, gpus: int, platform: str,
         **extra: Any) -> Dict[str, Any]:
    return dict(global_batch=batch, tables_per_gpu=tables, num_nodes=nodes,
                gpus_per_node=gpus, platform=platform, **extra)


def _gemv(m: int, n_per_gpu: int, platform: str,
          algo: Optional[str] = None) -> Dict[str, Any]:
    p = dict(m=m, n_per_gpu=n_per_gpu, world=4, platform=platform)
    return dict(p, algo=algo) if algo else p


def _gemm(tokens: int, model_dim: int, ffn_dim: int, platform: str,
          algo: Optional[str] = None) -> Dict[str, Any]:
    p = dict(tokens=tokens, model_dim=model_dim, ffn_dim=ffn_dim, world=4,
             platform=platform)
    return dict(p, algo=algo) if algo else p


#: Candidate DES scenarios per runner, in four or five strata of two or
#: three alternatives each.  Alternatives of a stratum cost about the same host
#: time (medians of 3 runs on a 2-core x86 VM under Python 3.11), and the
#: strata span 0.11-0.19 s.  A draw takes one alternative per stratum,
#: so every seed gets the same cost profile, and the narrow band keeps
#: p90 about the simulator rather than about the mix.  The case names the
#: ``repro.analytic.validate.ACCURACY_BUDGET`` entry the runner's analytic
#: twin is held to (``None``: the paper has no such case for the runner).
DES_POOL: Dict[str, List[List[Tuple[Optional[str], Dict[str, Any]]]]] = {
    "embedding_a2a_pair": [
        [("fig8", _emb(256, 32, 1, 4, "mi250x")),
         ("fig12", _emb(256, 64, 2, 1, "mi300x"))],
        [("fig12", _emb(512, 32, 2, 1, "mi300x", algo="auto")),
         ("fig8", _emb(512, 16, 1, 4, "mi250x", algo="pairwise"))],
        [("fig8", _emb(512, 16, 1, 4, "h100", algo="pairwise")),
         ("fig12", _emb(512, 64, 2, 1, "mi210", algo="auto"))],
        [("fig12", _emb(256, 128, 2, 1, "mi210", algo="pairwise")),
         ("fig8", _emb(512, 16, 1, 4, "h100"))],
        [("fig12", _emb(1024, 32, 2, 1, "h100")),
         ("fig12", _emb(512, 64, 2, 1, "mi210"))],
    ],
    "gemv_allreduce_pair": [
        [("fig9", _gemv(8192, 4096, "mi250x")),
         ("fig9", _gemv(8192, 4096, "mi250x", "auto"))],
        [("fig9", _gemv(8192, 4096, "h100", "auto")),
         ("fig9", _gemv(8192, 8192, "h100", "auto"))],
        [("fig9", _gemv(8192, 8192, "h100", "ring")),
         ("fig9", _gemv(8192, 2048, "mi210", "tree"))],
        [("fig9", _gemv(8192, 8192, "mi210", "tree")),
         ("fig9", _gemv(12288, 2048, "mi210", "ring"))],
        [("fig9", _gemv(8192, 8192, "mi210")),
         ("fig9", _gemv(8192, 4096, "mi300x", "ring")),
         ("fig9", _gemv(8192, 2048, "mi300x"))],
    ],
    "gemm_a2a_pair": [
        [("fig10", _gemm(512, 4096, 8192, "mi250x", "pairwise")),
         ("fig10", _gemm(512, 4096, 8192, "mi250x"))],
        [("fig10", _gemm(1024, 4096, 4096, "h100")),
         ("fig10", _gemm(512, 4096, 8192, "mi210", "pairwise"))],
        [("fig10", _gemm(1024, 4096, 4096, "mi300x")),
         ("fig10", _gemm(512, 4096, 8192, "mi300x"))],
        [("fig10", _gemm(512, 4096, 8192, "h100", "pairwise")),
         ("fig10", _gemm(512, 4096, 8192, "mi300x", "pairwise"))],
        [("fig10", _gemm(512, 4096, 8192, "mi210")),
         ("fig10", _gemm(1024, 4096, 4096, "mi300x", "pairwise")),
         ("fig10", _gemm(1024, 4096, 4096, "h100", "pairwise"))],
    ],
    "embedding_grad_pair": [
        [("ext-backward", _emb(512, 64, 2, 1, "h100")),
         ("ext-backward", _emb(512, 64, 2, 1, "mi210"))],
        [("ext-backward", _emb(256, 128, 2, 1, "h100")),
         ("ext-backward", _emb(256, 128, 2, 1, "mi210"))],
        [("ext-backward", _emb(256, 128, 2, 1, "mi250x", algo="pairwise")),
         ("ext-backward", _emb(512, 64, 2, 1, "mi250x")),
         ("ext-backward", _emb(512, 64, 2, 1, "h100", algo="pairwise"))],
        [("ext-backward", _emb(256, 128, 2, 1, "mi250x")),
         ("ext-backward", _emb(512, 64, 2, 1, "mi300x"))],
        [("ext-backward", _emb(512, 64, 2, 1, "mi210", algo="pairwise")),
         ("ext-backward", _emb(512, 32, 2, 1, "mi210", slice_vectors=16))],
    ],
    "embedding_fused": [
        [(None, _emb(512, 32, 2, 1, "mi300x", occupancy_of_baseline=0.5)),
         (None, _emb(512, 32, 2, 1, "mi250x", scheduler="oblivious"))],
        [(None, _emb(512, 32, 2, 1, "mi210", scheduler="oblivious")),
         (None, _emb(256, 64, 2, 1, "mi300x", scheduler="oblivious",
                     occupancy_of_baseline=0.5))],
        [(None, _emb(512, 32, 2, 1, "mi300x", scheduler="oblivious",
                     occupancy_of_baseline=0.5)),
         (None, _emb(256, 64, 2, 1, "mi300x", occupancy_of_baseline=0.5))],
        [(None, _emb(512, 64, 2, 1, "mi210", scheduler="oblivious",
                     occupancy_of_baseline=0.5)),
         (None, _emb(512, 64, 2, 1, "mi210", scheduler="oblivious"))],
    ],
}

#: Tiny, seed-independent scenarios of every DES runner on every platform,
#: run before timing: they fill the per-platform caches, and set-up time
#: does not depend on the draw.
DES_WARMUP: List[Tuple[str, Dict[str, Any]]] = [
    (runner, params) for plat in PLATFORMS for runner, params in (
        ("embedding_a2a_pair", _emb(128, 8, 2, 1, plat)),
        ("embedding_a2a_pair", _emb(128, 8, 1, 4, plat)),
        ("gemv_allreduce_pair", _gemv(1024, 256, plat)),
        ("gemm_a2a_pair", _gemm(256, 512, 512, plat)),
        ("embedding_grad_pair", _emb(128, 8, 2, 1, plat)),
        ("embedding_fused", _emb(128, 8, 2, 1, plat)),
    )]


class DesOps(Workload):
    """Cold DES scenarios: one ``run_scenario`` per call."""

    name = "des-ops"

    def __init__(self, seed: int, calls: int, workdir: Path):
        super().__init__(seed, calls, workdir)
        rng = random.Random(seed)
        self.cases: List[Optional[str]] = []
        for runner in sorted(DES_POOL):
            for stratum in DES_POOL[runner]:
                case, params = rng.choice(stratum)
                self.inputs.append(ScenarioSpec.make(runner, **params))
                self.cases.append(case)
        self.plan = _plan(rng, len(self.inputs), calls)

    def warmup(self) -> None:
        for runner, params in DES_WARMUP:
            execution.run_scenario(ScenarioSpec.make(runner, **params))

    def call(self, i: int) -> Any:
        return execution.run_scenario(self.inputs[i])

    def check_input(self, i: int, result: Dict[str, Any]) -> Optional[str]:
        """The simulated normalized time agrees with the analytic twin
        within the paper case's budget."""
        case = self.cases[i]
        if case is None:
            return None
        from repro.analytic.validate import ACCURACY_BUDGET
        spec = self.inputs[i]
        ana = execution.run_scenario(spec.with_backend("analytic"))
        sim_norm = result["fused_time"] / result["baseline_time"]
        ana_norm = ana["fused_time"] / ana["baseline_time"]
        err = abs(ana_norm - sim_norm) / sim_norm
        if err > ACCURACY_BUDGET[case]:
            return (f"{spec.runner} {spec.params_json}: analytic normalized "
                    f"time off by {100 * err:.2f}% (budget "
                    f"{100 * ACCURACY_BUDGET[case]:g}%)")
        return None


# ---------------------------------------------------------------------------
# analytic-points
# ---------------------------------------------------------------------------

def _point_params(rng: random.Random, runner: str) -> Dict[str, Any]:
    """One valid analytic scenario of ``runner`` with seeded parameters."""
    plat = rng.choice(PLATFORMS)
    if runner in ("embedding_a2a_pair", "embedding_grad_pair",
                  "embedding_fused"):
        nodes, gpus = rng.choice(((1, 4), (2, 1), (2, 2), (1, 2)))
        p = _emb(512 * rng.randint(1, 16),
                 rng.choice((8, 16, 32, 64, 128, 256)), nodes, gpus, plat,
                 slice_vectors=rng.choice((8, 16, 32, 64)))
        if runner == "embedding_a2a_pair":
            p["algo"] = rng.choice((None, "flat", "pairwise", "hier", "auto"))
            p["occupancy_of_baseline"] = rng.choice((None, 0.25, 0.5, 0.75))
        elif runner == "embedding_fused":
            p["scheduler"] = rng.choice(("comm_aware", "oblivious"))
            p["occupancy_of_baseline"] = rng.choice((None, 0.25, 0.5, 0.75))
        return {k: v for k, v in p.items() if v is not None}
    if runner == "gemv_allreduce_pair":
        p = dict(m=8192 * rng.randint(1, 8),
                 n_per_gpu=1024 * rng.randint(1, 16), world=rng.choice((2, 4, 8)), platform=plat,
                 algo=rng.choice((None, "direct", "ring", "tree", "auto")))
    elif runner == "gemm_a2a_pair":
        p = dict(tokens=1024 * rng.randint(1, 8),
                 model_dim=rng.choice((2048, 4096, 8192)),
                 ffn_dim=rng.choice((4096, 8192, 14336)),
                 world=rng.choice((2, 4, 8)), platform=plat,
                 algo=rng.choice((None, "flat", "pairwise", "auto")))
    elif runner == "wg_timeline":
        p = dict(batch=rng.choice((256, 512, 1024)),
                 tables=rng.choice((16, 32, 64)),
                 wgs_per_slice=rng.choice((8, 16)), timeline_width=100,
                 platform=plat)
    elif runner == "dlrm_scaleout":
        p = dict(num_nodes=rng.choice((16, 32, 64, 128)), platform=plat)
    else:
        raise KeyError(runner)
    return {k: v for k, v in p.items() if v is not None}


class AnalyticPoints(Workload):
    """Blocks of scalar closed-form scenarios through ``run_scenario``."""

    name = "analytic-points"
    #: scenarios per block, by runner: the same mix in every block.
    mix = {"embedding_a2a_pair": 240, "embedding_fused": 160,
           "embedding_grad_pair": 160, "gemv_allreduce_pair": 180,
           "gemm_a2a_pair": 140, "wg_timeline": 60, "dlrm_scaleout": 60}
    blocks = 8
    #: scenarios per block re-evaluated by the batch engine as a check.
    sample = 60

    def __init__(self, seed: int, calls: int, workdir: Path):
        super().__init__(seed, calls, workdir)
        rng = random.Random(seed)
        for _ in range(self.blocks):
            block = [ScenarioSpec.make(runner, **_point_params(rng, runner))
                     .with_backend("analytic")
                     for runner, count in sorted(self.mix.items())
                     for _ in range(count)]
            rng.shuffle(block)
            self.inputs.append(block)
        self.plan = _plan(rng, len(self.inputs), calls)
        self._samples = [sorted(rng.sample(range(len(b)), self.sample))
                         for b in self.inputs]

    def _key(self, value: Any) -> str:
        return _digest_lines([s.key() for s in value])

    def scenarios(self, i: int) -> int:
        return len(self.inputs[i])

    def call(self, i: int) -> Any:
        run = execution.run_scenario
        return [run(s) for s in self.inputs[i]]

    def check_input(self, i: int, results: List[Dict[str, Any]]
                    ) -> Optional[str]:
        """A seeded sample of the block, evaluated by the vectorized
        engine, is bit-identical to the scalar results."""
        from repro.analytic.batch import evaluate_batch_records
        block = self.inputs[i]
        by_runner: Dict[str, List[int]] = {}
        for j in self._samples[i]:
            by_runner.setdefault(block[j].runner, []).append(j)
        for runner, rows in sorted(by_runner.items()):
            records = evaluate_batch_records(
                runner, [block[j].params for j in rows])
            for j, rec in zip(rows, records):
                if digest_json(rec) != digest_json(results[j]):
                    return (f"{runner} {block[j].params_json}: batch record "
                            f"differs from the scalar result")
        return None


# ---------------------------------------------------------------------------
# analytic-mega
# ---------------------------------------------------------------------------

def _mega_axes(rng: random.Random) -> Dict[str, List[Any]]:
    """A seeded grid with the ``dse_mega`` shape: 103,680 points that all
    satisfy the embedding+A2A config invariants."""
    return {
        "platform": list(PLATFORMS),
        "num_nodes": [1, 2],
        "gpus_per_node": [1, 2, 4],
        "global_batch": sorted(512 * k for k in rng.sample(range(1, 33), 18)),
        "tables_per_gpu": sorted(rng.sample(range(8, 257, 8), 10)),
        "slice_vectors": [8, 16, 32, 64],
        "occupancy_of_baseline": sorted(
            rng.sample([0.2, 0.3, 0.4, 0.5, 0.6, 0.7], 3)),
        "algo": [None, "pairwise"],
    }


class AnalyticMega(Workload):
    """Vectorized closed forms: ``run_mega`` on a seeded grid per call."""

    name = "analytic-mega"
    probe_kind = "numpy"
    grids = 4
    #: grid rows re-evaluated by the scalar path as a check.
    sample = 40

    def __init__(self, seed: int, calls: int, workdir: Path):
        super().__init__(seed, calls, workdir)
        rng = random.Random(seed)
        for g in range(self.grids):
            self.inputs.append(mega.MegaSweepSpec.make(
                f"bench-mega-{g}", "bench mega", "embedding_a2a_pair",
                _mega_axes(rng)))
        self.plan = _plan(rng, len(self.inputs), calls)
        self._samples = [sorted(rng.sample(range(len(s)), self.sample))
                         for s in self.inputs]

    def scenarios(self, i: int) -> int:
        return len(self.inputs[i])

    def call(self, i: int) -> Any:
        return mega.run_mega(self.inputs[i], store=None)

    def result_digest(self, i: int, result: Any) -> str:
        return digest_json(result.report())

    def check_input(self, i: int, run: Any) -> Optional[str]:
        """Sampled grid rows, evaluated one by one through the scalar
        path, are bit-identical to the batch columns; and every frontier
        row of the figure is a row of those columns."""
        import numpy as np
        from repro.analytic.batch import ScenarioBatch
        spec = self.inputs[i]
        axes = spec.axes
        cols = ScenarioBatch.from_grid(spec.runner, axes).evaluate()
        idx = mega._axis_index_columns(axes)
        for row in self._samples[i]:
            params = {k: axes[k][int(idx[k][row])] for k in axes}
            params = {k: v for k, v in params.items() if v is not None}
            scalar = execution.run_scenario(
                ScenarioSpec.make(spec.runner, **params)
                .with_backend("analytic"))
            for out in ("fused_time", "baseline_time"):
                if scalar[out] != float(cols[out][row]):
                    return (f"grid row {row} {out}: scalar {scalar[out]!r} "
                            f"!= batch {float(cols[out][row])!r}")
        fig = run.figure()
        if fig.extra.get("n_scenarios") != len(spec):
            return "figure counts the wrong number of points"
        pairs = set(zip(cols["fused_time"].tolist(),
                        cols["baseline_time"].tolist()))
        for r in fig.rows:
            if (r.fused_time, r.baseline_time) not in pairs:
                return f"frontier row {r.label} is not a grid point"
        if not np.all(np.isfinite(cols["fused_time"])):
            return "non-finite fused time in the grid"
        return None


# ---------------------------------------------------------------------------
# sweep-warm
# ---------------------------------------------------------------------------

def _warm_sweep(rng: random.Random) -> SweepSpec:
    """A seeded 1,296-scenario analytic design sweep (the
    ``dse_fused_frontier`` shape with drawn axis values)."""
    from repro.experiments.figures import dse_fused_frontier_sweep
    return dse_fused_frontier_sweep(
        name=f"bench-warm-{rng.getrandbits(32):08x}",
        batches=sorted(512 * k for k in rng.sample(range(1, 17), 6)),
        tables=sorted(rng.sample(range(8, 257, 8), 3)),
        slices=sorted(rng.sample((8, 16, 32, 64), 3)),
        occupancies=sorted(rng.sample((0.2, 0.3, 0.4, 0.5, 0.6, 0.7), 3)),
        algos=(None,))


class SweepWarm(Workload):
    """Fully cached re-run: ``run_sweep`` on a filled store, then
    ``build_report``."""

    name = "sweep-warm"

    def __init__(self, seed: int, calls: int, workdir: Path):
        super().__init__(seed, calls, workdir)
        rng = random.Random(seed)
        self.sweep = _warm_sweep(rng)
        self.inputs = [self.sweep]
        self.plan = [0] * calls
        self.store_dir = workdir / "store"
        self.store: Any = None
        self.cold_digest = ""

    def _key(self, value: Any) -> str:
        return _digest_lines([s.key() for s in value.scenarios])

    def scenarios(self, i: int) -> int:
        return len(self.sweep.scenarios)

    def setup(self) -> None:
        """Fill a fresh store with the cold run (store writes are only
        measured here, as part of set-up time)."""
        from repro.experiments.store import ResultStore
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store = ResultStore(self.store_dir)
        run = execution.run_sweep(self.sweep, self.store)
        if run.cache_hits:
            raise RuntimeError("the fresh store already held records")
        self.cold_digest = digest_json(report.build_report(run))

    def call(self, i: int) -> Any:
        run = execution.run_sweep(self.sweep, self.store)
        return run, report.build_report(run)

    def result_digest(self, i: int, result: Any) -> str:
        return digest_json(result[1])

    def check(self, i: int, result: Any, digest: str) -> Optional[str]:
        run, _report = result
        if run.cache_hits != len(self.sweep.scenarios):
            return (f"hit fraction {run.cache_hits}/"
                    f"{len(self.sweep.scenarios)}, expected 1.0")
        if digest != self.cold_digest:
            return "warm report differs from the cold run's"
        return None

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DesOps, AnalyticPoints, AnalyticMega,
                                 SweepWarm)}


def make_workload(name: str, seed: int, calls: int, workdir: Path
                  ) -> Workload:
    return WORKLOADS[name](seed, calls, workdir)
