"""The ``algo`` scenario axis: absent-is-default byte identity, the
xalgo sweeps, and fail-fast behaviour for unknown schedules.

The pinned keys below were captured from ``main`` immediately before the
collective-algorithm library landed.  They enforce the axis's core
contract: scenarios and sweeps that never name an ``algo`` keep exactly
the store keys (and therefore cached results and reports) they had
before the axis existed.  If ``SCHEMA_VERSION`` is deliberately bumped,
re-pin them in the same commit.
"""

import pathlib

import pytest

from repro.experiments.execution import run_scenario, run_sweep
from repro.experiments.registry import get_sweep
from repro.experiments.report import report_json
from repro.experiments.specs import scenario, sweep_with_algo
from repro.experiments.store import ResultStore

DATA = pathlib.Path(__file__).parent / "data"

#: Sweep content keys captured from main before the algo axis existed.
#: (``dse_fused_frontier`` and ``dse-smoke`` deliberately gained the
#: axis; their pre-axis generations are pinned separately below.)
PRE_ALGO_SWEEP_KEYS = {
    "ablation-cpu-proxy": "0498d7f6e8aa0ec4deebe0270b06be3f9ea59b80eb20ea02e7657296677aff05",
    "ablation-scheduling": "c97b79fe525411920034b0aee452d3a08b7f13454b31c5a9c4d76cfb2d1ba88b",
    "ablation-slice-size": "61f24991c274b52c2823e42937c68d2c427984639c6bed8b60ff0a471d7118da",
    "ablation-zero-copy": "791104fa818b9f3cd4fc6515578593884e601b22467b7c5b9937af5f56e48683",
    "ext-embedding-backward": "49e54ca827689cada3403a72d4a2359c3ffc7ff2b66badbabc9439950ef4186c",
    "fig10": "c6a4ea91b9d21f88498a523fa7d99f183e1c65af540c1abd9fc17d7a9b82881a",
    "fig11": "63804bc6b52f0b310f4818ef11263f0e7e7c561da7575483635cad2d48d03262",
    "fig12": "a84192e9532b3ef443572c89256e9193de26f0f2a87b51adb8c05b124923ca32",
    "fig13": "ddd2165a48f4d6c1e02dba64aa06cb1b567c94b64a7cd5f5d3a878a4ef26bc0e",
    "fig14": "a26716f7e3400561907a6353f88080fa26ee0aaa743596a4c60eff3409e3912c",
    "fig15": "c1778a3559a81b6629ce81a5f9a2fc8e3a8245f26621dc1cb2f63a63487da641",
    "fig8": "adecdabb8fedb76a661118706bd494c62ea6a5d70a72ef18f786be37e80448c2",
    "fig9": "8f044f44917285ad0d9f9f022f33cafd0ecb0e183da4104d5b646ea7036777f4",
    "smoke": "04ac2ce85b0bc7735998cfb287505e58e97d394679529354bd47f05ef79bd89e",
    "table1": "b8127d9c017f0fb8987f5454b5aa5f9f496eb6ba3b457ce3effa028e324247cf",
    "table2": "c2c197c6f14fa738e0018dd03d44e925be333b3b34461c30f65936977fadca77",
    "xhw-smoke": "09cabf7cc6c5ff3f6476f4d1be521168a2a6d018e6d8fa83c3a0b3459d5b5186",
    "xhw_embedding_a2a": "67b942496ba508d090fcd8f9202da72a08286f817704deb0645b8c63fefea1f2",
    "xhw_gemm_a2a": "258bcb790150293484c7773b953f5d89296aef4b6cfeec5d079bee4105c3ff71",
    "xhw_gemv_allreduce": "c972414f79b547f366e15d496f77b55853b99df2174dcce23f96f6829e573512",
    "xhw_scaleout": "163cc265e4e4234cc0d0a88e2f665775b27b108e5fde538874c2384684ce9452",
}

PRE_ALGO_DSE_FRONTIER_KEY = \
    "c0f6eb37562d79ac72382359dcfe0821c9eb062bfa2e55b6320d2683264e8511"
PRE_ALGO_DSE_SMOKE_KEY = \
    "84280d8d6b7e08d87df06fdb1243b5afa1ffc8f8f0a38ae575b20d6d0f008f74"


# ---------------------------------------------------------------------------
# Byte identity of the default (algo-absent) paths
# ---------------------------------------------------------------------------

def test_default_path_sweep_keys_are_unchanged():
    for name, key in PRE_ALGO_SWEEP_KEYS.items():
        assert get_sweep(name).key() == key, (
            f"sweep {name!r} changed its content key — algo-absent "
            f"store keys must stay byte-identical to main")


def test_dse_sweeps_with_algo_axis_stripped_match_pre_axis_keys():
    from repro.experiments.figures import dse_fused_frontier_sweep
    assert dse_fused_frontier_sweep(algos=(None,)).key() == \
        PRE_ALGO_DSE_FRONTIER_KEY
    assert dse_fused_frontier_sweep(
        name="dse-smoke", platforms=("mi210", "h100"), batches=(512, 2048),
        tables=(64,), slices=(32,), occupancies=(0.25, 0.75),
        topologies=((2, 1),), algos=(None,)).key() == PRE_ALGO_DSE_SMOKE_KEY


def test_with_algo_none_is_parameter_absence():
    spec = scenario("gemv_allreduce_pair", m=8192, n_per_gpu=2048, world=4)
    assert spec.with_algo(None) == spec
    assert spec.with_algo("ring").with_algo(None) == spec
    assert spec.with_algo("ring").params["algo"] == "ring"
    assert spec.with_algo("ring").key() != spec.key()
    assert spec.algo is None
    assert spec.with_algo("ring").algo == "ring"


def test_sweep_with_algo_round_trips():
    sweep = get_sweep("smoke")
    pinned = sweep_with_algo(sweep, "pairwise")
    assert all(s.params["algo"] == "pairwise" for s in pinned.scenarios)
    assert sweep_with_algo(pinned, None).key() == sweep.key()


def test_smoke_report_is_byte_identical_to_main():
    """The full default-path report — keys, rows, formatted numbers —
    must match the byte-for-byte snapshot captured from main."""
    golden = (DATA / "golden_smoke_report.json").read_text(encoding="utf-8")
    run = run_sweep(get_sweep("smoke"), store=None)
    assert report_json(run.report()) == golden


def test_dse_smoke_algo_absent_report_is_byte_identical_to_main():
    """Re-generating dse-smoke with the algo axis stripped reproduces
    main's report byte for byte (analytic backend included)."""
    from repro.experiments.figures import dse_fused_frontier_sweep
    golden = (DATA / "golden_dse_smoke_report.json").read_text(
        encoding="utf-8")
    pre = dse_fused_frontier_sweep(
        name="dse-smoke", platforms=("mi210", "h100"), batches=(512, 2048),
        tables=(64,), slices=(32,), occupancies=(0.25, 0.75),
        topologies=((2, 1),), algos=(None,))
    run = run_sweep(pre, store=None)
    assert report_json(run.report()) == golden


# ---------------------------------------------------------------------------
# Unknown schedules fail fast, before any cache record exists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", [None, "analytic"])
@pytest.mark.parametrize("runner,params", [
    ("gemv_allreduce_pair", dict(m=8192, n_per_gpu=2048, world=4)),
    ("embedding_a2a_pair", dict(global_batch=256, tables_per_gpu=16,
                                num_nodes=2, gpus_per_node=1)),
])
def test_unknown_algo_raises_before_caching(tmp_path, backend, runner,
                                            params):
    spec = scenario(runner, label="bad", **params).with_algo("warp-drive")
    if backend is not None:
        spec = spec.with_backend(backend)
    with pytest.raises(KeyError, match="warp-drive"):
        run_scenario(spec)
    store = ResultStore(tmp_path / "cache")
    from repro.experiments.specs import SweepSpec
    sweep = SweepSpec.make("bad-algo", "Bad", [spec])
    with pytest.raises(KeyError, match="warp-drive"):
        run_sweep(sweep, store=store)
    assert store.get(spec) is None
    assert list(store.keys()) == []


@pytest.mark.parametrize("backend", [None, "analytic"])
@pytest.mark.parametrize("runner,params", [
    ("dlrm_scaleout", dict(num_nodes=16)),
    ("wg_timeline", dict(batch=256, tables=16)),
    ("table_setup", dict(which="table2")),
])
def test_collective_free_runners_reject_algo(tmp_path, backend, runner,
                                             params):
    """Runners with no baseline collective must reject an ``algo``
    parameter — even a *registered* name — instead of crashing in an
    analytic twin or silently caching identical results under new keys."""
    spec = scenario(runner, label="x", **params).with_algo("ring")
    if backend is not None:
        spec = spec.with_backend(backend)
    with pytest.raises(ValueError, match="no baseline collective"):
        run_scenario(spec)
    store = ResultStore(tmp_path / "cache")
    from repro.experiments.specs import SweepSpec
    with pytest.raises(ValueError, match="no baseline collective"):
        run_sweep(SweepSpec.make("reject", "R", [spec]), store=store)
    assert list(store.keys()) == []


def test_wrong_kind_algo_also_fails_fast():
    # "ring" is an AllReduce schedule; an All-to-All runner must reject it.
    spec = scenario("embedding_a2a_pair", global_batch=256,
                    tables_per_gpu=16, num_nodes=2,
                    gpus_per_node=1).with_algo("ring")
    with pytest.raises(KeyError, match="All-to-All"):
        run_scenario(spec)


# ---------------------------------------------------------------------------
# The xalgo sweeps under both backends
# ---------------------------------------------------------------------------

def test_xalgo_sweeps_registered():
    assert len(get_sweep("xalgo_allreduce")) == 6     # 3 algos x 2 points
    assert len(get_sweep("xalgo_alltoall")) == 6
    assert len(get_sweep("xalgo-smoke")) == 3
    algos = {s.params["algo"] for s in get_sweep("xalgo_alltoall")}
    assert algos == {"flat", "pairwise", "hier"}


def test_dse_frontier_gained_the_algo_axis():
    sweep = get_sweep("dse_fused_frontier")
    algos = {s.params.get("algo") for s in sweep.scenarios}
    assert algos == {None, "pairwise"}
    assert len(sweep) == 2592


def test_xalgo_smoke_runs_cold_then_fully_cached(tmp_path):
    store = ResultStore(tmp_path / "cache")
    sweep = get_sweep("xalgo-smoke")
    cold = run_sweep(sweep, store=store)
    assert cold.executed == len(sweep)
    warm = run_sweep(sweep, store=store)
    assert warm.executed == 0 and warm.cache_hits == len(sweep)
    assert report_json(cold.report()) == report_json(warm.report())
    fig = cold.figure()
    assert set(fig.extra["baseline_us_by_algo"]) == {"direct", "ring",
                                                     "tree"}
    assert fig.extra["best_algo_by_point"]["8k|2k"] in ("direct", "ring",
                                                        "tree")


@pytest.mark.parametrize("algo", ["flat", "pairwise", "hier"])
def test_xalgo_pair_agrees_across_backends(algo):
    """Per-algorithm DES/analytic agreement at the runner level: the
    baseline collective is closed-form-shared (exact), the fused side is
    held to the analytic accuracy budget."""
    from repro.analytic.validate import ACCURACY_BUDGET
    budget = max(ACCURACY_BUDGET.values())
    # A device-filling workload: the fused closed form's accuracy
    # contract is scoped to saturating task lists (see analytic/ops.py).
    spec = scenario("embedding_a2a_pair", global_batch=1024,
                    tables_per_gpu=64, num_nodes=2,
                    gpus_per_node=2).with_algo(algo)
    sim = run_scenario(spec)
    ana = run_scenario(spec.with_backend("analytic"))
    assert ana["baseline_time"] == pytest.approx(sim["baseline_time"],
                                                 rel=1e-9)
    assert ana["fused_time"] == pytest.approx(sim["fused_time"],
                                              rel=budget)


@pytest.mark.parametrize("algo", ["direct", "ring", "tree"])
def test_gemv_algo_pair_agrees_across_backends(algo):
    from repro.analytic.validate import ACCURACY_BUDGET
    budget = max(ACCURACY_BUDGET.values())
    spec = scenario("gemv_allreduce_pair", m=8192, n_per_gpu=2048,
                    world=4).with_algo(algo)
    sim = run_scenario(spec)
    ana = run_scenario(spec.with_backend("analytic"))
    assert ana["baseline_time"] == pytest.approx(sim["baseline_time"],
                                                 rel=budget)
    assert ana["fused_time"] == pytest.approx(sim["fused_time"],
                                              rel=budget)
