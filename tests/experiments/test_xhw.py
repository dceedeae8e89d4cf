"""Cross-hardware sweeps: determinism, mi210 equivalence, canonical keys."""

import json

from repro.experiments import figures as orch
from repro.experiments import run_sweep
from repro.fused.base import OpHarness
from repro.fused.gemv_allreduce import (
    BaselineGemvAllReduce,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
)
from repro.hw import get_platform

SMALL_GRID = ((8192, 8192),)


def _normalize(figure_result):
    return json.loads(json.dumps(figure_result.to_json_dict(),
                                 sort_keys=True))


def test_xhw_mi210_rows_match_direct_figure_path():
    """The mi210 slice of a cross-hardware sweep must be byte-identical to
    the Fig. 9 sweep (platform is a no-op at the default)."""
    fig9 = run_sweep(orch.fig9_sweep(grid=SMALL_GRID)).figure()
    sweep = orch.xhw_gemv_allreduce_sweep(grid=SMALL_GRID,
                                          platforms=("mi210",),
                                          name="eq-xhw-mi210")
    fig = run_sweep(sweep).figure()
    [fig9_row] = fig9.rows
    [xhw_row] = fig.rows
    assert xhw_row.fused_time == fig9_row.fused_time
    assert xhw_row.baseline_time == fig9_row.baseline_time


def test_op_harness_platform_mi210_is_bit_identical_to_default():
    cfg = GemvAllReduceConfig(m=8192, n_per_gpu=2048, functional=False)

    def run_pair(**kw):
        h1 = OpHarness(num_nodes=1, gpus_per_node=4, **kw)
        fused = h1.run(FusedGemvAllReduce(h1, cfg)).elapsed
        h2 = OpHarness(num_nodes=1, gpus_per_node=4, **kw)
        base = h2.run(BaselineGemvAllReduce(h2, cfg)).elapsed
        return fused, base

    assert run_pair() == run_pair(platform="mi210")
    assert run_pair() == run_pair(platform=get_platform("mi210"))


def test_xhw_sweep_is_deterministic_and_reports_per_platform_speedups():
    sweep = orch.xhw_gemv_allreduce_sweep(grid=SMALL_GRID,
                                          platforms=("mi210", "h100"),
                                          name="eq-xhw-det")
    first = _normalize(run_sweep(sweep).figure())
    second = _normalize(run_sweep(sweep).figure())
    assert first == second
    speedups = first["extra"]["speedup_by_platform"]
    assert set(speedups) == {"mi210", "h100"}
    assert all(v > 0 for v in speedups.values())
    assert [r["label"] for r in first["rows"]] == ["mi210 8k|2k",
                                                   "h100 8k|2k"]


def test_platforms_actually_change_results():
    """The hardware axis must matter: a faster device shifts the times."""
    sweep = orch.xhw_gemv_allreduce_sweep(grid=SMALL_GRID,
                                          platforms=("mi210", "mi300x"),
                                          name="eq-xhw-differs")
    fig = run_sweep(sweep).figure()
    by_label = {r.label: r for r in fig.rows}
    assert by_label["mi300x 8k|2k"].fused_time != \
        by_label["mi210 8k|2k"].fused_time


def test_platform_param_is_canonical_in_scenario_keys():
    """None, the name, and the Platform instance must hash identically."""
    keys = [
        orch.fig9_sweep(SMALL_GRID, name="k", platform=p).scenarios[0].key()
        for p in (None, "mi210", get_platform("mi210"),
                  get_platform("mi210").to_params())
    ]
    assert len(set(keys)) == 1
    # A different platform changes the key (it is part of the store key).
    other = orch.fig9_sweep(SMALL_GRID, name="k",
                            platform="h100").scenarios[0].key()
    assert other != keys[0]


def test_registered_defaults_carry_the_platform_field():
    from repro.experiments.registry import get_sweep
    for name in ("fig8", "fig13", "fig15", "smoke", "xhw_scaleout"):
        for spec in get_sweep(name).scenarios:
            assert spec.params["platform"] == "mi210" or \
                name.startswith("xhw")


def test_xhw_scaleout_platform_changes_iteration_time():
    from repro.astra import run_dlrm_scaleout
    mi210 = run_dlrm_scaleout(16)
    assert run_dlrm_scaleout(16, platform="mi210").fused_time == \
        mi210.fused_time
    assert run_dlrm_scaleout(16, platform="mi300x").fused_time != \
        mi210.fused_time


def test_fig13_and_slice_ablation_adapt_to_platform_occupancy_ceiling():
    """The occupancy knobs must clip to each platform's derived fused
    maximum instead of assuming the MI210's 0.875."""
    # Default (mi210) stays the paper grid, bit for bit.
    default = orch.fig13_sweep(name="occ-default")
    assert [s.params["occupancy_of_baseline"] for s in default.scenarios] \
        == [0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
    # H100-class tops out at 0.75 -> the 0.875 point is clipped.
    h100 = orch.fig13_sweep(name="occ-h100", platform="h100")
    fracs = [s.params["occupancy_of_baseline"] for s in h100.scenarios]
    assert max(fracs) == 0.75 and 0.875 not in fracs
    # Slice ablation pins to the platform's maximum.
    abl = orch.ablation_slice_size_sweep(name="sl-h100", platform="h100")
    assert all(s.params["occupancy_of_baseline"] == 0.75
               for s in abl.scenarios)
    abl_default = orch.ablation_slice_size_sweep(name="sl-default")
    assert all(s.params["occupancy_of_baseline"] == 0.875
               for s in abl_default.scenarios)


def test_fig13_runs_on_h100_without_crashing():
    fig = run_sweep(orch.fig13_sweep(batch=256, tables=16,
                                     platform="h100")).figure()
    assert fig.rows and max(float(r.label.rstrip("%")) for r in fig.rows) \
        == 75.0
