"""Pinned assembled figures for every paper table and figure.

``data/golden_figures.json`` holds the canonical ``to_json_dict()`` of
each registered figure sweep's ``FigureResult``: Tables I/II, Figs. 8/9/10/12
on reduced grids, Fig. 11, Fig. 13 on three occupancy fractions, Fig. 14,
and Fig. 15 both at its default node counts and on a grid without 128
nodes (whose headline statistics come from a hidden 128-node scenario).
The test rebuilds each figure through ``run_sweep`` and compares its
canonical JSON byte for byte, so any change to simulated timing, row
assembly or ``extra`` statistics shows up here.

Regenerate (only when a change to figure results is intended)::

    PYTHONPATH=src python tests/experiments/test_figure_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ResultStore, run_sweep
from repro.experiments import figures as fig
from repro.experiments.specs import canonical_json

GOLDEN = Path(__file__).parent / "data" / "golden_figures.json"

#: Reduced grids for the heavy figures: the same runners and assemblers
#: as the paper-default grids at a fraction of the wall-clock.
SMALL_FIG8 = ((512, 64), (1024, 256))
SMALL_FIG12 = ((256, 64), (1024, 256))
SMALL_FIG9 = ((8192, 8192), (65536, 16384))
SMALL_FIG10 = ((2048, 4096, 8192), (4096, 4096, 14336))
SMALL_FRACTIONS = (0.25, 0.75, 0.875)

#: Golden entry -> the sweep that rebuilds it.
SWEEPS = {
    "table1": lambda: fig.table1_sweep(name="golden-table1"),
    "table2": lambda: fig.table2_sweep(name="golden-table2"),
    "fig8": lambda: fig.fig8_sweep(SMALL_FIG8, name="golden-fig8"),
    "fig9": lambda: fig.fig9_sweep(SMALL_FIG9, name="golden-fig9"),
    "fig10": lambda: fig.fig10_sweep(SMALL_FIG10, name="golden-fig10"),
    "fig11": lambda: fig.fig11_sweep(name="golden-fig11"),
    "fig12": lambda: fig.fig12_sweep(SMALL_FIG12, name="golden-fig12"),
    "fig13": lambda: fig.fig13_sweep(fractions=SMALL_FRACTIONS,
                                     name="golden-fig13"),
    "fig14": lambda: fig.fig14_sweep(name="golden-fig14"),
    "fig15": lambda: fig.fig15_sweep(name="golden-fig15"),
    "fig15-hidden-128": lambda: fig.fig15_sweep(node_counts=(16, 32),
                                                name="golden-fig15h"),
}


def generate():
    """Every golden entry's current assembled figure."""
    return {name: run_sweep(make()).figure().to_json_dict()
            for name, make in SWEEPS.items()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_has_one_entry_per_sweep():
    assert sorted(_golden()) == sorted(SWEEPS)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_figure_matches_golden(name):
    got = run_sweep(SWEEPS[name]()).figure().to_json_dict()
    assert canonical_json(got) == canonical_json(_golden()[name])


def test_cached_figure_matches_golden(tmp_path):
    """A cache-served run assembles the same figure as a fresh one."""
    store = ResultStore(tmp_path)
    fresh = run_sweep(SWEEPS["fig9"](), store=store).figure()
    cached_run = run_sweep(SWEEPS["fig9"](), store=store)
    assert cached_run.executed == 0
    want = canonical_json(_golden()["fig9"])
    assert canonical_json(fresh.to_json_dict()) == want
    assert canonical_json(cached_run.figure().to_json_dict()) == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
