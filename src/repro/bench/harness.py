"""Experiment harness: paired fused/baseline runs and result tables.

Every figure regeneration boils down to: build a fresh simulated cluster,
run the fused operator, build another, run the baseline, and report the
normalized execution time — the paper's y-axis.  :class:`FigureResult`
carries the series plus the paper's reported aggregate, and
:meth:`FigureResult.render` prints the two side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..fused.base import OpHarness

__all__ = ["Row", "FigureResult", "compare"]


@dataclass(frozen=True)
class Row:
    """One configuration's outcome."""

    label: str
    fused_time: float
    baseline_time: float

    @property
    def normalized(self) -> float:
        return self.fused_time / self.baseline_time


@dataclass
class FigureResult:
    """A regenerated table/figure."""

    figure: str
    description: str
    rows: List[Row] = field(default_factory=list)
    paper_mean: Optional[float] = None    #: paper's average normalized time
    paper_best: Optional[float] = None    #: paper's best (lowest) value
    extra: Dict = field(default_factory=dict)

    def add(self, row: Row) -> None:
        self.rows.append(row)

    @property
    def mean_normalized(self) -> float:
        if not self.rows:
            raise ValueError("no rows")
        return sum(r.normalized for r in self.rows) / len(self.rows)

    @property
    def best_normalized(self) -> float:
        return min(r.normalized for r in self.rows)

    def render(self) -> str:
        """Human-readable table, matching the paper's figure semantics."""
        lines = [f"== {self.figure}: {self.description} =="]
        width = max((len(r.label) for r in self.rows), default=8)
        if self.rows:
            lines.append(f"{'config':<{width}}  {'fused':>12}  "
                         f"{'baseline':>12}  {'normalized':>10}")
            for r in self.rows:
                lines.append(
                    f"{r.label:<{width}}  {r.fused_time * 1e3:>10.3f}ms  "
                    f"{r.baseline_time * 1e3:>10.3f}ms  {r.normalized:>10.3f}")
            lines.append(f"{'mean':<{width}}  {'':>12}  {'':>12}  "
                         f"{self.mean_normalized:>10.3f}")
        if self.paper_mean is not None:
            lines.append(f"paper reports: mean {self.paper_mean:.2f}"
                         + (f", best {self.paper_best:.2f}"
                            if self.paper_best is not None else ""))
        for k, v in self.extra.items():
            lines.append(f"{k}: {v}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, float]:
        """Machine-readable aggregates (attached to benchmark extra_info)."""
        out = {
            "mean_normalized": round(self.mean_normalized, 4),
            "best_normalized": round(self.best_normalized, 4),
        }
        if self.paper_mean is not None:
            out["paper_mean"] = self.paper_mean
        if self.paper_best is not None:
            out["paper_best"] = self.paper_best
        return out

    def to_json_dict(self) -> Dict:
        """Full machine-readable export (the experiment store's payload).

        Everything needed to reconstruct the figure: rows with exact
        (unrounded) times, paper aggregates, and the ``extra`` mapping.
        ``extra`` values must be JSON-representable — true for every
        figure this package produces.
        """
        return {
            "schema": "repro.bench.figure/v1",
            "figure": self.figure,
            "description": self.description,
            "rows": [
                {"label": r.label, "fused_time": r.fused_time,
                 "baseline_time": r.baseline_time}
                for r in self.rows
            ],
            "paper_mean": self.paper_mean,
            "paper_best": self.paper_best,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "FigureResult":
        """Inverse of :meth:`to_json_dict` (round-trips exactly)."""
        res = cls(figure=payload["figure"],
                  description=payload["description"],
                  paper_mean=payload.get("paper_mean"),
                  paper_best=payload.get("paper_best"),
                  extra=dict(payload.get("extra", {})))
        for row in payload.get("rows", ()):
            res.add(Row(label=row["label"], fused_time=row["fused_time"],
                        baseline_time=row["baseline_time"]))
        return res


def compare(label: str, fused_factory: Callable, baseline_factory: Callable,
            num_nodes: int, gpus_per_node: int, platform=None) -> Row:
    """Run one fused/baseline pair on fresh clusters; return the row.

    The factories receive the :class:`OpHarness` and return the operator
    instance to run.  ``platform`` selects the hardware for both runs
    (anything :func:`repro.hw.platform.get_platform` resolves; default:
    the calibrated MI210).
    """
    h1 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                   platform=platform)
    fused = h1.run(fused_factory(h1))
    h2 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                   platform=platform)
    base = h2.run(baseline_factory(h2))
    return Row(label=label, fused_time=fused.elapsed,
               baseline_time=base.elapsed)
