"""Aggregate per-run sweep outcomes into the analysis layer's structures.

A sweep produces one :class:`~repro.experiments.spec.RunResult` per run; the
figures and tables of the paper report *per-scenario* statistics (means over
replicates with bootstrap confidence intervals).  This module folds run
results into the row dictionaries the existing :mod:`repro.analysis`
reporting helpers render, keeping the experiment layer free of any bespoke
statistics code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.stats import bootstrap_ci
from repro.experiments.spec import RunResult

__all__ = ["aggregate_results"]

#: Bootstrap resamples used for the per-scenario confidence intervals; small
#: because sweep tables are rendered interactively, and seeded so aggregate
#: output is deterministic for a given set of runs.
_BOOTSTRAP_RESAMPLES = 500


def aggregate_results(
    results: Iterable[RunResult],
    metrics: Sequence[str] = ("makespan", "mean_queue_time"),
    confidence: Optional[float] = 0.95,
) -> List[dict]:
    """One summary row per scenario: run counts plus mean and CI per metric.

    Failed runs are counted in the ``errors`` column and excluded from the
    statistics.  With a single replicate the CI collapses to the point value
    (the bootstrap is skipped); ``confidence=None`` skips it everywhere.
    """
    results = list(results)
    scenarios: List[str] = []
    for result in results:
        if result.spec.scenario not in scenarios:
            scenarios.append(result.spec.scenario)

    rows: List[dict] = []
    for scenario in scenarios:
        mine = [r for r in results if r.spec.scenario == scenario]
        ok = [r for r in mine if r.ok]
        row: Dict[str, object] = {
            "scenario": scenario,
            "runs": len(mine),
            "errors": len(mine) - len(ok),
        }
        for metric in metrics:
            values = [r.metric(metric) for r in ok]
            if not values:
                row[f"{metric}_mean"] = float("nan")
                if confidence is not None:
                    row[f"{metric}_ci_low"] = float("nan")
                    row[f"{metric}_ci_high"] = float("nan")
                continue
            mean = sum(values) / len(values)
            row[f"{metric}_mean"] = mean
            if confidence is not None:
                if len(values) > 1:
                    _point, low, high = bootstrap_ci(
                        values,
                        confidence=confidence,
                        n_resamples=_BOOTSTRAP_RESAMPLES,
                        seed=0,
                    )
                else:
                    low = high = mean
                row[f"{metric}_ci_low"] = low
                row[f"{metric}_ci_high"] = high
        rows.append(row)
    return rows
