"""Figure 1: CDF of queueing-delay ratios (LSTF replay vs original schedule).

For each original scheduler on the default Internet2 scenario at 70%
utilization, the figure plots the CDF over packets of

    ``queueing_delay_in_LSTF_replay / queueing_delay_in_original_schedule``.

The paper's headline observation is that most packets see *less* queueing in
the replay (ratio below 1), because LSTF never makes a packet wait behind one
that has plenty of slack left ("wasted waiting").  Only this figure computes
the ratios (:func:`repro.core.metrics.queueing_delay_ratios`).

Each original scheduler is one pipeline cell; the recorded schedules are
shared (via the content-addressed cache) with the Table-1 rows that replay
the same scenarios.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.metrics import queueing_delay_ratios
from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import default_scenario
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import (
    Cell,
    CellResult,
    ExperimentDef,
    register_experiment,
    replay_scenario,
)
from repro.pipeline.scenario import override_workload
from repro.utils.stats import cdf_points, percentile

#: Original schedulers compared in Figure 1.
FIGURE1_SCHEDULERS: Tuple[str, ...] = ("random", "fifo", "fq", "sjf", "lifo", "fq+fifo+")


class Figure1Definition(ExperimentDef):
    """One cell per original scheduler; each returns its row and CDF curve."""

    name = "figure1"
    notes = (
        "Paper (Figure 1): for every original scheduler the bulk of the "
        "CDF lies at or below ratio 1.0 — most packets see no more "
        "queueing in the LSTF replay than in the original schedule."
    )

    supports_workload = True

    def cells(self, scale: ExperimentScale) -> List[Cell]:
        cells: List[Cell] = []
        for scheduler in FIGURE1_SCHEDULERS:
            scenario = default_scenario(scale, original=scheduler)
            if self.workload is not None:
                (scenario,) = override_workload([scenario], self.workload)
            cells.append(Cell(self.name, scheduler, "lstf", scenario.seed, spec=scenario))
        return cells

    def run_cell(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> CellResult:
        result = replay_scenario(cell.spec, mode=cell.mode, cache=cache)
        xs, cdf = cdf_points(queueing_delay_ratios(result.original, result.replayed))
        if xs:
            at_most_one = sum(1 for value in xs if value <= 1.0 + 1e-9) / len(xs)
            median = percentile(xs, 50)
            p90 = percentile(xs, 90)
        else:
            at_most_one, median, p90 = 0.0, 0.0, 0.0
        return CellResult(
            cell=cell,
            row={
                "original": cell.label,
                "packets": len(xs),
                "median_ratio": median,
                "p90_ratio": p90,
                "fraction_at_most_1": at_most_one,
            },
            curve=(xs, cdf),
            curve_key=cell.label,
        )

    def assemble(self, scale, results):
        merged = super().assemble(scale, results)
        # Rows sorted by original-scheduler name, matching the paper's legend.
        merged.rows.sort(key=lambda row: row["original"])
        return merged


register_experiment(Figure1Definition())
