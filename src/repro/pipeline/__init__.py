"""The experiment pipeline: record once, replay many, in parallel.

This package turns the paper's "record a schedule, replay it with candidate
universal schedulers" methodology (Section 2.3) into a production-shaped
subsystem:

* :mod:`repro.pipeline.scenario` — declarative, picklable
  :class:`~repro.pipeline.scenario.Scenario` descriptions of one record/replay
  cell, plus :class:`~repro.pipeline.scenario.Sweep` for one-parameter
  scenario matrices;
* :mod:`repro.pipeline.cache` — a content-addressed, on-disk
  :class:`~repro.pipeline.cache.ScheduleCache` keyed by (topology, original
  scheduler, workload, seed) so every original schedule is recorded exactly
  once and shared across replay modes, experiments, processes, and
  invocations;
* :mod:`repro.pipeline.experiment` — the
  :class:`~repro.pipeline.experiment.ExperimentDef` protocol
  (cells / run_cell / assemble), the
  :class:`~repro.pipeline.experiment.ScenarioRegistry` that maps paper
  artifacts (Table 1, Figures 1-4, ablations) to their definitions, and the
  shared record-with-cache replay helper;
* :mod:`repro.pipeline.runner` — a ``ProcessPoolExecutor``-based runner that
  fans independent (scenario x seed x replay-mode) cells out across workers
  and merges the results deterministically, so parallel runs are row-for-row
  identical to serial ones.

The ``python -m repro`` CLI (:mod:`repro.__main__`) exposes all of this from
the command line.
"""

from repro.pipeline.cache import ScheduleCache, schedule_cache_key, workload_fingerprint
from repro.pipeline.experiment import (
    REGISTRY,
    Cell,
    CellResult,
    ExperimentDef,
    ScenarioRegistry,
    default_registry,
    record_scenario_schedule,
    register_experiment,
    replay_scenario,
    scenario_cache_key,
)
from repro.pipeline.runner import (
    RunSummary,
    aggregate_replicate_rows,
    run_pipeline,
)
from repro.pipeline.scenario import (
    PipelineConfigError,
    WORKLOAD_FACTORIES,
    Scenario,
    Sweep,
    override_slack_policy,
    override_workload,
)

__all__ = [
    "Cell",
    "CellResult",
    "ExperimentDef",
    "PipelineConfigError",
    "REGISTRY",
    "RunSummary",
    "Scenario",
    "ScenarioRegistry",
    "ScheduleCache",
    "Sweep",
    "WORKLOAD_FACTORIES",
    "aggregate_replicate_rows",
    "default_registry",
    "override_slack_policy",
    "override_workload",
    "record_scenario_schedule",
    "register_experiment",
    "replay_scenario",
    "run_pipeline",
    "scenario_cache_key",
    "schedule_cache_key",
    "workload_fingerprint",
]
