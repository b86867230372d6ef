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
  (cells / run_cell / assemble) and its scenario-shaped base
  :class:`~repro.pipeline.experiment.ScenarioExperimentDef` (scenarios x
  modes, one row each), the
  :class:`~repro.pipeline.experiment.ScenarioRegistry` that maps paper
  artifacts (Table 1, Figures 1-4, ablations) to their definitions, and the
  one scenario → schedule lookup
  (:func:`~repro.pipeline.experiment.cached_schedule`) under the shared
  replay helper;
* :mod:`repro.pipeline.runner` — one plan → execute → merge loop that runs
  independent (scenario x seed x replay-mode) cells on an in-process
  executor (``workers=1``) or a ``ProcessPoolExecutor`` and merges the
  results by cell index, so rows are identical for every worker count.

The ``python -m repro`` CLI (:mod:`repro.__main__`) exposes all of this from
the command line.
"""

from repro.pipeline.cache import ScheduleCache, schedule_cache_key, workload_fingerprint
from repro.pipeline.experiment import default_registry, record_scenario_schedule, replay_scenario
from repro.pipeline.runner import run_pipeline

__all__ = [
    "ScheduleCache",
    "default_registry",
    "record_scenario_schedule",
    "replay_scenario",
    "run_pipeline",
    "schedule_cache_key",
    "workload_fingerprint",
]
