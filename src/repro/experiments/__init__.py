"""Experiment harness: one module per table/figure in the paper's evaluation.

Importing this package registers every experiment definition with the
pipeline's :data:`~repro.pipeline.experiment.REGISTRY`, so
``python -m repro list`` and the parallel runner see all paper artifacts.
Run them with :func:`repro.pipeline.runner.run_pipeline`.
"""

from repro.experiments import ablations  # noqa: F401  (import registers)
from repro.experiments.adversarial import adversarial_scenarios
from repro.experiments.config import ExperimentResult, ExperimentScale
from repro.experiments.faults import fault_scenarios
from repro.experiments import figure1  # noqa: F401  (import registers)
from repro.experiments.figure2 import run_fct_scenario
from repro.experiments.figure3 import run_delay_scenario
from repro.experiments.figure4 import build_long_lived_flows, run_fairness_scenario
from repro.experiments.heuristics import heuristics_scenarios
from repro.experiments.runner import format_result, results_to_json
from repro.experiments.scale import scale_scenarios
from repro.experiments.table1 import (
    default_scenario,
    run_scenario,
    table1_scenarios,
)

__all__ = [
    "ExperimentScale",
    "ExperimentResult",
    "default_scenario",
    "table1_scenarios",
    "run_scenario",
    "run_fct_scenario",
    "run_delay_scenario",
    "run_fairness_scenario",
    "build_long_lived_flows",
    "adversarial_scenarios",
    "heuristics_scenarios",
    "fault_scenarios",
    "scale_scenarios",
    "format_result",
    "results_to_json",
]
