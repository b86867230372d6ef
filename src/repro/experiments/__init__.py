"""Experiment harness: one module per table/figure in the paper's evaluation.

Importing this package registers every experiment definition with the
pipeline's :data:`~repro.pipeline.experiment.REGISTRY`, so
``python -m repro list`` and the parallel runner see all paper artifacts.
Run them with :func:`repro.pipeline.runner.run_pipeline`.
"""

# Each experiment module registers its definitions on import, in this order.
from repro.experiments import (  # noqa: F401
    ablations,
    adversarial,
    faults,
    figure1,
    figure2,
    figure3,
    figure4,
    heuristics,
    scale,
    table1,
)
from repro.experiments.config import ExperimentScale

__all__ = ["ExperimentScale"]
