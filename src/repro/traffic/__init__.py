"""Traffic generation: the pluggable workload subsystem.

Flow-size distributions (:mod:`~repro.traffic.distributions`), Poisson
arrivals (:mod:`~repro.traffic.flowgen`), utilization sizing helpers
(:mod:`~repro.traffic.workload`), the named workload registry
(:mod:`~repro.traffic.registry`), and the composable adversarial
perturbation layer (:mod:`~repro.traffic.perturb`).
"""

from repro.traffic.distributions import paper_default_workload
from repro.traffic.workload import WorkloadSpec

__all__ = ["WorkloadSpec", "paper_default_workload"]
