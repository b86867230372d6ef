"""Workload sizing helpers: translating a target utilization into flow arrival rates.

The paper's experiments are parameterized by "network utilization" (10-90%).
For a Poisson flow-arrival process with mean flow size ``S`` bytes, a link of
bandwidth ``B`` bits/second offered flows at rate ``lambda`` per second
carries load ``rho = lambda * 8S / B``.  The helpers below invert that
relation so experiments can say "70% utilization" and let the generator work
out the per-host arrival rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.traffic.distributions import FlowSizeDistribution
from repro.traffic.perturb import Perturbation
from repro.utils.units import BITS_PER_BYTE


def arrival_rate_for_utilization(
    utilization: float,
    bandwidth_bps: float,
    mean_flow_size_bytes: float,
) -> float:
    """Poisson flow arrival rate (flows/second) that loads a link to ``utilization``.

    Args:
        utilization: Target offered load as a fraction of link capacity (0, 1].
        bandwidth_bps: Capacity of the link whose load is being targeted.
        mean_flow_size_bytes: Mean flow size of the workload.
    """
    if not 0 < utilization <= 1.5:
        raise ValueError(f"utilization should be in (0, 1.5], got {utilization}")
    if bandwidth_bps <= 0 or mean_flow_size_bytes <= 0:
        raise ValueError("bandwidth and mean flow size must be positive")
    return utilization * bandwidth_bps / (mean_flow_size_bytes * BITS_PER_BYTE)


@dataclass
class WorkloadSpec:
    """A complete description of the offered traffic for one experiment run.

    Attributes:
        utilization: Target load on the reference link (usually the
            edge-to-core access link, which every host's traffic crosses once).
        reference_bandwidth_bps: Bandwidth of that reference link.
        size_distribution: Flow-size distribution.
        transport: ``"udp"`` or ``"tcp"``.
        duration: Length of the flow-arrival window in seconds.
        mss: Maximum segment size used when packetizing flows.
        perturbations: Adversarial perturbation stack applied to the base
            arrival process (see :mod:`repro.traffic.perturb`).  Empty for
            the paper's unperturbed workloads; when non-empty it enters the
            schedule cache's workload fingerprint.
    """

    utilization: float
    reference_bandwidth_bps: float
    size_distribution: FlowSizeDistribution
    transport: str = "udp"
    duration: float = 1.0
    mss: int = 1460
    perturbations: Tuple[Perturbation, ...] = ()

    def per_host_arrival_rate(self) -> float:
        """Poisson flow arrival rate per source host for the target utilization."""
        return arrival_rate_for_utilization(
            self.utilization,
            self.reference_bandwidth_bps,
            self.size_distribution.mean(),
        )

    def expected_flows_per_host(self) -> float:
        """Expected number of flows each host originates during the run."""
        return self.per_host_arrival_rate() * self.duration
