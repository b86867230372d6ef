"""The workload registry: named, parameterized, picklable workload definitions.

A :class:`WorkloadDef` fully describes one offered-traffic pattern: the
factory of its flow-size distribution (one of
:mod:`repro.traffic.distributions`' named workloads), Poisson arrivals, and
a tuple of composable :class:`~repro.traffic.perturb.Perturbation` objects
wrapping the base workload.  Definitions are frozen value objects, so they
can be shipped to pool workers and listed by the CLI; what a workload
contributes to a schedule-cache key is
:func:`repro.pipeline.cache.workload_fingerprint` of the
:class:`~repro.traffic.workload.WorkloadSpec` built from it.

The global :data:`WORKLOADS` registry replaces the hard-coded workload
factory lambdas that scenarios used to close over; the paper's three
workloads are registered in the ``"paper"`` group and the adversarial
stress-test workloads (arXiv:1705.07018-style jamming, incast, tail
inflation, deadline tagging) in the ``"adversarial"`` group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.traffic.distributions import (
    FlowSizeDistribution,
    data_mining_workload,
    paper_default_workload,
    web_search_workload,
)
from repro.traffic.perturb import (
    DeadlineTagging,
    HeavyTailInflation,
    IncastBurst,
    OnOffJamming,
    Perturbation,
)
from repro.utils.registry import Registry


@dataclass(frozen=True)
class WorkloadDef:
    """One named workload: distribution + perturbations on Poisson arrivals.

    Attributes:
        name: Registry key (what scenarios reference).
        distribution: Factory of the flow-size distribution.
        perturbations: Composable perturbation stack applied to the base
            arrival process, in order.
        group: Scenario-matrix group (``"paper"``, ``"adversarial"``, or
            ``"heuristics"``).
        description: One-line summary shown by ``python -m repro list
            --workloads``.
    """

    name: str
    distribution: Callable[[], FlowSizeDistribution]
    perturbations: Tuple[Perturbation, ...] = ()
    group: str = "paper"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload definitions need a non-empty name")
        object.__setattr__(self, "perturbations", tuple(self.perturbations))

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def mean_flow_size(self) -> float:
        """Expected flow size in bytes of the (unperturbed) distribution."""
        return self.distribution().mean()

    def describe_perturbations(self) -> str:
        """Comma-joined perturbation labels (``"-"`` when unperturbed)."""
        if not self.perturbations:
            return "-"
        return ", ".join(p.describe() for p in self.perturbations)


class WorkloadRegistry(Registry[WorkloadDef]):
    """Maps workload names to their definitions, in registration order."""

    def __init__(self) -> None:
        super().__init__("workload")

    def group(self, group: str) -> List[WorkloadDef]:
        """Definitions belonging to one scenario-matrix group, in order."""
        return [d for d in self._definitions.values() if d.group == group]


#: The process-wide workload registry (populated below at import time).
WORKLOADS = WorkloadRegistry()


def register_workload(definition: WorkloadDef) -> WorkloadDef:
    """Register ``definition`` in the global registry."""
    return WORKLOADS.register(definition)


# ---------------------------------------------------------------------- #
# Built-in definitions
# ---------------------------------------------------------------------- #
register_workload(
    WorkloadDef(
        name="paper-default",
        distribution=paper_default_workload,
        group="paper",
        description="bounded Pareto (alpha=1.2, 1.5KB-3MB), the replay default",
    )
)
register_workload(
    WorkloadDef(
        name="web-search",
        distribution=web_search_workload,
        group="paper",
        description="web-search flow-size mixture (pFabric-style)",
    )
)
register_workload(
    WorkloadDef(
        name="data-mining",
        distribution=data_mining_workload,
        group="paper",
        description="data-mining flow-size mixture (heavier tail)",
    )
)

register_workload(
    WorkloadDef(
        name="incast-burst",
        distribution=paper_default_workload,
        perturbations=(IncastBurst(bursts=3, fanin=8, flow_bytes=30_000.0),),
        group="adversarial",
        description="Poisson base plus synchronized many-to-one incast bursts",
    )
)
register_workload(
    WorkloadDef(
        name="on-off-jamming",
        distribution=paper_default_workload,
        perturbations=(
            OnOffJamming(cycles=4, on_fraction=0.25, on_multiplier=4.0, off_multiplier=0.0),
        ),
        group="adversarial",
        description="arrivals compressed into ON jamming windows (mean load preserved)",
    )
)
register_workload(
    WorkloadDef(
        name="heavy-tail-extreme",
        distribution=paper_default_workload,
        perturbations=(HeavyTailInflation(probability=0.05, factor=10.0, max_bytes=30e6),),
        group="adversarial",
        description="5% of flows inflated 10x: an even heavier elephant tail",
    )
)
register_workload(
    WorkloadDef(
        name="deadline-tagged",
        distribution=paper_default_workload,
        perturbations=(DeadlineTagging(fraction=0.5, slack_factor=6.0),),
        group="adversarial",
        description="default workload with half the flows deadline-tagged",
    )
)
register_workload(
    WorkloadDef(
        name="deadline-tagged-tight",
        distribution=paper_default_workload,
        perturbations=(DeadlineTagging(fraction=0.75, slack_factor=3.0),),
        group="heuristics",
        description="three quarters of the flows deadline-tagged, 3x-ideal budgets",
    )
)
register_workload(
    WorkloadDef(
        name="adversarial-combo",
        distribution=paper_default_workload,
        perturbations=(
            OnOffJamming(cycles=4, on_fraction=0.25, on_multiplier=3.0, off_multiplier=0.25),
            IncastBurst(bursts=2, fanin=6, flow_bytes=30_000.0),
            HeavyTailInflation(probability=0.03, factor=8.0, max_bytes=30e6),
        ),
        group="adversarial",
        description="jamming + incast + tail inflation stacked on one workload",
    )
)
