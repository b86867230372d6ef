"""The workload registry: named, parameterized, picklable workload definitions.

A :class:`WorkloadDef` fully describes one offered-traffic pattern as plain
data: a :class:`DistributionSpec` naming the flow-size distribution and its
parameters, the arrival process (Poisson), and a tuple of composable
:class:`~repro.traffic.perturb.Perturbation` objects wrapping the base
workload.  Because definitions are frozen value objects with a lossless
``to_dict``/``from_dict`` round-trip, they can be hashed into schedule-cache
keys, shipped to pool workers, listed by the CLI, and reconstructed from
persisted experiment metadata.

The global :data:`WORKLOADS` registry replaces the hard-coded workload
factory lambdas that scenarios used to close over; the paper's three
workloads are registered in the ``"paper"`` group and the adversarial
stress-test workloads (arXiv:1705.07018-style jamming, incast, tail
inflation, deadline tagging) in the ``"adversarial"`` group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.traffic.distributions import (
    DATA_MINING_POINTS,
    WEB_SEARCH_POINTS,
    BoundedParetoSize,
    ConstantSize,
    EmpiricalSize,
    ExponentialSize,
    FlowSizeDistribution,
)
from repro.traffic.perturb import (
    DeadlineTagging,
    HeavyTailInflation,
    IncastBurst,
    OnOffJamming,
    Perturbation,
)
from repro.utils.registry import Registry

#: Distribution constructors by serialization kind.
DISTRIBUTION_KINDS: Dict[str, Callable[..., FlowSizeDistribution]] = {
    "bounded-pareto": BoundedParetoSize,
    "empirical": lambda points: EmpiricalSize(list(points)),
    "constant": ConstantSize,
    "exponential": ExponentialSize,
}


def _freeze(value):
    """Recursively convert lists to tuples so specs stay hashable."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, tuple):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value):
    """Recursively convert tuples to lists for JSON serialization."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class DistributionSpec:
    """A flow-size distribution as plain data: a kind plus keyword parameters.

    ``params`` is a sorted tuple of ``(name, value)`` pairs (nested sequences
    are tuples) so specs stay hashable and picklable.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in DISTRIBUTION_KINDS:
            known = ", ".join(sorted(DISTRIBUTION_KINDS))
            raise ValueError(f"unknown distribution kind {self.kind!r}; known: {known}")
        object.__setattr__(
            self, "params", tuple(sorted((name, _freeze(value)) for name, value in self.params))
        )

    def build(self) -> FlowSizeDistribution:
        """Instantiate the distribution this spec describes."""
        return DISTRIBUTION_KINDS[self.kind](**dict(self.params))

    def to_dict(self) -> dict:
        """Lossless JSON-serializable form."""
        return {
            "kind": self.kind,
            "params": {name: _thaw(value) for name, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            params=tuple((name, _freeze(value)) for name, value in data.get("params", {}).items()),
        )


@dataclass(frozen=True)
class WorkloadDef:
    """One named workload: distribution + arrival process + perturbations.

    Attributes:
        name: Registry key (what scenarios reference).
        distribution: Flow-size distribution spec.
        perturbations: Composable perturbation stack applied to the base
            arrival process, in order.
        arrival: Arrival-process kind (currently always ``"poisson"``).
        group: Scenario-matrix group (``"paper"``, ``"adversarial"``, or
            ``"heuristics"``).
        description: One-line summary shown by ``python -m repro list
            --workloads``.
    """

    name: str
    distribution: DistributionSpec
    perturbations: Tuple[Perturbation, ...] = ()
    arrival: str = "poisson"
    group: str = "paper"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload definitions need a non-empty name")
        if self.arrival != "poisson":
            raise ValueError(f"unsupported arrival process {self.arrival!r}")
        object.__setattr__(self, "perturbations", tuple(self.perturbations))

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def build_distribution(self) -> FlowSizeDistribution:
        """Instantiate this workload's flow-size distribution."""
        return self.distribution.build()

    def mean_flow_size(self) -> float:
        """Expected flow size in bytes of the (unperturbed) distribution."""
        return self.build_distribution().mean()

    def describe_perturbations(self) -> str:
        """Comma-joined perturbation labels (``"-"`` when unperturbed)."""
        if not self.perturbations:
            return "-"
        return ", ".join(p.describe() for p in self.perturbations)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Lossless JSON-serializable form (feeds the schedule-cache hash)."""
        return {
            "name": self.name,
            "arrival": self.arrival,
            "group": self.group,
            "description": self.description,
            "distribution": self.distribution.to_dict(),
            "perturbations": [p.to_dict() for p in self.perturbations],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadDef":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            distribution=DistributionSpec.from_dict(data["distribution"]),
            perturbations=tuple(
                Perturbation.from_dict(p) for p in data.get("perturbations", [])
            ),
            arrival=data.get("arrival", "poisson"),
            group=data.get("group", "paper"),
            description=data.get("description", ""),
        )


class WorkloadRegistry(Registry[WorkloadDef]):
    """Maps workload names to their definitions, in registration order."""

    def __init__(self) -> None:
        super().__init__("workload")

    def group(self, group: str) -> List[WorkloadDef]:
        """Definitions belonging to one scenario-matrix group, in order."""
        return [d for d in self._definitions.values() if d.group == group]

    def groups(self) -> List[str]:
        """Distinct group names, in first-appearance order."""
        seen: List[str] = []
        for definition in self._definitions.values():
            if definition.group not in seen:
                seen.append(definition.group)
        return seen


#: The process-wide workload registry (populated below at import time).
WORKLOADS = WorkloadRegistry()


def register_workload(definition: WorkloadDef) -> WorkloadDef:
    """Register ``definition`` in the global registry."""
    return WORKLOADS.register(definition)


# ---------------------------------------------------------------------- #
# Built-in definitions
# ---------------------------------------------------------------------- #
#: Distribution spec of the paper's default bounded-Pareto workload.  The
#: parameters must match :func:`repro.traffic.distributions
#: .paper_default_workload` exactly — the schedule cache hashes them.
PAPER_DEFAULT_SPEC = DistributionSpec(
    "bounded-pareto",
    (("alpha", 1.2), ("minimum_bytes", 1460.0), ("maximum_bytes", 3e6)),
)

register_workload(
    WorkloadDef(
        name="paper-default",
        distribution=PAPER_DEFAULT_SPEC,
        group="paper",
        description="bounded Pareto (alpha=1.2, 1.5KB-3MB), the replay default",
    )
)
register_workload(
    WorkloadDef(
        name="web-search",
        distribution=DistributionSpec("empirical", (("points", WEB_SEARCH_POINTS),)),
        group="paper",
        description="web-search flow-size mixture (pFabric-style)",
    )
)
register_workload(
    WorkloadDef(
        name="data-mining",
        distribution=DistributionSpec("empirical", (("points", DATA_MINING_POINTS),)),
        group="paper",
        description="data-mining flow-size mixture (heavier tail)",
    )
)

register_workload(
    WorkloadDef(
        name="incast-burst",
        distribution=PAPER_DEFAULT_SPEC,
        perturbations=(IncastBurst(bursts=3, fanin=8, flow_bytes=30_000.0),),
        group="adversarial",
        description="Poisson base plus synchronized many-to-one incast bursts",
    )
)
register_workload(
    WorkloadDef(
        name="on-off-jamming",
        distribution=PAPER_DEFAULT_SPEC,
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
        distribution=PAPER_DEFAULT_SPEC,
        perturbations=(HeavyTailInflation(probability=0.05, factor=10.0, max_bytes=30e6),),
        group="adversarial",
        description="5% of flows inflated 10x: an even heavier elephant tail",
    )
)
register_workload(
    WorkloadDef(
        name="deadline-tagged",
        distribution=PAPER_DEFAULT_SPEC,
        perturbations=(DeadlineTagging(fraction=0.5, slack_factor=6.0),),
        group="adversarial",
        description="default workload with half the flows deadline-tagged",
    )
)
register_workload(
    WorkloadDef(
        name="deadline-tagged-tight",
        distribution=PAPER_DEFAULT_SPEC,
        perturbations=(DeadlineTagging(fraction=0.75, slack_factor=3.0),),
        group="heuristics",
        description="three quarters of the flows deadline-tagged, 3x-ideal budgets",
    )
)
register_workload(
    WorkloadDef(
        name="adversarial-combo",
        distribution=PAPER_DEFAULT_SPEC,
        perturbations=(
            OnOffJamming(cycles=4, on_fraction=0.25, on_multiplier=3.0, off_multiplier=0.25),
            IncastBurst(bursts=2, fanin=6, flow_bytes=30_000.0),
            HeavyTailInflation(probability=0.03, factor=8.0, max_bytes=30e6),
        ),
        group="adversarial",
        description="jamming + incast + tail inflation stacked on one workload",
    )
)
