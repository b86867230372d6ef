"""The fault-schedule registry: named bundles of fault definitions.

A :class:`FaultScheduleDef` is what scenarios and the CLI reference by name
(``Scenario.faults="loss-1pct"``, ``python -m repro run faults --fault
loss-1pct``), exactly as workloads and slack policies are referenced through
their registries.  Definitions are frozen and picklable; only the
*behavioral* fingerprint (the fault list, not the name or description) ever
enters a cache key.

Built-in schedules registered at import time:

========================  ====================================================
``empty``                 No faults at all — installing it is bit-identical
                          to not installing the fault layer (pinned by the
                          fault-free identity property test).
``loss-0.1pct/1pct/5pct`` Bernoulli packet loss at 0.1%, 1%, 5% per packet.
``burst-loss``            Gilbert-Elliott bursty loss (mean burst 4 packets).
``outage-short``          One all-links outage, 8% of the horizon.
``outage-long``           One all-links outage, 25% of the horizon.
``jam-bursts``            Three deterministic jamming windows, 5% each.
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.faults.defs import (
    BernoulliLoss,
    FaultDef,
    GilbertElliottLoss,
    JammingIntervals,
    LinkOutage,
)
from repro.utils.registry import Registry


@dataclass(frozen=True)
class FaultScheduleDef:
    """A named, ordered bundle of fault definitions.

    Attributes:
        name: Registry name (row labels, CLI, ``Scenario.faults``).
        faults: The fault definitions, applied in order (order matters for
            determinism: per-port drop filters are consulted in this order,
            and RNG substreams are derived from each fault's index).
        description: One-line summary for ``list --faults``.
    """

    name: str
    faults: Tuple[FaultDef, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fault schedules need a non-empty name")
        if not isinstance(self.faults, tuple) or not all(
            isinstance(fault, FaultDef) for fault in self.faults
        ):
            raise ValueError(
                f"fault schedule {self.name!r}: faults must be a tuple of "
                f"FaultDef instances; got {self.faults!r}"
            )

    def is_empty(self) -> bool:
        """Whether this schedule injects nothing (behaviorally fault-free)."""
        return not self.faults

    def fingerprint(self) -> List[dict]:
        """Behavioral fingerprint: the serialized fault list only.

        Renaming or re-describing a schedule never changes it, mirroring
        :meth:`repro.core.slack_policy.SlackPolicyDef.fingerprint`.
        """
        return [fault.to_dict() for fault in self.faults]

    def to_dict(self) -> dict:
        """JSON form for schedule headers (name, faults, description)."""
        return {
            "name": self.name,
            "faults": self.fingerprint(),
            "description": self.description,
        }


#: The process-wide fault-schedule registry.
FAULTS: Registry[FaultScheduleDef] = Registry(
    "fault schedule", hint="(see `python -m repro list --faults`)"
)


def register_fault_schedule(definition: FaultScheduleDef) -> FaultScheduleDef:
    """Register ``definition`` in the global :data:`FAULTS` registry."""
    return FAULTS.register(definition)


# ---------------------------------------------------------------------- #
# Built-in schedules
# ---------------------------------------------------------------------- #
register_fault_schedule(
    FaultScheduleDef(
        name="empty",
        faults=(),
        description="no faults (bit-identical to running without the fault layer)",
    )
)
for _rate, _label in ((0.001, "0.1pct"), (0.01, "1pct"), (0.05, "5pct")):
    register_fault_schedule(
        FaultScheduleDef(
            name=f"loss-{_label}",
            faults=(BernoulliLoss(rate=_rate),),
            description=f"independent per-packet loss at {_rate:.1%} on every link",
        )
    )
register_fault_schedule(
    FaultScheduleDef(
        name="burst-loss",
        faults=(GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.25),),
        description="Gilbert-Elliott bursty loss (2% enter-bad, mean burst 4 packets)",
    )
)
register_fault_schedule(
    FaultScheduleDef(
        name="outage-short",
        faults=(LinkOutage(start=0.4, duration=0.08),),
        description="one all-links outage covering 8% of the horizon",
    )
)
register_fault_schedule(
    FaultScheduleDef(
        name="outage-long",
        faults=(LinkOutage(start=0.4, duration=0.25),),
        description="one all-links outage covering 25% of the horizon",
    )
)
register_fault_schedule(
    FaultScheduleDef(
        name="jam-bursts",
        faults=(JammingIntervals(start=0.2, duration=0.05, period=0.25, count=3),),
        description="three deterministic jamming windows, 5% of the horizon each",
    )
)
