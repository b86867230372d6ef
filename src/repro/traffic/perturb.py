"""Composable workload perturbations: the adversarial traffic layer.

The paper's universality claim is tested against benign Poisson/heavy-tail
workloads; this module supplies the adversarial counterparts (in the spirit
of "On Packet Scheduling with Adversarial Jamming and Speedup",
arXiv:1705.07018) as *perturbations* that wrap any base workload:

* :class:`IncastBurst` — synchronized many-to-one bursts aimed at a single
  victim host (the classic datacenter incast pattern);
* :class:`OnOffJamming` — ON/OFF modulation of the Poisson arrival rate
  (adversarial jamming windows followed by quiet periods);
* :class:`HeavyTailInflation` — random inflation of flow sizes, making an
  already heavy tail heavier;
* :class:`DeadlineTagging` — tags a fraction of flows with completion
  deadlines so replay quality can be judged in deadline terms.

Perturbations are frozen, picklable value objects; their ``to_dict`` form
feeds the schedule cache's content hash, so two workloads that differ only
in their perturbations never share a cache entry.  All randomness is drawn
from the flow generator's seeded stream, which keeps perturbed arrivals
deterministic under a fixed seed — in-process, across processes, and across
machines.
"""

from __future__ import annotations

import dataclasses
from abc import ABC
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Optional, Tuple

from repro.utils.registry import spec_dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.flow import Flow
    from repro.utils.rng import RandomState


@dataclass(frozen=True)
class PerturbationContext:
    """Static facts about the run a perturbation may consult.

    Attributes:
        duration: Length of the flow-arrival window in seconds.
        reference_bandwidth_bps: Bandwidth of the workload's reference link
            (``None`` when the generator was built without a workload spec).
        sources: Host names that originate flows, in generator order.
        destinations: Candidate destination host names.
        mss: Maximum segment size used when packetizing flows.
        start: When the flow-arrival window opens (generator ``start_time``);
            time-based perturbations (jamming cycles, burst epochs) are
            phased relative to this, not to simulation time zero.
    """

    duration: float
    reference_bandwidth_bps: Optional[float]
    sources: Tuple[str, ...]
    destinations: Tuple[str, ...]
    mss: int
    start: float = 0.0


class Perturbation(ABC):
    """One composable transformation of a base workload.

    Subclasses are frozen dataclasses; every hook has a no-op default so a
    perturbation only overrides the aspects of traffic generation it
    actually touches.  Hooks are called by
    :class:`~repro.traffic.flowgen.PoissonFlowGenerator`.
    """

    #: Stable serialization tag, written first by :meth:`to_dict`.
    kind: ClassVar[str] = ""

    # ------------------------------------------------------------------ #
    # Hooks (all optional)
    # ------------------------------------------------------------------ #
    def rate_multiplier(self, time: float, context: PerturbationContext) -> float:
        """Multiplier on the Poisson arrival rate at ``time`` (1.0 = unchanged)."""
        return 1.0

    def next_transition(
        self, time: float, context: PerturbationContext
    ) -> Optional[float]:
        """The next instant after ``time`` at which :meth:`rate_multiplier`
        changes, or ``None`` if it never does (used to skip zero-rate windows)."""
        return None

    def transform_size(
        self, size: float, rng: "RandomState", context: PerturbationContext
    ) -> float:
        """Rewrite one sampled flow size (bytes)."""
        return size

    def annotate_flow(
        self, flow: "Flow", rng: "RandomState", context: PerturbationContext
    ) -> None:
        """Attach metadata (e.g. a deadline) to a freshly created flow."""

    def extra_flows(
        self, rng: "RandomState", context: PerturbationContext
    ) -> List["Flow"]:
        """Adversarial flows injected on top of the base arrival process."""
        return []

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    #: JSON form for the schedule-cache hash: ``kind`` + every field.
    to_dict = spec_dict

    def describe(self) -> str:
        """Short ``kind(param=value, ...)`` label for CLI listings."""
        params = dataclasses.asdict(self)  # type: ignore[call-overload]
        inner = ", ".join(f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}"
                          for name, value in params.items())
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class IncastBurst(Perturbation):
    """Synchronized many-to-one bursts aimed at one victim host.

    At ``bursts`` evenly spaced epochs inside the arrival window, ``fanin``
    sources simultaneously open a ``flow_bytes`` flow to the same victim —
    the datacenter incast pattern that stresses a single egress queue far
    beyond what Poisson arrivals produce.

    Attributes:
        bursts: Number of burst epochs across the arrival window.
        fanin: Flows per burst (sources cycle deterministically).
        flow_bytes: Size of each burst flow.
        victim_index: Index into the sorted destination list selecting the
            victim host (deterministic, so replays agree across processes).
    """

    kind: ClassVar[str] = "incast-burst"

    bursts: int = 3
    fanin: int = 8
    flow_bytes: float = 30_000.0
    victim_index: int = 0

    def extra_flows(
        self, rng: "RandomState", context: PerturbationContext
    ) -> List["Flow"]:
        from repro.sim.flow import Flow

        if context.duration <= 0 or not context.destinations:
            return []
        victims = sorted(context.destinations)
        victim = victims[self.victim_index % len(victims)]
        senders = [name for name in sorted(context.sources) if name != victim]
        if not senders:
            return []
        flows: List[Flow] = []
        for burst in range(self.bursts):
            start = context.start + context.duration * (burst + 1) / (self.bursts + 1)
            for lane in range(self.fanin):
                src = senders[(burst * self.fanin + lane) % len(senders)]
                flows.append(
                    Flow(
                        src=src,
                        dst=victim,
                        size_bytes=float(self.flow_bytes),
                        start_time=start,
                        mss=context.mss,
                    )
                )
        return flows


@dataclass(frozen=True)
class OnOffJamming(Perturbation):
    """ON/OFF modulation of the arrival rate (adversarial jamming windows).

    The arrival window is split into ``cycles`` equal cycles; the first
    ``on_fraction`` of each cycle multiplies the Poisson rate by
    ``on_multiplier`` (a jamming burst), the remainder by ``off_multiplier``
    (quiet, possibly silent when 0).  Mean offered load is preserved when
    ``on_fraction * on_multiplier + (1 - on_fraction) * off_multiplier == 1``.
    """

    kind: ClassVar[str] = "on-off-jamming"

    cycles: int = 4
    on_fraction: float = 0.25
    on_multiplier: float = 4.0
    off_multiplier: float = 0.0

    def _cycle_length(self, context: PerturbationContext) -> float:
        if context.duration <= 0 or self.cycles <= 0:
            return 0.0
        return context.duration / self.cycles

    def rate_multiplier(self, time: float, context: PerturbationContext) -> float:
        cycle = self._cycle_length(context)
        if cycle <= 0:
            return 1.0
        elapsed = max(0.0, time - context.start)
        phase = (elapsed % cycle) / cycle
        return self.on_multiplier if phase < self.on_fraction else self.off_multiplier

    def next_transition(
        self, time: float, context: PerturbationContext
    ) -> Optional[float]:
        cycle = self._cycle_length(context)
        if cycle <= 0:
            return None
        elapsed = max(0.0, time - context.start)
        index = int(elapsed // cycle)
        on_end = context.start + index * cycle + self.on_fraction * cycle
        if time < on_end:
            return on_end
        return context.start + (index + 1) * cycle


@dataclass(frozen=True)
class HeavyTailInflation(Perturbation):
    """Randomly inflates sampled flow sizes, making the tail heavier.

    With probability ``probability`` a flow's size is multiplied by
    ``factor`` (capped at ``max_bytes``) — the elephant flows that dominate
    byte counts get even larger, skewing the slack distribution that LSTF
    replay depends on.
    """

    kind: ClassVar[str] = "heavy-tail-inflation"

    probability: float = 0.05
    factor: float = 10.0
    max_bytes: float = 30e6

    def transform_size(
        self, size: float, rng: "RandomState", context: PerturbationContext
    ) -> float:
        if rng.uniform(0.0, 1.0) < self.probability:
            return min(size * self.factor, self.max_bytes)
        return size


@dataclass(frozen=True)
class DeadlineTagging(Perturbation):
    """Tags a fraction of flows with completion deadlines.

    A tagged flow's deadline is its start time plus ``slack_factor`` times
    the flow's ideal (uncontended) transfer time on the reference link, plus
    ``extra_seconds``.  Deadlines ride through the recorded schedule so the
    replay evaluation can report deadline-met fractions for the original
    and the replay side by side.
    """

    kind: ClassVar[str] = "deadline-tagging"

    fraction: float = 0.5
    slack_factor: float = 2.0
    extra_seconds: float = 0.0

    def annotate_flow(
        self, flow: "Flow", rng: "RandomState", context: PerturbationContext
    ) -> None:
        if context.reference_bandwidth_bps is None or context.reference_bandwidth_bps <= 0:
            return
        if rng.uniform(0.0, 1.0) >= self.fraction:
            return
        ideal = flow.size_bytes * 8.0 / context.reference_bandwidth_bps
        flow.deadline = flow.start_time + self.slack_factor * ideal + self.extra_seconds
