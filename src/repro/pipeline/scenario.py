"""Declarative scenario descriptions.

A :class:`Scenario` is a frozen, picklable value object describing one
record/replay cell: which topology to build (by :class:`ExperimentScale`
builder name, so the scenario itself never holds live simulator objects),
what workload to offer, which "original" scheduler records the schedule, and
which candidate universal scheduler replays it.  Because scenarios are plain
data they can be hashed into cache keys, shipped to pool workers, and listed
by the CLI without running anything.

:class:`Sweep` expands a base scenario along one parameter (utilization,
original scheduler, seed, ...) into a scenario list — the building block for
wide experiment matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.topology.base import Topology
from repro.traffic.registry import WORKLOADS
from repro.traffic.workload import WorkloadSpec
from repro.utils.rng import stable_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> pipeline)
    from repro.experiments.config import ExperimentScale


class PipelineConfigError(ValueError):
    """A run was configured with an impossible combination of options.

    Raised at *expansion time* — while overrides are validated and cells
    are planned, before any simulation runs — e.g. a live-only slack policy
    pinned onto replay scenarios.  The CLI reports these as one-line usage
    errors (exit 2); genuine mid-run :class:`ValueError`\\ s keep their
    tracebacks.
    """


@dataclass(frozen=True)
class Scenario:
    """One record/replay cell, fully described by plain data.

    Attributes:
        name: Row label (e.g. ``"I2-1G-10G@70"``).
        scale: The scale preset the scenario is bound to.
        topology: Name of the topology builder method on
            :class:`ExperimentScale` (``"internet2"``, ``"rocketfuel"``,
            ``"fattree"``).
        topology_args: Keyword arguments for the builder, as a sorted tuple of
            ``(name, value)`` pairs so the scenario stays hashable.
        utilization: Offered load on the reference link.
        original: Original scheduler name (registry name or ``"fq+fifo+"``).
        reference_gbps: Nominal bandwidth of the reference link in Gbps
            (scaled by the preset at workload-build time).
        duration_scale: Multiplier on the preset's flow-arrival window.
        replay_mode: Default candidate UPS for this scenario's replay.
        seed_offset: Added to ``scale.seed`` to form the scenario seed.
        seed_override: Absolute seed that, when set, wins over
            ``scale.seed + seed_offset`` (used for seed sweeps/replicates).
        transport: ``"udp"`` (the paper's replay setting) or ``"tcp"``.
        workload_name: Key into the workload registry
            (:data:`repro.traffic.registry.WORKLOADS`).
        slack_policy: Key into the slack-policy registry
            (:data:`repro.core.slack_policy.SLACK_POLICIES`) selecting how
            packets' slack is initialized; ``None`` keeps the replay mode's
            own initializer (the pre-policy behaviour, with bit-identical
            cache keys).
        slack_mode: How ``slack_policy`` applies — ``"replay"`` (the
            default: the policy stamps packets re-injected from the recorded
            schedule) or ``"live"`` (the policy stamps packets at send time
            *while recording*, so the recorded schedule itself embodies the
            policy — the Section-3 deployment mode).  Ignored when
            ``slack_policy`` is ``None``.
        faults: Key into the fault-schedule registry
            (:data:`repro.faults.FAULTS`) selecting the fault plan injected
            into this scenario's *replay* network (the recording stays
            fault-free: the question is how the candidate UPS copes when
            the replay network misbehaves); ``None`` replays fault-free
            with bit-identical cache keys.
        fault_seed: Seed for the fault plan's stochastic faults,
            deliberately independent of the workload seed so the same
            traffic can be replayed under different fault draws.
    """

    name: str
    scale: "ExperimentScale"
    topology: str = "internet2"
    topology_args: Tuple[Tuple[str, float], ...] = ()
    utilization: float = 0.7
    original: str = "random"
    reference_gbps: float = 1.0
    duration_scale: float = 1.0
    replay_mode: str = "lstf"
    seed_offset: int = 0
    seed_override: Optional[int] = None
    transport: str = "udp"
    workload_name: str = "paper-default"
    slack_policy: Optional[str] = None
    slack_mode: str = "replay"
    faults: Optional[str] = None
    fault_seed: int = 0

    def __post_init__(self) -> None:
        from repro.core.slack_policy import SLACK_MODES

        if self.slack_mode not in SLACK_MODES:
            raise ValueError(
                f"scenario {self.name}: slack_mode must be one of "
                f"{', '.join(SLACK_MODES)}; got {self.slack_mode!r}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def seed(self) -> int:
        """The scenario's fully resolved workload seed."""
        if self.seed_override is not None:
            return self.seed_override
        return self.scale.seed + self.seed_offset

    @property
    def duration(self) -> float:
        """Flow-arrival window in seconds."""
        return self.scale.duration * self.duration_scale

    @property
    def reference_bandwidth_bps(self) -> float:
        """The scaled bandwidth of the reference link."""
        return self.scale.scaled_bandwidth(self.reference_gbps)

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def build_topology(self) -> Topology:
        """Instantiate this scenario's topology spec."""
        builder = getattr(self.scale, self.topology, None)
        if builder is None or not callable(builder):
            raise ValueError(
                f"scenario {self.name}: ExperimentScale has no topology "
                f"builder named {self.topology!r}"
            )
        return builder(**dict(self.topology_args))

    def workload_def(self):
        """This scenario's :class:`~repro.traffic.registry.WorkloadDef`."""
        return WORKLOADS.get(self.workload_name)

    def slack_policy_def(self):
        """This scenario's :class:`~repro.core.slack_policy.SlackPolicyDef`.

        ``None`` when the scenario uses the replay mode's own initializer.
        """
        if self.slack_policy is None:
            return None
        from repro.core.slack_policy import SLACK_POLICIES

        return SLACK_POLICIES.get(self.slack_policy)

    def live_slack_policy(self):
        """The send-time :class:`~repro.core.slack.SlackPolicy` to install
        while *recording* this scenario, or ``None``.

        Non-``None`` exactly when the scenario carries a policy in
        ``slack_mode="live"``; raises :class:`ValueError` if that policy is
        replay-only (it cannot stamp packets without a recorded schedule).
        """
        if self.slack_policy is None or self.slack_mode != "live":
            return None
        return self.slack_policy_def().build_live()

    def fault_plan(self):
        """This scenario's :class:`repro.faults.FaultPlan`, or ``None``.

        ``None`` (no ``faults`` key) and a plan built from the ``"empty"``
        schedule hash and replay identically.
        """
        if self.faults is None:
            return None
        from repro.faults import FAULTS, FaultPlan

        return FaultPlan(FAULTS.get(self.faults), seed=self.fault_seed)

    def workload(self) -> WorkloadSpec:
        """The workload for this scenario (distribution + perturbations)."""
        definition = self.workload_def()
        return WorkloadSpec(
            utilization=self.utilization,
            reference_bandwidth_bps=self.reference_bandwidth_bps,
            size_distribution=definition.distribution(),
            transport=self.transport,
            duration=self.duration,
            perturbations=definition.perturbations,
        )

    def with_seed(self, seed: int, suffix: Optional[str] = None) -> "Scenario":
        """A copy of this scenario pinned to an absolute seed."""
        name = self.name if suffix is None else f"{self.name}{suffix}"
        return replace(self, seed_override=seed, name=name)


def expand_replicates(scenarios: List[Scenario], replicates: int) -> List[Scenario]:
    """Expand each scenario into ``replicates`` seed variants.

    Replicate 0 keeps the scenario's own seed (so default runs reproduce the
    single-seed rows exactly); replicates 1..n-1 get :func:`stable_seed`-derived
    seeds and a ``#rN`` name suffix.
    """
    if replicates <= 1:
        return list(scenarios)
    expanded: List[Scenario] = []
    for scenario in scenarios:
        expanded.append(scenario)
        for replicate in range(1, replicates):
            expanded.append(
                scenario.with_seed(
                    stable_seed(scenario.seed, scenario.name, replicate),
                    suffix=f"#r{replicate}",
                )
            )
    return expanded


def registered(registry, name: str):
    """``registry.get(name)``, an unknown name a :class:`PipelineConfigError`.

    The error lists the known names, so a typo'd override fails before
    anything runs with a one-line usage error.
    """
    try:
        return registry.get(name)
    except KeyError as error:
        # str(KeyError) is the repr of its message (extra quotes); unwrap.
        raise PipelineConfigError(error.args[0]) from None


def _pin(scenarios: Sequence[Scenario], suffix: str, **fields) -> List[Scenario]:
    """Pin ``fields`` onto every scenario, renaming the ones that change.

    Scenarios already carrying ``fields`` keep their names; the rest get a
    ``+<suffix>`` name suffix so their rows (and cache entries) cannot be
    mistaken for the originals'.
    """
    return [
        scenario
        if all(getattr(scenario, field) == value for field, value in fields.items())
        else replace(scenario, name=f"{scenario.name}+{suffix}", **fields)
        for scenario in scenarios
    ]


def override_workload(scenarios: Sequence[Scenario], workload_name: str) -> List[Scenario]:
    """Pin every scenario to ``workload_name`` (``--workload``).

    Renamed scenarios get a ``+<workload_name>`` suffix.
    """
    registered(WORKLOADS, workload_name)
    return _pin(scenarios, workload_name, workload_name=workload_name)


def override_slack_policy(
    scenarios: Sequence[Scenario], policy_name: str
) -> List[Scenario]:
    """Pin every scenario to ``policy_name`` (``--slack-policy``).

    Renamed scenarios get a ``+slack:<policy_name>`` suffix.  A policy that cannot serve a scenario's ``slack_mode`` (e.g. a live-only
    policy pinned onto replay cells) fails here, at expansion time, rather
    than mid-run.
    """
    from repro.core.slack_policy import SLACK_POLICIES

    definition = registered(SLACK_POLICIES, policy_name)
    for scenario in scenarios:
        supported = (
            definition.supports_live
            if scenario.slack_mode == "live"
            else definition.supports_replay
        )
        if not supported:
            raise PipelineConfigError(
                f"slack policy {policy_name!r} (capability "
                f"{definition.capability()!r}) cannot drive scenario "
                f"{scenario.name!r} in slack_mode={scenario.slack_mode!r}"
            )
    return _pin(scenarios, f"slack:{policy_name}", slack_policy=policy_name)


def override_faults(
    scenarios: Sequence[Scenario], fault_name: str, fault_seed: int = 0
) -> List[Scenario]:
    """Pin every scenario to ``fault_name`` under ``fault_seed`` (``--fault``).

    Renamed scenarios get a ``+fault:<fault_name>`` suffix.
    """
    from repro.faults import FAULTS

    registered(FAULTS, fault_name)
    return _pin(
        scenarios, f"fault:{fault_name}", faults=fault_name, fault_seed=fault_seed
    )


def _default_sweep_name(base: Scenario, parameter: str, value) -> str:
    if isinstance(value, float):
        return f"{base.name}[{parameter}={value:g}]"
    return f"{base.name}[{parameter}={value}]"


@dataclass(frozen=True)
class Sweep:
    """A one-parameter scenario sweep.

    Expands ``base`` into one scenario per value of ``parameter``.  ``namer``
    (a module-level function, so sweeps stay picklable) maps ``(base, value)``
    to the row label; the default appends ``[parameter=value]``.
    """

    base: Scenario
    parameter: str
    values: Tuple
    namer: Optional[Callable[[Scenario, object], str]] = None

    def scenarios(self) -> List[Scenario]:
        """The expanded scenario list, in value order."""
        out: List[Scenario] = []
        for value in self.values:
            if self.namer is not None:
                name = self.namer(self.base, value)
            else:
                name = _default_sweep_name(self.base, self.parameter, value)
            out.append(replace(self.base, **{self.parameter: value}, name=name))
        return out

    def __iter__(self):
        return iter(self.scenarios())
