"""The slack-policy registry: named, parameterized slack initialization.

LSTF is one mechanism with many personalities: everything interesting about
it lives in how each packet's slack is initialized at the ingress.  Section 2
of the paper initializes slack from a recorded schedule (replay); Section 3
replaces the recording with practical heuristics (zero slack for delay
minimization, deadline-minus-residual for deadline traffic, a per-flow
constant for FIFO+-style tail latency, flow-size-proportional slack for mean
FCT, a virtual-clock credit for fairness) and shows LSTF remains competitive.

A :class:`SlackPolicyDef` captures one such initialization scheme as plain
data — a ``kind`` naming the implementation plus keyword parameters —
mirroring the :mod:`repro.traffic.registry` pattern: definitions are frozen,
hashable, picklable value objects with a lossless ``to_dict``/``from_dict``
round-trip, so they can feed the schedule cache's content hash, ship to pool
workers, and be listed by the CLI (``python -m repro list --slack-policies``).

Every kind can materialize in up to two **application modes**, and the
registry is the single source of truth for both faces of the paper:

* **replay** (:meth:`SlackPolicyDef.build_initializer`) — a
  :class:`~repro.core.slack.ReplayInitializer` stamping headers of packets
  re-injected from a recorded schedule (the Section-2 harness, and
  Section-3 heuristics evaluated on recorded traffic);
* **live** (:meth:`SlackPolicyDef.build_live`) — a
  :class:`~repro.core.slack.SlackPolicy` stamping packets at send time as
  sources emit them (the Section-3 deployment Figures 2–4 measure; no
  recorded schedule exists or is needed).

The global :data:`SLACK_POLICIES` registry ships the built-in policies:

============== ========= ====================================================
``replay``     replay    the Section-2 black-box replay initialization
                         (``o(p) - i(p) - tmin``) — the replay default
``zero``       both      zero slack for every packet (delay minimization)
``deadline``   replay    flow deadline minus the ideal bottleneck residual
                         (deadline traffic first; untagged flows get a
                         constant)
``static-delay`` both    one constant slack per packet (LSTF as FIFO+)
``flow-size``  live      ``slack(p) = flow_size(p) * D`` — LSTF approximates
                         SJF (Section 3.1; Figure 2)
``fairness``   live      virtual-clock credit accumulation (Section 3.3;
                         Figure 4)
``null``       live      leave headers untouched (explicit no-op)
============== ========= ====================================================

A :class:`~repro.pipeline.scenario.Scenario` references a policy by name via
its ``slack_policy`` field (and picks the application mode via
``slack_mode``); when the field is ``None`` nothing changes — cache keys,
replay behaviour, and every pre-existing experiment are bit-identical to the
policy-less pipeline (pinned by the golden-key tests).  The full contract a
policy must satisfy is documented in ``docs/slack-policies.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.slack import (
    BlackBoxSlackInitializer,
    ConstantSlackPolicy,
    DeadlineSlackInitializer,
    FairnessSlackPolicy,
    FlowSizeSlackPolicy,
    NullSlackPolicy,
    ReplayInitializer,
    SlackPolicy,
    StaticDelaySlackInitializer,
    ZeroSlackInitializer,
)
from repro.utils.registry import Registry


@dataclass(frozen=True)
class PolicyKind:
    """One slack-initialization implementation and the modes it supports.

    Attributes:
        name: Serialization kind (the key of :data:`POLICY_KINDS`).
        replay_factory: Constructor for the kind's
            :class:`~repro.core.slack.ReplayInitializer`, or ``None`` when
            the kind cannot initialize from a recorded schedule.
        live_factory: Constructor for the kind's send-time
            :class:`~repro.core.slack.SlackPolicy`, or ``None`` when the
            kind needs a recorded schedule to compute slack at all.
    """

    name: str
    replay_factory: Optional[Callable[..., ReplayInitializer]] = None
    live_factory: Optional[Callable[..., SlackPolicy]] = None

    @property
    def supports_replay(self) -> bool:
        """Whether this kind can stamp replayed packets from records."""
        return self.replay_factory is not None

    @property
    def supports_live(self) -> bool:
        """Whether this kind can stamp packets at send time."""
        return self.live_factory is not None


def _zero_live() -> SlackPolicy:
    """Live face of the ``zero`` kind: every packet starts with zero slack."""
    return ConstantSlackPolicy(slack=0.0)


def _static_delay_live(slack_seconds: float = 1.0) -> SlackPolicy:
    """Live face of ``static-delay``: the same constant, stamped at send time."""
    return ConstantSlackPolicy(slack=slack_seconds)


#: Policy implementations by serialization kind.  A kind missing one factory
#: simply does not support that application mode — asking for it is a
#: :class:`ValueError`, never a silent fallback.
POLICY_KINDS: Dict[str, PolicyKind] = {
    kind.name: kind
    for kind in (
        PolicyKind("replay", replay_factory=BlackBoxSlackInitializer),
        PolicyKind(
            "zero", replay_factory=ZeroSlackInitializer, live_factory=_zero_live
        ),
        PolicyKind("deadline", replay_factory=DeadlineSlackInitializer),
        PolicyKind(
            "static-delay",
            replay_factory=StaticDelaySlackInitializer,
            live_factory=_static_delay_live,
        ),
        PolicyKind("flow-size", live_factory=FlowSizeSlackPolicy),
        PolicyKind("fairness", live_factory=FairnessSlackPolicy),
        PolicyKind("null", live_factory=NullSlackPolicy),
    )
}

#: Replay modes a slack policy can drive.  Policies stamp ``header.slack``
#: (and the real flow deadline); the omniscient and static-priority modes
#: read other header fields that only the recorded schedule can supply.
POLICY_COMPATIBLE_MODES: Tuple[str, ...] = ("lstf", "lstf-preemptive", "edf")

#: The two application modes a scenario can request (``Scenario.slack_mode``).
SLACK_MODES: Tuple[str, ...] = ("replay", "live")


@dataclass(frozen=True)
class SlackPolicyDef:
    """One named slack-initialization policy as plain data.

    Attributes:
        name: Registry key (what scenarios and the CLI reference).
        kind: Initializer kind (a key of :data:`POLICY_KINDS`).
        params: Keyword parameters for the initializer, as a sorted tuple of
            ``(name, value)`` pairs so definitions stay hashable/picklable.
        description: One-line summary shown by ``python -m repro list
            --slack-policies``.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("slack-policy definitions need a non-empty name")
        if self.kind not in POLICY_KINDS:
            known = ", ".join(sorted(POLICY_KINDS))
            raise ValueError(f"unknown slack-policy kind {self.kind!r}; known: {known}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    # ------------------------------------------------------------------ #
    # Capabilities
    # ------------------------------------------------------------------ #
    @property
    def supports_replay(self) -> bool:
        """Whether this policy can initialize replayed packets from records."""
        return POLICY_KINDS[self.kind].supports_replay

    @property
    def supports_live(self) -> bool:
        """Whether this policy can stamp packets at send time (live traffic)."""
        return POLICY_KINDS[self.kind].supports_live

    def capability(self) -> str:
        """Human-readable mode support: ``replay``, ``live``, or ``live+replay``."""
        modes = []
        if self.supports_live:
            modes.append("live")
        if self.supports_replay:
            modes.append("replay")
        return "+".join(modes)

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def build_initializer(self) -> ReplayInitializer:
        """Instantiate this policy's replay-path header initializer.

        Raises:
            ValueError: if the policy is live-only (its slack cannot be
                computed from a recorded schedule).
        """
        kind = POLICY_KINDS[self.kind]
        if kind.replay_factory is None:
            raise ValueError(
                f"slack policy {self.name!r} is live-only (capability "
                f"{self.capability()!r}): it cannot initialize replayed packets"
            )
        return kind.replay_factory(**dict(self.params))

    def build_live(self) -> SlackPolicy:
        """Instantiate this policy's send-time :class:`SlackPolicy`.

        The returned object is installed on a network
        (``network.slack_policy = ...``) so hosts stamp every injected
        packet via ``on_packet_sent`` — no recorded schedule involved.

        Raises:
            ValueError: if the policy is replay-only (its slack depends on
                recorded output times).
        """
        kind = POLICY_KINDS[self.kind]
        if kind.live_factory is None:
            raise ValueError(
                f"slack policy {self.name!r} is replay-only (capability "
                f"{self.capability()!r}): it cannot stamp live packets at send time"
            )
        return kind.live_factory(**dict(self.params))

    def with_params(self, **updates) -> "SlackPolicyDef":
        """A derived definition with ``updates`` merged over the parameters.

        Used when an experiment sweeps a policy parameter (e.g. Figure 4's
        fair-share rate estimate): the derived definition keeps the name and
        kind, so its cache-key fingerprint differs from the base definition
        exactly in the swept parameters.

        Parameter names are validated against the kind's factory signatures
        up front, so a typo'd sweep fails here — at expansion time, with the
        accepted names in the message — rather than as a ``TypeError`` deep
        inside a pool worker (after the bogus name already fed a cache key).
        """
        import inspect

        kind = POLICY_KINDS[self.kind]
        for factory in (kind.replay_factory, kind.live_factory):
            if factory is None:
                continue
            signature = inspect.signature(factory)
            if any(
                parameter.kind is inspect.Parameter.VAR_KEYWORD
                for parameter in signature.parameters.values()
            ):
                continue
            unknown = set(updates) - set(signature.parameters)
            if unknown:
                raise ValueError(
                    f"slack policy {self.name!r} (kind {self.kind!r}) does not "
                    f"accept parameter(s) {', '.join(sorted(unknown))}; "
                    f"accepted: {', '.join(sorted(signature.parameters))}"
                )
        merged = dict(self.params)
        merged.update(updates)
        return SlackPolicyDef(
            name=self.name,
            kind=self.kind,
            params=tuple(merged.items()),
            description=self.description,
        )

    def describe_params(self) -> str:
        """Comma-joined ``name=value`` parameter summary (``"-"`` when bare)."""
        if not self.params:
            return "-"
        return ", ".join(
            f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}"
            for name, value in self.params
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> dict:
        """The behavioral fields only — what feeds the schedule-cache hash.

        Restricted to ``kind`` and ``params`` (mirroring
        :func:`repro.pipeline.cache.workload_fingerprint`): renaming a
        policy or rewording its description must never invalidate cache
        entries, because neither changes what the initializer does.
        """
        return {"kind": self.kind, "params": dict(self.params)}

    def to_dict(self) -> dict:
        """Lossless JSON-serializable form (registry/CLI round-trips)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "params": dict(self.params),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SlackPolicyDef":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            kind=data["kind"],
            params=tuple(data.get("params", {}).items()),
            description=data.get("description", ""),
        )


#: The process-wide slack-policy registry (populated below at import time).
SLACK_POLICIES: Registry[SlackPolicyDef] = Registry("slack policy")


def register_slack_policy(definition: SlackPolicyDef) -> SlackPolicyDef:
    """Register ``definition`` in the global registry."""
    return SLACK_POLICIES.register(definition)


# ---------------------------------------------------------------------- #
# Built-in definitions
# ---------------------------------------------------------------------- #
register_slack_policy(
    SlackPolicyDef(
        name="replay",
        kind="replay",
        description="black-box replay slack o(p) - i(p) - tmin (Section 2; the default)",
    )
)
register_slack_policy(
    SlackPolicyDef(
        name="zero",
        kind="zero",
        description="zero slack for every packet: delay minimization (Section 3.2 limit)",
    )
)
register_slack_policy(
    SlackPolicyDef(
        name="deadline",
        kind="deadline",
        params=(("no_deadline_slack", 1.0),),
        description="deadline minus ideal bottleneck residual; untagged flows get 1s",
    )
)
register_slack_policy(
    SlackPolicyDef(
        name="static-delay",
        kind="static-delay",
        params=(("slack_seconds", 1.0),),
        description="per-flow constant slack (LSTF as FIFO+, Section 3.2)",
    )
)
register_slack_policy(
    SlackPolicyDef(
        name="flow-size",
        kind="flow-size",
        params=(("scale", 1.0),),
        description="slack(p) = flow_size(p) * D: LSTF approximates SJF (Section 3.1)",
    )
)
register_slack_policy(
    SlackPolicyDef(
        name="fairness",
        kind="fairness",
        params=(("rate_estimate_bps", 1e6),),
        description="virtual-clock credit at a fair-share rate estimate (Section 3.3)",
    )
)
register_slack_policy(
    SlackPolicyDef(
        name="null",
        kind="null",
        description="leave headers untouched (explicit no-op live policy)",
    )
)
