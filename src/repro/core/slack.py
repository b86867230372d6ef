"""Slack initialization.

LSTF's behaviour is entirely determined by how the slack in each packet's
header is initialized at the ingress.  This module collects every
initialization scheme used in the paper:

**Replay initializers** (Section 2) consume a recorded original schedule and
stamp each replayed packet with

    ``slack(p) = o(p) - i(p) - tmin(p, src(p), dest(p))``

(black-box initialization), the per-hop output-time vector (omniscient
initialization), or a static priority ``o(p)`` (the simple-priorities
comparison point).  Each is one method, :meth:`ReplayInitializer.headers`,
evaluated once per replay over the schedule's columns; every engine stamps
or keys from its result, so a replay initializer has no per-engine twin.

**Heuristic policies** (Section 3) need no knowledge of any schedule; they
stamp slack at send time to pursue a performance objective: flow-size-
proportional slack for mean FCT, a constant slack for tail latency (making
LSTF behave as FIFO+), and a virtual-clock style slack for fairness.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple

from repro.core.schedule import NO_TIME, ScheduleColumns
from repro.sim.packet import Packet
from repro.utils.units import BITS_PER_BYTE

#: ``(bandwidth, propagation)`` per directed link
#: (:meth:`repro.topology.base.Topology.link_params`).
LinkParams = Dict[Tuple[str, str], Tuple[float, float]]

#: ``(slack, priority, deadline, vectors)``, one entry per schedule row.
Headers = Tuple[Sequence[float], Sequence[float], Sequence[float], Sequence[List[float]]]


# ---------------------------------------------------------------------- #
# Replay-time initializers (Section 2)
# ---------------------------------------------------------------------- #
class ReplayInitializer(ABC):
    """Initializes replayed packets' headers from the original schedule."""

    @abstractmethod
    def headers(self, cols: ScheduleColumns, link_params: LinkParams) -> Headers:
        """``(slack, priority, deadline, vectors)`` of every row of ``cols``.

        Four row-aligned sequences, evaluated once per replay and read, never
        written, by the engines.  ``math.inf`` leaves a field unset: every
        replay scheduler keys an unset field as ``inf`` (and ``inf - x`` stays
        ``inf``).  ``vectors[j]`` is row ``j``'s omniscient per-hop vector, a
        list; an empty list means no vector.  ``link_params`` maps every
        directed link of the replayed topology to ``(bandwidth, propagation)``.
        """


def _unset(cols: ScheduleColumns) -> List[float]:
    """A header field left unset on every row."""
    return [math.inf] * len(cols.packet_id)


def _slack_headers(
    cols: ScheduleColumns, slack: Sequence[float], deadline: Sequence[float]
) -> Headers:
    """Headers that set slack and deadline only (the one empty vector is shared:
    engines only read it)."""
    return slack, _unset(cols), deadline, [[]] * len(cols.packet_id)


def _flow_deadlines(cols: ScheduleColumns) -> List[float]:
    """The recorded flow deadline of every row, ``inf`` where the flow had none."""
    return [math.inf if deadline is None else deadline for deadline in cols.deadline]


def _tmin_along(link_params: LinkParams, path: Sequence[str], size_bytes: float) -> float:
    """:meth:`repro.sim.network.Network.tmin_along` over ``link_params``: the
    same forward left fold of ``size * 8 / bandwidth + propagation``."""
    total = 0.0
    for hop in zip(path, path[1:]):
        bandwidth, propagation = link_params[hop]
        total += size_bytes * 8 / bandwidth + propagation
    return total


class BlackBoxSlackInitializer(ReplayInitializer):
    """The paper's black-box initialization: only ``o(p)`` and ``path(p)`` are known.

    Sets ``slack = o(p) - i(p) - tmin(path)`` (for LSTF) and
    ``deadline = o(p)`` (so the same initialization also serves
    network-wide EDF, which the paper proves equivalent to LSTF).
    """

    def headers(self, cols: ScheduleColumns, link_params: LinkParams) -> Headers:
        # Flow traffic repeats a few (route, size) pairs: one tmin fold each.
        pairs = list(zip(cols.path, cols.size_bytes))
        tmin = {pair: _tmin_along(link_params, *pair) for pair in set(pairs)}
        slack = [
            output - ingress - tmin[pair]
            for output, ingress, pair in zip(cols.output_time, cols.ingress_time, pairs)
        ]
        return _slack_headers(cols, slack, cols.output_time)


class OutputTimePriorityInitializer(ReplayInitializer):
    """Simple-priorities replay: static priority equal to the target output time.

    This is the "most intuitive" priority assignment the paper compares
    against in Section 2.3 item (7): earlier target output times get higher
    priority, and the value never changes along the path.
    """

    def headers(self, cols: ScheduleColumns, link_params: LinkParams) -> Headers:
        return _unset(cols), cols.output_time, cols.output_time, [[]] * len(cols.packet_id)


class OmniscientInitializer(ReplayInitializer):
    """Omniscient initialization: the per-hop output times ``o(p, alpha_i)``.

    The header carries an n-dimensional vector — the recorded service starts,
    hops never served skipped; every router pops the head entry and uses it
    as the packet's priority.  Appendix B proves this replays any viable
    schedule perfectly.
    """

    def headers(self, cols: ScheduleColumns, link_params: LinkParams) -> Headers:
        starts, off = cols.hop_start_service, cols.hop_offset
        vectors = [
            [start for start in starts[first:last] if start != NO_TIME]
            for first, last in zip(off, off[1:])
        ]
        return _unset(cols), _unset(cols), cols.output_time, vectors


# ---------------------------------------------------------------------- #
# Heuristic initializers (Section 3, applied to replayed traffic)
# ---------------------------------------------------------------------- #
# These stamp a replayed packet's header *without* consulting the recorded
# output times: the recorded schedule only supplies the offered traffic
# (ingress times, sizes, paths, flow deadlines), so a replay under one of
# these initializers answers "what would LSTF/EDF have done on this exact
# traffic with slack assigned by a practical heuristic?" — the paper's
# Section-3 question, asked on the same packets the replay harness already
# knows how to drive.  The registry in :mod:`repro.core.slack_policy` names
# and parameterizes them for scenarios, cache keys, and the CLI.


class ZeroSlackInitializer(ReplayInitializer):
    """Delay-minimization heuristic: every packet starts with zero slack.

    With equal (zero) initial slack, LSTF serves the packet that has been
    queued longest — the limiting case of the constant-slack FIFO+ heuristic
    of Section 3.2, aimed at minimizing worst-case queueing delay.  The real
    flow deadline (when the workload tagged one) is kept in the header so
    deadline-aware schedulers replaying the same traffic see it.
    """

    def headers(self, cols: ScheduleColumns, link_params: LinkParams) -> Headers:
        return _slack_headers(cols, [0.0] * len(cols.packet_id), _flow_deadlines(cols))


class StaticDelaySlackInitializer(ReplayInitializer):
    """Tail-latency heuristic: one constant slack for every packet (FIFO+).

    The replay-side counterpart of :class:`ConstantSlackPolicy`: each packet
    of every flow receives the same ``slack_seconds`` budget at the ingress,
    so LSTF degrades gracefully to FIFO+ ordering (serve the packet that has
    accumulated the most queueing delay).  Section 3.2 uses 1 second.

    Args:
        slack_seconds: The per-flow constant slack in seconds.
    """

    def __init__(self, slack_seconds: float = 1.0) -> None:
        if not (slack_seconds >= 0):
            raise ValueError(f"slack must be non-negative, got {slack_seconds}")
        self.slack_seconds = slack_seconds

    def headers(self, cols: ScheduleColumns, link_params: LinkParams) -> Headers:
        slack = [self.slack_seconds] * len(cols.packet_id)
        return _slack_headers(cols, slack, _flow_deadlines(cols))


class DeadlineSlackInitializer(ReplayInitializer):
    """Deadline-driven slack: deadline minus the ideal bottleneck residual.

    For a packet of a deadline-tagged flow the initializer computes how much
    queueing the flow can still absorb and meet its deadline:

        ``slack(p) = deadline(p) - i(p) - residual(p)``

    where ``residual(p)`` is the *ideal* time the flow's bytes need on the
    network's bottleneck link
    (:meth:`repro.topology.base.Topology.bottleneck_transmission_time` of the
    flow size).  Flows closer to their deadline, relative to the work
    they still represent, get less slack and are served first; an infeasible
    deadline yields negative slack, i.e. maximal urgency.  This is the
    paper's Section-3 deadline heuristic, and the slack assignment that
    joint deadline/priority scheduling formulations (Raviv & Leshem) arrive
    at as well.

    Untagged flows receive the constant ``no_deadline_slack`` (seconds), so
    background traffic keeps FIFO+ ordering among itself and yields to any
    deadline flow that is at risk.

    Args:
        no_deadline_slack: Slack (seconds) for packets of flows that carry
            no deadline.
    """

    def __init__(self, no_deadline_slack: float = 1.0) -> None:
        if not (no_deadline_slack >= 0):
            raise ValueError(
                f"no-deadline slack must be non-negative, got {no_deadline_slack}"
            )
        self.no_deadline_slack = no_deadline_slack

    def headers(self, cols: ScheduleColumns, link_params: LinkParams) -> Headers:
        bottleneck = min(bandwidth for bandwidth, _ in link_params.values())
        slack = []
        for deadline, flow_bytes, size, ingress in zip(
            cols.deadline, cols.flow_size_bytes, cols.size_bytes, cols.ingress_time
        ):
            if deadline is None:
                slack.append(self.no_deadline_slack)
                continue
            if flow_bytes is None:
                flow_bytes = size
            # Topology.bottleneck_transmission_time's float form: bytes * 8 / bandwidth.
            slack.append(deadline - ingress - flow_bytes * BITS_PER_BYTE / bottleneck)
        return _slack_headers(cols, slack, _flow_deadlines(cols))


# ---------------------------------------------------------------------- #
# Live heuristics (Section 3)
# ---------------------------------------------------------------------- #
class SlackPolicy(ABC):
    """A slack-assignment heuristic applied as packets are injected.

    A policy is installed on a network (``network.slack_policy = policy``);
    every host then calls :meth:`on_packet_sent` for every packet it injects.
    """

    @abstractmethod
    def on_packet_sent(self, packet: Packet, now: float) -> None:
        """Stamp ``packet.header.slack`` (and related fields) at send time."""


class FlowSizeSlackPolicy(SlackPolicy):
    """Mean-FCT heuristic: ``slack(p) = flow_size(p) * D`` (Section 3.1).

    With ``D`` much larger than any queueing delay, LSTF orders packets by
    flow size — approximating SJF — while still using any leftover slack to
    resolve ties in favour of packets that have already waited.

    Args:
        scale: The constant ``D`` in seconds per byte of flow size.  The
            paper uses D = 1 second (with flow sizes measured in bytes).
    """

    def __init__(self, scale: float = 1.0) -> None:
        if not (scale > 0):
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale

    def on_packet_sent(self, packet: Packet, now: float) -> None:
        flow_size = packet.header.flow_size_bytes
        if flow_size is None:
            flow_size = packet.size_bytes
        packet.header.slack = flow_size * self.scale


class ConstantSlackPolicy(SlackPolicy):
    """Tail-latency heuristic: every packet gets the same slack (Section 3.2).

    With equal initial slack, LSTF serves the packet that has accumulated the
    most queueing delay so far — which is exactly FIFO+.

    Args:
        slack: The constant slack in seconds (paper: 1 second).
    """

    def __init__(self, slack: float = 1.0) -> None:
        if not (slack >= 0):
            raise ValueError(f"slack must be non-negative, got {slack}")
        self.slack = slack

    def on_packet_sent(self, packet: Packet, now: float) -> None:
        packet.header.slack = self.slack


class FairnessSlackPolicy(SlackPolicy):
    """Fairness heuristic: virtual-clock style slack accumulation (Section 3.3).

    The first packet of a flow gets zero slack; each subsequent packet gets

        ``slack(p_i) = max(0, slack(p_{i-1}) + credit - (i(p_i) - i(p_{i-1})))``

    where ``credit`` is the time a fair share of the estimated rate ``rest``
    would need to carry the previous packet.  The paper expresses the credit
    as ``1 / rest``; we use ``previous_size * 8 / rest`` so the heuristic is
    well defined for variable packet sizes (the two coincide for the paper's
    fixed-size packets up to the choice of unit for ``rest``).  The paper
    proves the resulting schedule converges to the fair share for any
    ``rest`` below the true fair rate, as long as all flows use the same
    value; that asymptotic-fairness property is what Figure 4 (and our
    reproduction) measures.

    Args:
        rate_estimate_bps: The fair-share rate estimate ``rest`` in bits/second.
        data_packets_only: If true (default), acknowledgement packets are
            given the constant slack ``ack_slack`` instead of participating
            in the per-flow accumulation, so reverse-path ACK streams do not
            perturb a flow's forward-path state.
        ack_slack: Slack assigned to ACKs when ``data_packets_only`` is set.
    """

    def __init__(
        self,
        rate_estimate_bps: float,
        data_packets_only: bool = True,
        ack_slack: float = 0.0,
    ) -> None:
        if not (rate_estimate_bps > 0):
            raise ValueError(f"rate estimate must be positive, got {rate_estimate_bps}")
        self.rate_estimate_bps = rate_estimate_bps
        self.data_packets_only = data_packets_only
        self.ack_slack = ack_slack
        # Per (flow, direction) state: (previous slack, previous ingress time,
        # previous packet size).
        self._state: Dict[Tuple[int, str], Tuple[float, float, float]] = {}

    def on_packet_sent(self, packet: Packet, now: float) -> None:
        if self.data_packets_only and packet.is_ack:
            packet.header.slack = self.ack_slack
            return
        key = (packet.flow_id, packet.src)
        previous = self._state.get(key)
        if previous is None:
            slack = 0.0
        else:
            previous_slack, previous_time, previous_size = previous
            credit = previous_size * BITS_PER_BYTE / self.rate_estimate_bps
            slack = max(0.0, previous_slack + credit - (now - previous_time))
        packet.header.slack = slack
        self._state[key] = (slack, now, packet.size_bytes)


class NullSlackPolicy(SlackPolicy):
    """A policy that leaves headers untouched (useful as an explicit default)."""

    def on_packet_sent(self, packet: Packet, now: float) -> None:  # noqa: D401
        return
