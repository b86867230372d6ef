"""Least Slack Time First — the paper's near-universal packet scheduler.

Every packet carries a slack value in its header: the amount of queueing time
it can still tolerate without violating its target output time.  The slack is
initialized at the ingress and is decremented at every hop by the time the
packet waited in that hop's queue before being transmitted (dynamic packet
state).  Each router serves the packet with the least remaining slack.

The scheduler itself never knows *where* the slack came from — that is the
whole point of the paper's design, and of this repo's slack-policy subsystem:
the same ``LstfScheduler`` serves Section-2 replays (slack computed from a
recorded schedule by :class:`~repro.core.slack.BlackBoxSlackInitializer`),
the Section-3 heuristics (zero / constant / deadline-driven slack, named and
parameterized by :data:`repro.core.slack_policy.SLACK_POLICIES` and selected
per scenario via ``slack_policy=`` or ``--slack-policy``), and the live
send-time policies (:class:`~repro.core.slack.SlackPolicy`) used by the
Figure 2-4 experiments.  A negative initial slack (an already-infeasible
deadline) is legal and simply means maximal urgency.

Two variants are provided:

* :class:`LstfScheduler` — the non-preemptive version evaluated throughout
  the paper's empirical sections.
* :class:`PreemptiveLstfScheduler` — aborts an in-flight transmission when a
  packet with less remaining slack arrives; used for the ablation in
  Section 2.3 item (5), where preemption rescues most of the SJF/LIFO replay
  failures.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.schedulers.base import PriorityScheduler
from repro.sim.packet import Packet


class LstfScheduler(PriorityScheduler):
    """Non-preemptive Least Slack Time First.

    Ranking: among queued packets, the one whose *last bit* would have the
    least remaining slack is served first.  Because every queued packet's
    remaining slack decreases at the same rate while it waits, the ordering
    can be captured by the static key

        ``header.slack + enqueue_time + transmission_time(packet)``

    evaluated once at enqueue time.  This makes the per-packet scheduling
    cost identical to fine-grained priority scheduling, which is the
    feasibility argument made in Section 5 of the paper.

    Packets with no slack in their header (e.g. control traffic in scenarios
    where the heuristic only stamps data packets) are treated as having
    infinite slack, i.e. they are served only when nothing more urgent waits
    and are the first candidates for dropping.
    """

    def __init__(self) -> None:
        super().__init__()

    def key(self, packet: Packet, enqueue_time: float, now: float) -> float:
        # Runs once per enqueue on every port: the link rate is cached at
        # attach time (same ``bytes * 8 / bandwidth`` float math as
        # Link.transmission_delay) so this costs one multiply-divide, the
        # per-packet constant factor of fine-grained priority scheduling.
        slack = packet.header.slack
        if slack is None:
            return math.inf
        bandwidth = self._link_bandwidth
        if bandwidth is None:
            return slack + enqueue_time
        return slack + enqueue_time + packet.size_bytes * 8 / bandwidth

    def on_dequeue(self, packet: Packet, enqueue_time: float, now: float) -> None:
        # Dynamic packet state update: the packet "spent" the time it waited
        # in this queue, so the slack it carries onwards shrinks by that much.
        if packet.header.slack is not None:
            packet.header.slack -= now - enqueue_time

    # ------------------------------------------------------------------ #
    # Drop policy (Section 3: drop the packet with the most remaining slack)
    # ------------------------------------------------------------------ #
    def remaining_slack(self, packet: Packet, enqueue_time: float, now: float) -> float:
        """Remaining slack of a queued packet at time ``now``."""
        slack = packet.header.slack
        if slack is None:
            return math.inf
        return slack - (now - enqueue_time)

    def choose_drop(self, arriving: Packet, now: float) -> Packet:
        victim = arriving
        victim_slack = self.remaining_slack(arriving, now, now)
        for entry in self.queued_entries():
            slack = self.remaining_slack(entry.packet, entry.enqueue_time, now)
            if slack > victim_slack:
                victim_slack = slack
                victim = entry.packet
        return victim


class PreemptiveLstfScheduler(LstfScheduler):
    """LSTF that may abort an in-flight transmission for a more urgent arrival.

    The preempted packet's untransmitted bytes are re-queued and transmitted
    later (the downstream node still receives the packet in one piece once
    its last bit has been sent, i.e. fragments are reassembled at the next
    hop).  It is Section 2.3 (5)'s ablation, *not* the appendix's preemptive
    model: it preempts only when a packet arrives, and compares the arrival
    with the in-flight packet's slack frozen at its dequeue, so it is
    least-laxity evaluated at arrivals only.  Measured on generated
    schedules where every path crosses two congested segments (k = 2), its
    replays were late in 15 of 40 single-size cases and 13 of 40 mixed-size
    ones, by up to 0.85 transmission times (deadline-ordered preemption was
    late in none of the 80).
    """

    preemptive = True

    def should_preempt(
        self, in_flight: Packet, in_flight_started: float, now: float
    ) -> bool:
        head = self.peek_entry()
        if head is None:
            return False
        head_remaining = self.remaining_slack(head.packet, head.enqueue_time, now)
        # The in-flight packet's header slack was already charged for its
        # queueing wait when it was dequeued, and slack does not decrease
        # while the packet is in service.
        in_flight_remaining = (
            math.inf if in_flight.header.slack is None else in_flight.header.slack
        )
        return head_remaining < in_flight_remaining
