"""Replay evaluation metrics.

Section 2.3 evaluates a replay with two headline numbers — the fraction of
packets that are *overdue* (exit later than in the original schedule) and the
fraction overdue by more than a threshold ``T`` (one transmission time on the
bottleneck link) — plus the CDF of per-packet queueing-delay ratios shown in
Figure 1.  This module computes all three from a pair of schedules.

Every metric is a fold over a schedule's columns
(:class:`~repro.core.schedule.ScheduleColumns`, canonical order); no row is
built.  :func:`compare_schedules` is the one comparison.  The
standalone statistics have two finalizers over one fold:

* :func:`schedule_statistics` materializes the per-packet delay list for an
  exact percentile — what the ``heuristics`` rows pin;
* :class:`StreamingScheduleStatistics` folds column *ranges* into a mergeable
  accumulator — exact count/sum/max, a sketch percentile within the
  documented ε (:class:`repro.utils.stats.QuantileSketch`, docs/scale.md) —
  so a scale-tier cell never holds a per-packet list, and per-shard partials
  merge deterministically in shard-index order; what the ``scale`` rows pin.

Float totals are plain left folds in canonical order
(:func:`repro.utils.stats.left_sum`), so both finalizers — and every Python
version — total the same delays to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import sub
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.schedule import Schedule, ScheduleColumns
from repro.utils.stats import QuantileSketch, left_sum, percentile


@dataclass
class ReplayMetrics:
    """Comparison of a replay against the original schedule it targeted.

    Attributes:
        total_packets: Number of packets matched between the two schedules.
        missing_packets: Packets of the original schedule that never exited
            in the replay (e.g. still queued when the replay run ended).
            They are counted as overdue.
        overdue_count: Packets with ``o'(p) > o(p)`` (beyond ``tolerance``).
        overdue_beyond_threshold_count: Packets with ``o'(p) > o(p) + threshold``.
        threshold: The lateness threshold ``T`` used (seconds).
        mean_lateness: Mean of ``max(0, o'(p) - o(p))`` over matched packets.
        max_lateness: Largest lateness observed.
        queueing_delay_ratios: Per-packet ratio of replay queueing delay to
            original queueing delay (Figure 1); packets with zero original
            queueing delay are skipped.
        deadline_total: Flows carrying a completion deadline (0 when the
            workload was not deadline-tagged).
        deadline_met_original: Deadline flows whose *last packet's original*
            output time met the deadline.
        deadline_met_replay: Deadline flows whose *last packet's replay*
            output time met the deadline (a flow with any packet missing
            from the replay counts as missed).
        deadline_flows_delivered: Deadline flows with *no* packet missing
            from the replay — the denominator that separates "missed because
            late" from "missed because the network destroyed a packet" under
            fault injection.
    """

    total_packets: int = 0
    missing_packets: int = 0
    overdue_count: int = 0
    overdue_beyond_threshold_count: int = 0
    threshold: float = 0.0
    mean_lateness: float = 0.0
    max_lateness: float = 0.0
    queueing_delay_ratios: List[float] = field(default_factory=list)
    deadline_total: int = 0
    deadline_met_original: int = 0
    deadline_met_replay: int = 0
    deadline_flows_delivered: int = 0

    @property
    def overdue_fraction(self) -> float:
        """Fraction of packets overdue (the paper's "Total" column in Table 1)."""
        if self.total_packets == 0:
            return 0.0
        return self.overdue_count / self.total_packets

    @property
    def overdue_beyond_threshold_fraction(self) -> float:
        """Fraction overdue by more than ``threshold`` (Table 1's "> T" column)."""
        if self.total_packets == 0:
            return 0.0
        return self.overdue_beyond_threshold_count / self.total_packets

    @property
    def deadline_met_fraction_original(self) -> float:
        """Fraction of deadline-tagged flows on time in the original run."""
        if self.deadline_total == 0:
            return 0.0
        return self.deadline_met_original / self.deadline_total

    @property
    def deadline_met_fraction_replay(self) -> float:
        """Fraction of deadline-tagged flows on time in the replay."""
        if self.deadline_total == 0:
            return 0.0
        return self.deadline_met_replay / self.deadline_total

    @property
    def delivered_fraction(self) -> float:
        """Fraction of original packets that exited in the replay.

        1.0 on a fault-free replay of a drop-free recording; under fault
        injection this is the packet-level survival rate.  An empty
        comparison counts as fully delivered.
        """
        if self.total_packets == 0:
            return 1.0
        return (self.total_packets - self.missing_packets) / self.total_packets

    @property
    def deadline_met_over_delivered_fraction(self) -> float:
        """Deadline-met fraction among fully *delivered* deadline flows.

        Conditions the replay deadline metric on survival: of the deadline
        flows whose packets all made it through, how many were on time?
        Separates scheduling quality from fault-induced loss (under faults,
        :attr:`deadline_met_fraction_replay` conflates the two).
        """
        if self.deadline_flows_delivered == 0:
            return 0.0
        return self.deadline_met_replay / self.deadline_flows_delivered


def compare_schedules(
    original: Schedule,
    replay: Schedule,
    threshold: float,
    tolerance: float = 1e-9,
) -> ReplayMetrics:
    """Compare a replay schedule against the original it tried to reproduce.

    Packets are matched by packet id (the replay engine keys replayed packets
    by the original packet's id).  A packet present in the original but
    absent from the replay — it never exited before the replay run ended —
    counts as overdue and as overdue-beyond-threshold.

    Args:
        original: The target schedule.
        replay: The schedule the candidate UPS produced.
        threshold: The paper's ``T`` — one transmission time on the
            bottleneck link.
        tolerance: Numerical slop below which a late exit is not counted as
            overdue (floating-point guard, default 1 ns).
    """
    # Folds the columns in the original's canonical order: a fresh recording
    # and its cache-loaded twin compare equal to the bit.
    source = original.columns()
    replay_output = replay.columns().output_time
    rows = replay.rows_of(source.packet_id)
    missing = rows.count(None)
    overdue = [late for late in lateness_distribution(original, replay) if late > tolerance]
    metrics = ReplayMetrics(
        total_packets=len(rows),
        missing_packets=missing,
        overdue_count=len(overdue) + missing,
        overdue_beyond_threshold_count=sum(late > threshold for late in overdue) + missing,
        threshold=threshold,
        max_lateness=max([0.0, *overdue]),
    )
    if rows:
        metrics.mean_lateness = left_sum(overdue) / len(rows)
    # flow id -> [deadline, last original output, last replay output, any packet missing]
    flows: Dict[int, list] = {}
    for deadline, flow_id, output, row in zip(
        source.deadline, source.flow_id, source.output_time, rows
    ):
        if deadline is None:
            continue
        entry = flows.setdefault(flow_id, [deadline, -math.inf, -math.inf, False])
        entry[1] = max(entry[1], output)
        if row is None:
            entry[3] = True
        else:
            entry[2] = max(entry[2], replay_output[row])
    for deadline, original_last, replay_last, lost in flows.values():
        metrics.deadline_total += 1
        if original_last <= deadline + tolerance:
            metrics.deadline_met_original += 1
        if not lost:
            metrics.deadline_flows_delivered += 1
            if replay_last <= deadline + tolerance:
                metrics.deadline_met_replay += 1
    replay_queueing = replay.queueing_delays()
    metrics.queueing_delay_ratios = [
        replay_queueing[row] / queueing
        for row, queueing in zip(rows, original.queueing_delays())
        if row is not None and queueing > 0
    ]
    return metrics


@dataclass
class ScheduleStatistics:
    """Standalone quality metrics of one schedule (no replay comparison).

    Where :class:`ReplayMetrics` judges a replay *against* the original it
    targeted, this judges a schedule on its own terms — the view the paper's
    Section-3 heuristic comparison needs, where FIFO, SRPT, and heuristic
    LSTF each produce their own schedule from the same offered traffic.

    Attributes:
        packets: Delivered packets in the schedule.
        mean_delay: Mean end-to-end packet delay ``o(p) - i(p)`` (seconds).
        p99_delay: 99th-percentile end-to-end packet delay (seconds).
        max_delay: Largest end-to-end packet delay (seconds).
        deadline_total: Flows carrying a completion deadline.
        deadline_met: Deadline flows whose last packet exited on time.
    """

    packets: int = 0
    mean_delay: float = 0.0
    p99_delay: float = 0.0
    max_delay: float = 0.0
    deadline_total: int = 0
    deadline_met: int = 0

    @property
    def deadline_met_fraction(self) -> float:
        """Fraction of deadline-tagged flows completed on time."""
        if self.deadline_total == 0:
            return 0.0
        return self.deadline_met / self.deadline_total


def schedule_statistics(schedule: Schedule, tolerance: float = 1e-9) -> ScheduleStatistics:
    """Delay and deadline statistics of one schedule, measured directly.

    A flow meets its deadline when its *last* packet's output time does
    (same per-flow aggregation as :func:`compare_schedules`, so a direct
    measurement of a schedule and the replay-side deadline accounting
    agree on what "met" means).

    Args:
        schedule: The schedule to summarize.
        tolerance: Numerical slop applied to the deadline comparison
            (floating-point guard, default 1 ns).
    """
    # Columns are in canonical (ingress time, packet id) order however the
    # schedule was built: float summation is order-sensitive, and the mean
    # must be bit-identical for a fresh recording and its cache-loaded twin.
    cols = schedule.columns()
    delays = list(map(sub, cols.output_time, cols.ingress_time))
    stats = ScheduleStatistics(packets=len(delays))
    if delays:
        stats.mean_delay = left_sum(delays) / len(delays)
        stats.p99_delay = percentile(delays, 99)
        stats.max_delay = max(delays)
    flows = _fold_deadline_flows({}, zip(cols.deadline, cols.flow_id, cols.output_time))
    stats.deadline_total, stats.deadline_met = _deadlines_met(flows, tolerance)
    return stats


def _fold_deadline_flows(
    flows: Dict[int, List[float]], packets: Iterable[Tuple[Optional[float], int, float]]
) -> Dict[int, List[float]]:
    """Fold ``(deadline, flow id, output time)`` per packet into ``flows``
    (flow id -> ``[deadline, last output time]``) and return it.  A flow meets
    its deadline when its *last* packet does; untagged packets are skipped."""
    for deadline, flow_id, output in packets:
        if deadline is not None:
            entry = flows.setdefault(flow_id, [deadline, -math.inf])
            entry[1] = max(entry[1], output)
    return flows


def _deadlines_met(flows: Dict[int, List[float]], tolerance: float) -> Tuple[int, int]:
    """``(deadline flows, those whose last packet exited on time)``."""
    return len(flows), sum(last <= deadline + tolerance for deadline, last in flows.values())


def lateness_distribution(
    original: Schedule, replay: Schedule
) -> List[float]:
    """Per-packet lateness ``o'(p) - o(p)`` for every packet present in both runs."""
    source = original.columns()
    replay_output = replay.columns().output_time
    return [
        replay_output[row] - output
        for row, output in zip(replay.rows_of(source.packet_id), source.output_time)
        if row is not None
    ]


# ---------------------------------------------------------------------- #
# Mergeable statistics (the scale tier's finalizer)
# ---------------------------------------------------------------------- #
class StreamingScheduleStatistics:
    """Mergeable accumulator: :func:`schedule_statistics` over column ranges.

    Folds row ranges of a :class:`~repro.core.schedule.ScheduleColumns` —
    O(1) state for count/sum/max, a
    :class:`~repro.utils.stats.QuantileSketch` for the delay percentile, and
    an O(#deadline-flows) dict for deadline accounting — so a cell
    summarizing a million-packet schedule never materializes the per-packet
    delay list :func:`schedule_statistics` builds.

    **Equivalence contract** (asserted by the golden equivalence tests):
    after one fold over a whole schedule's columns, :meth:`finalize` equals
    :func:`schedule_statistics` *bit-identically* for ``packets`` /
    ``mean_delay`` / ``max_delay`` / ``deadline_total`` / ``deadline_met``
    (the sketch's running total is :func:`~repro.utils.stats.left_sum`'s
    arithmetic, over the same delays in the same order), and within the
    sketch's documented relative error ε for ``p99_delay``.

    **Merge contract**: partial accumulators over disjoint row ranges merge
    into one.  Integer counts and the sketch's bins merge exactly
    (commutative); float sums are folded ``self then other``, so merging
    shard partials **in shard-index order** yields the same bits on every
    run, serial or parallel — the shard runner's determinism rule.
    """

    def __init__(self, alpha: float = QuantileSketch.DEFAULT_ALPHA) -> None:
        self.delays = QuantileSketch(alpha)
        # flow id -> [deadline, last output time]: _fold_deadline_flows' state.
        self._deadline_flows: Dict[int, List[float]] = {}

    @property
    def packets(self) -> int:
        """Packets folded in so far."""
        return self.delays.count

    def fold(self, cols: ScheduleColumns, start: int = 0, stop: Optional[int] = None) -> None:
        """Fold packets ``start:stop`` of ``cols`` (all of them by default) in."""
        rows = slice(start, stop)
        outputs = cols.output_time[rows]
        self.delays.extend(map(sub, outputs, cols.ingress_time[rows]))
        _fold_deadline_flows(
            self._deadline_flows, zip(cols.deadline[rows], cols.flow_id[rows], outputs)
        )

    def merge(self, other: "StreamingScheduleStatistics") -> "StreamingScheduleStatistics":
        """A new accumulator equivalent to folding both sides' rows.

        Fold order is ``self`` then ``other``: callers merging shard
        partials must do so in shard-index order for bit-stable sums.
        """
        merged = StreamingScheduleStatistics(alpha=self.delays.alpha)
        merged.delays = self.delays.merge(other.delays)
        merged._deadline_flows = _fold_deadline_flows(
            {flow_id: list(entry) for flow_id, entry in self._deadline_flows.items()},
            (
                (deadline, flow_id, last_output)
                for flow_id, (deadline, last_output) in other._deadline_flows.items()
            ),
        )
        return merged

    def finalize(self, tolerance: float = 1e-9) -> ScheduleStatistics:
        """The accumulated :class:`ScheduleStatistics`.

        ``p99_delay`` comes from the sketch (within ε of the exact
        percentile); every other field is exact.
        """
        stats = ScheduleStatistics(packets=self.packets)
        if self.packets:
            stats.mean_delay = self.delays.mean
            stats.p99_delay = self.delays.quantile(99)
            stats.max_delay = self.delays.maximum
        stats.deadline_total, stats.deadline_met = _deadlines_met(self._deadline_flows, tolerance)
        return stats

    # ------------------------------------------------------------------ #
    # Serialization (shard partials cross process boundaries as dicts)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable form (lossless)."""
        return {
            "delays": self.delays.to_dict(),
            "deadline_flows": {
                str(flow_id): list(entry)
                for flow_id, entry in sorted(self._deadline_flows.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingScheduleStatistics":
        """Inverse of :meth:`to_dict`."""
        stats = cls()
        stats.delays = QuantileSketch.from_dict(data["delays"])
        stats._deadline_flows = {
            int(flow_id): list(entry)
            for flow_id, entry in data["deadline_flows"].items()
        }
        return stats


def compare_schedules_streaming(
    original_rows: Iterable[dict],
    replay: Schedule,
    threshold: float,
    tolerance: float = 1e-9,
) -> ReplayMetrics:
    """:func:`compare_schedules` over the original's *rows*, minus the ratio list.

    Not a second comparison: an adapter kept only because the frozen
    ``benchmarks/perf/run.py`` imports it (ROADMAP item 1 drops it).
    """
    metrics = compare_schedules(Schedule.from_rows(original_rows), replay, threshold, tolerance)
    metrics.queueing_delay_ratios = []
    return metrics
