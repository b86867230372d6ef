"""Replay evaluation metrics.

Section 2.3 evaluates a replay with two headline numbers — the fraction of
packets that are *overdue* (exit later than in the original schedule) and the
fraction overdue by more than a threshold ``T`` (one transmission time on the
bottleneck link) — plus the CDF of per-packet queueing-delay ratios shown in
Figure 1.  This module computes all three from a pair of schedules.

Two implementation paths coexist:

* the **reference** path (:func:`compare_schedules`,
  :func:`schedule_statistics`) materializes per-packet lists and computes
  exact percentiles — what every existing experiment row and golden fixture
  pins, bit for bit;
* the **streaming** path (:class:`StreamingScheduleStatistics`,
  :class:`StreamingReplayComparison`) folds records one at a time into
  mergeable accumulators — exact count/sum/max fields, sketch-based
  percentiles within the documented ε (see
  :class:`repro.utils.stats.QuantileSketch` and docs/scale.md) — so a
  scale-tier cell never holds a full per-packet delay or ratio list, and
  per-shard partials merge deterministically in shard-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, sub
from typing import Dict, Iterable, List, Optional

from repro.core.schedule import PacketRecord, Schedule
from repro.utils.stats import QuantileSketch


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

    def summary(self) -> Dict[str, float]:
        """Headline numbers as a dictionary (used by the experiment tables)."""
        return {
            "total_packets": float(self.total_packets),
            "overdue_fraction": self.overdue_fraction,
            "overdue_beyond_threshold_fraction": self.overdue_beyond_threshold_fraction,
            "mean_lateness": self.mean_lateness,
            "max_lateness": self.max_lateness,
        }


def compare_schedules(
    original: Schedule,
    replay: Schedule,
    threshold: float,
    tolerance: float = 1e-9,
) -> ReplayMetrics:
    """Compare a replay schedule against the original it tried to reproduce.

    Packets are matched by packet id (the replay engine keys replayed records
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
    # Folds the columns, in the original's canonical order, exactly as
    # streaming ``original.records()`` through the accumulator would: a fresh
    # recording and its cache-loaded twin compare equal to the bit.
    source = original.columns()
    replay_output = replay.columns().output_time
    rows = replay.rows_of(source.packet_id)
    overdue = [late for late in lateness_distribution(original, replay) if late > tolerance]
    fold = StreamingReplayComparison(replay, threshold, tolerance)
    fold.total_packets = len(rows)
    fold.missing_packets = rows.count(None)
    fold.overdue_count = len(overdue) + fold.missing_packets
    fold.overdue_beyond_threshold_count = (
        sum(late > threshold for late in overdue) + fold.missing_packets
    )
    fold.lateness_total = reduce(add, overdue, 0.0)
    fold.max_lateness = max([0.0, *overdue])
    for deadline, flow_id, output, row in zip(
        source.deadline, source.flow_id, source.output_time, rows
    ):
        if deadline is None:
            continue
        entry = fold._deadline_flows.setdefault(
            flow_id, [deadline, -math.inf, -math.inf, False]
        )
        entry[1] = max(entry[1], output)
        if row is None:
            entry[3] = True
        else:
            entry[2] = max(entry[2], replay_output[row])
    metrics = fold.finalize()
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
    from repro.utils.stats import percentile

    # Columns are in canonical (ingress time, packet id) order however the
    # schedule was built: float summation is order-sensitive, and the mean
    # must be bit-identical for a fresh recording and its cache-loaded twin.
    cols = schedule.columns()
    delays = list(map(sub, cols.output_time, cols.ingress_time))
    stats = ScheduleStatistics(packets=len(delays))
    deadline_flows: Dict[int, List[float]] = {}
    for deadline, flow_id, output in zip(cols.deadline, cols.flow_id, cols.output_time):
        if deadline is not None:
            entry = deadline_flows.setdefault(flow_id, [deadline, -math.inf])
            entry[1] = max(entry[1], output)
    if delays:
        stats.mean_delay = sum(delays) / len(delays)
        stats.p99_delay = percentile(delays, 99)
        stats.max_delay = max(delays)
    for deadline, last_output in deadline_flows.values():
        stats.deadline_total += 1
        if last_output <= deadline + tolerance:
            stats.deadline_met += 1
    return stats


def fraction_overdue(
    original: Schedule, replay: Schedule, tolerance: float = 1e-9
) -> float:
    """Convenience wrapper returning only the overdue fraction."""
    return compare_schedules(original, replay, threshold=0.0, tolerance=tolerance).overdue_fraction


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
# Streaming / mergeable metrics (the scale tier's path)
# ---------------------------------------------------------------------- #
class StreamingScheduleStatistics:
    """Mergeable streaming accumulator behind :func:`schedule_statistics`.

    Folds records one at a time — O(1) state for count/sum/max, a
    :class:`~repro.utils.stats.QuantileSketch` for the delay percentile, and
    an O(#deadline-flows) dict for deadline accounting — so a cell
    summarizing a million-packet schedule never materializes the per-packet
    delay list the reference path builds.

    **Equivalence contract** (asserted by the golden equivalence tests):
    fed the same records in the same order as the reference path,
    :meth:`finalize` reproduces :func:`schedule_statistics` *bit-identically*
    for ``packets`` / ``mean_delay`` / ``max_delay`` / ``deadline_total`` /
    ``deadline_met`` (the mean is a plain left-fold running sum, the same
    arithmetic as ``sum(list) / len``), and within the sketch's documented
    relative error ε for ``p99_delay``.

    **Merge contract**: partial accumulators over disjoint record chunks
    merge into one.  Integer counts and the sketch's bins merge exactly
    (commutative); float sums are folded ``self then other``, so merging
    shard partials **in shard-index order** yields the same bits on every
    run, serial or parallel — the shard runner's determinism rule.
    """

    def __init__(self, alpha: float = QuantileSketch.DEFAULT_ALPHA) -> None:
        self.delays = QuantileSketch(alpha)
        # flow id -> [deadline, last output time]; same per-flow aggregation
        # as schedule_statistics.
        self._deadline_flows: Dict[int, List[float]] = {}

    @property
    def packets(self) -> int:
        """Records folded in so far."""
        return self.delays.count

    def add(self, record: PacketRecord) -> None:
        """Fold one packet record into the accumulator."""
        self.delays.add(record.network_delay)
        if record.deadline is not None:
            entry = self._deadline_flows.setdefault(
                record.flow_id, [record.deadline, -math.inf]
            )
            entry[1] = max(entry[1], record.output_time)

    def extend(self, records: Iterable[PacketRecord]) -> None:
        """Fold many records (e.g. one shard's cursor) into the accumulator."""
        for record in records:
            self.add(record)

    def merge(self, other: "StreamingScheduleStatistics") -> "StreamingScheduleStatistics":
        """A new accumulator equivalent to seeing both record streams.

        Fold order is ``self`` then ``other``: callers merging shard
        partials must do so in shard-index order for bit-stable sums.
        """
        merged = StreamingScheduleStatistics(alpha=self.delays.alpha)
        merged.delays = self.delays.merge(other.delays)
        merged._deadline_flows = {
            flow_id: list(entry) for flow_id, entry in self._deadline_flows.items()
        }
        for flow_id, entry in other._deadline_flows.items():
            mine = merged._deadline_flows.setdefault(flow_id, [entry[0], -math.inf])
            mine[1] = max(mine[1], entry[1])
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
        for deadline, last_output in self._deadline_flows.values():
            stats.deadline_total += 1
            if last_output <= deadline + tolerance:
                stats.deadline_met += 1
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


def streaming_schedule_statistics(
    records: Iterable[PacketRecord],
    tolerance: float = 1e-9,
    alpha: float = QuantileSketch.DEFAULT_ALPHA,
) -> ScheduleStatistics:
    """:func:`schedule_statistics` over a record *iterator*, streamed.

    Accepts any record source — ``schedule.records()``, a shard cursor
    (:func:`repro.core.schedule.iter_schedule_records`) — and holds O(sketch)
    memory instead of a per-packet delay list.  Same equivalence contract as
    :class:`StreamingScheduleStatistics`.
    """
    accumulator = StreamingScheduleStatistics(alpha=alpha)
    accumulator.extend(records)
    return accumulator.finalize(tolerance=tolerance)


class StreamingReplayComparison:
    """Mergeable streaming accumulator behind :func:`compare_schedules`.

    Walks original records one at a time against a replay schedule, keeping
    the Figure-1 queueing-delay ratios in a
    :class:`~repro.utils.stats.QuantileSketch` instead of the per-packet
    list :attr:`ReplayMetrics.queueing_delay_ratios` materializes — the last
    unbounded per-packet list on the replay evaluation path.

    **Equivalence contract** (asserted by the golden equivalence tests): fed
    the original records in the same order as :func:`compare_schedules`,
    :meth:`finalize` reproduces every count field
    (``total_packets`` / ``missing_packets`` / ``overdue_count`` /
    ``overdue_beyond_threshold_count`` / all deadline counters) exactly,
    ``mean_lateness`` / ``max_lateness`` bit-identically (same left-fold
    arithmetic), and summarizes the ratio distribution exactly for
    count/sum/min/max with sketch-ε percentiles.  The finalized
    :class:`ReplayMetrics` carries an **empty** ``queueing_delay_ratios``
    list — by design, that list is what this path exists to avoid.

    **Merge contract**: partials over disjoint original-record chunks merge
    with the same shard-index-order rule as
    :class:`StreamingScheduleStatistics`.
    """

    def __init__(
        self,
        replay: Schedule,
        threshold: float,
        tolerance: float = 1e-9,
        alpha: float = QuantileSketch.DEFAULT_ALPHA,
    ) -> None:
        self.replay = replay
        self.threshold = threshold
        self.tolerance = tolerance
        self.total_packets = 0
        self.missing_packets = 0
        self.overdue_count = 0
        self.overdue_beyond_threshold_count = 0
        self.lateness_total = 0.0
        self.max_lateness = 0.0
        self.ratios = QuantileSketch(alpha)
        # flow id -> [deadline, last original output, last replay output,
        # any-packet-missing flag]; same aggregation as compare_schedules.
        self._deadline_flows: Dict[int, List[float]] = {}
        # The replay side is read off its columns; its queueing delays on first use.
        self._replay_queueing: Optional[List[float]] = None

    def add(self, record: PacketRecord) -> None:
        """Fold one *original* record, matching it against the replay."""
        self.total_packets += 1
        (row,) = self.replay.rows_of((record.packet_id,))
        replay_output = None if row is None else self.replay.columns().output_time[row]
        if record.deadline is not None:
            entry = self._deadline_flows.setdefault(
                record.flow_id, [record.deadline, -math.inf, -math.inf, False]
            )
            entry[1] = max(entry[1], record.output_time)
            if row is None:
                entry[3] = True
            else:
                entry[2] = max(entry[2], replay_output)
        if row is None:
            self.missing_packets += 1
            self.overdue_count += 1
            self.overdue_beyond_threshold_count += 1
            return
        lateness = replay_output - record.output_time
        if lateness > self.tolerance:
            self.overdue_count += 1
            if lateness > self.threshold:
                self.overdue_beyond_threshold_count += 1
            self.lateness_total += lateness
            self.max_lateness = max(self.max_lateness, lateness)
        original_queueing = record.total_queueing_delay
        if original_queueing > 0:
            if self._replay_queueing is None:
                self._replay_queueing = self.replay.queueing_delays()
            self.ratios.add(self._replay_queueing[row] / original_queueing)

    def extend(self, records: Iterable[PacketRecord]) -> None:
        """Fold many original records (e.g. one shard's cursor)."""
        for record in records:
            self.add(record)

    def merge(self, other: "StreamingReplayComparison") -> "StreamingReplayComparison":
        """A new accumulator equivalent to seeing both original-record streams.

        Fold order is ``self`` then ``other`` (shard-index order for
        bit-stable float sums); both sides must compare against the same
        replay under the same threshold/tolerance.
        """
        if (other.threshold, other.tolerance) != (self.threshold, self.tolerance):
            raise ValueError(
                "cannot merge replay comparisons with different "
                f"threshold/tolerance ({self.threshold}/{self.tolerance} != "
                f"{other.threshold}/{other.tolerance})"
            )
        merged = StreamingReplayComparison(
            self.replay, self.threshold, self.tolerance, alpha=self.ratios.alpha
        )
        merged.total_packets = self.total_packets + other.total_packets
        merged.missing_packets = self.missing_packets + other.missing_packets
        merged.overdue_count = self.overdue_count + other.overdue_count
        merged.overdue_beyond_threshold_count = (
            self.overdue_beyond_threshold_count + other.overdue_beyond_threshold_count
        )
        merged.lateness_total = self.lateness_total + other.lateness_total
        merged.max_lateness = max(self.max_lateness, other.max_lateness)
        merged.ratios = self.ratios.merge(other.ratios)
        merged._deadline_flows = {
            flow_id: list(entry) for flow_id, entry in self._deadline_flows.items()
        }
        for flow_id, entry in other._deadline_flows.items():
            mine = merged._deadline_flows.setdefault(
                flow_id, [entry[0], -math.inf, -math.inf, False]
            )
            mine[1] = max(mine[1], entry[1])
            mine[2] = max(mine[2], entry[2])
            mine[3] = bool(mine[3]) or bool(entry[3])
        return merged

    def finalize(self) -> ReplayMetrics:
        """The accumulated :class:`ReplayMetrics` (empty ratio list by design)."""
        metrics = ReplayMetrics(
            total_packets=self.total_packets,
            missing_packets=self.missing_packets,
            overdue_count=self.overdue_count,
            overdue_beyond_threshold_count=self.overdue_beyond_threshold_count,
            threshold=self.threshold,
            max_lateness=self.max_lateness,
        )
        for deadline, original_last, replay_last, missing in self._deadline_flows.values():
            metrics.deadline_total += 1
            if original_last <= deadline + self.tolerance:
                metrics.deadline_met_original += 1
            if not missing:
                metrics.deadline_flows_delivered += 1
                if replay_last <= deadline + self.tolerance:
                    metrics.deadline_met_replay += 1
        if metrics.total_packets:
            metrics.mean_lateness = self.lateness_total / metrics.total_packets
        return metrics


def compare_schedules_streaming(
    original_records: Iterable[PacketRecord],
    replay: Schedule,
    threshold: float,
    tolerance: float = 1e-9,
) -> ReplayMetrics:
    """:func:`compare_schedules` over an original-record *iterator*, streamed.

    Same equivalence contract as :class:`StreamingReplayComparison`; the
    returned metrics carry no per-packet ratio list (the ratio summary lives
    in the comparison object — construct one directly when the sketch is
    needed).
    """
    comparison = StreamingReplayComparison(replay, threshold, tolerance=tolerance)
    comparison.extend(original_records)
    return comparison.finalize()
