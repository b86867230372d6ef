"""Golden equivalence: one fold, two finalizers — and one comparison.

One representative scenario from each current experiment group (table1,
adversarial, heuristics, faults) is recorded and replayed, then summarized by
both finalizers of the schedule-statistics fold:

* :func:`schedule_statistics` (exact percentile; what ``heuristics`` rows pin);
* :class:`StreamingScheduleStatistics` (mergeable, sketch percentile; what
  the scale tier's rows pin).

The equivalence contract under test (docs/scale.md): every count, sum-derived
mean, and max field is reproduced **bit-identically** when the accumulator
folds the whole column range, and sketch-based percentiles land within the
documented ε of the exact value's bracketing order statistics.  The same
assertions are repeated after splitting the rows into chunks and merging the
per-chunk partials — the shard runner's exact code shape.
:func:`compare_schedules` is the only comparison; its row-taking adapter
must equal it.
"""

from __future__ import annotations

import math

import pytest

from repro.core.metrics import (
    StreamingScheduleStatistics,
    compare_schedules,
    compare_schedules_streaming,
    schedule_statistics,
)
from repro.utils.stats import percentile


def _replay_cases():
    """One (label, scenario, mode) per replay-style experiment group."""
    from repro.experiments.adversarial import adversarial_scenarios
    from repro.experiments.config import ExperimentScale
    from repro.experiments.faults import FAULT_MODES, fault_scenarios
    from repro.experiments.table1 import default_scenario

    scale = ExperimentScale.smoke()
    fault_scenario = next(
        scenario for scenario in fault_scenarios(scale) if scenario.faults
    )
    return [
        ("table1", default_scenario(scale, name="streq-table1"), "lstf"),
        ("adversarial", adversarial_scenarios(scale)[0], "lstf"),
        ("faults", fault_scenario, FAULT_MODES[0]),
    ]


@pytest.fixture(scope="module")
def replay_results(tmp_path_factory):
    """Replay one scenario per group once; every test reuses the schedules."""
    from repro.pipeline.cache import ScheduleCache
    from repro.pipeline.experiment import replay_scenario

    cache = ScheduleCache(tmp_path_factory.mktemp("streq-cache"))
    return {
        label: replay_scenario(scenario, mode=mode, cache=cache)
        for label, scenario, mode in _replay_cases()
    }


@pytest.fixture(scope="module")
def heuristics_schedule():
    """A heuristic-scheduler schedule (the heuristics group's direct cells)."""
    from repro.experiments.config import ExperimentScale
    from repro.experiments.heuristics import SCHEME_BY_LABEL, heuristic_scenario
    from repro.pipeline.experiment import record_scenario_schedule

    scale = ExperimentScale.smoke()
    scenario = heuristic_scenario(scale, "deadline-tagged", SCHEME_BY_LABEL["srpt"])
    return record_scenario_schedule(scenario)


def _assert_sketch_brackets(sketch, values, q):
    """Sketch quantile within ε of the exact percentile's order-statistic bracket."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = ordered[int(math.floor(rank))]
    hi = ordered[int(math.ceil(rank))]
    assert lo <= percentile(values, q) <= hi
    alpha = sketch.alpha
    value = sketch.quantile(q)
    assert lo - abs(lo) * alpha <= value <= hi + abs(hi) * alpha


def _assert_statistics_equivalent(schedule):
    """Whole-schedule fold == schedule_statistics, field by field."""
    reference = schedule_statistics(schedule)
    accumulator = StreamingScheduleStatistics()
    accumulator.fold(schedule.columns())
    streaming = accumulator.finalize()
    # Exact fields are bit-identical (== on floats, not approx).
    assert streaming.packets == reference.packets
    assert streaming.mean_delay == reference.mean_delay
    assert streaming.max_delay == reference.max_delay
    assert streaming.deadline_total == reference.deadline_total
    assert streaming.deadline_met == reference.deadline_met
    assert streaming.deadline_met_fraction == reference.deadline_met_fraction
    # p99 is sketch-based: within ε of the exact percentile's bracket.
    delays = [row["output_time"] - row["ingress_time"] for row in schedule]
    _assert_sketch_brackets(accumulator.delays, delays, 99)
    return reference


def _assert_comparison_equivalent(original, replayed, threshold):
    """The row-taking adapter == compare_schedules."""
    reference = compare_schedules(original, replayed, threshold)
    adapted = compare_schedules_streaming(iter(original), replayed, threshold)
    assert adapted == reference
    return reference


class TestGroupEquivalence:
    @pytest.mark.parametrize("label", ["table1", "adversarial", "faults"])
    def test_replay_groups_bit_identical(self, replay_results, label):
        result = replay_results[label]
        metrics = _assert_comparison_equivalent(
            result.original, result.replayed, result.metrics.threshold
        )
        # Sanity: the comparison under test is the one the group's row used.
        assert metrics.overdue_fraction == result.metrics.overdue_fraction
        assert metrics.total_packets == result.metrics.total_packets

    def test_missing_packets_branch_equivalent(self, replay_results):
        """Dropped packets (the fault-injection case) compare identically.

        Smoke-scale fault plans do not always destroy a packet, so the
        missing branch is exercised deterministically: every third replay
        row is withheld and the adapter must agree on the damage.
        """
        from repro.core.schedule import Schedule

        result = replay_results["faults"]
        survivors = [row for index, row in enumerate(result.replayed) if index % 3]
        truncated = Schedule.from_rows(survivors)
        metrics = _assert_comparison_equivalent(
            result.original, truncated, result.metrics.threshold
        )
        assert metrics.missing_packets > 0

    @pytest.mark.parametrize("label", ["table1", "adversarial", "faults"])
    def test_schedule_statistics_bit_identical(self, replay_results, label):
        result = replay_results[label]
        _assert_statistics_equivalent(result.original)
        _assert_statistics_equivalent(result.replayed)

    def test_heuristics_group_bit_identical(self, heuristics_schedule):
        reference = _assert_statistics_equivalent(heuristics_schedule)
        assert reference.packets > 0


class TestShardedMerge:
    """Chunked fold + shard-index-order merge: the shard runner's contract.

    Integer counts, maxima, and sketch bins are *bit-identical* to the
    single pass (integer/max arithmetic is associative).  Float running
    sums are associative only up to rounding, so the contract for them is
    **determinism** — the same shard partition merged in shard-index order
    yields the same bits on every run — plus agreement with the single pass
    to ~1 ulp-scale relative tolerance.
    """

    @pytest.mark.parametrize("chunks", [2, 3, 7])
    def test_statistics_merge_matches_single_pass(
        self, replay_results, heuristics_schedule, chunks
    ):
        # The heuristics schedule is deadline-tagged: its flows straddle chunks.
        for schedule in (replay_results["table1"].original, heuristics_schedule):
            cols = schedule.columns()
            count = len(cols.packet_id)
            single = StreamingScheduleStatistics()
            single.fold(cols)
            size = max(1, math.ceil(count / chunks))

            def fold():
                merged = StreamingScheduleStatistics()
                for start in range(0, count, size):
                    partial = StreamingScheduleStatistics()
                    partial.fold(cols, start, start + size)
                    merged = merged.merge(partial)
                return merged

            merged = fold()
            final_single = single.finalize()
            final_merged = merged.finalize()
            # Exact fields: bit-identical to the single pass.
            assert merged.delays.to_dict()["bins"] == single.delays.to_dict()["bins"]
            assert final_merged.packets == final_single.packets == count
            assert final_merged.max_delay == final_single.max_delay
            assert final_merged.p99_delay == final_single.p99_delay
            assert final_merged.deadline_total == final_single.deadline_total
            assert final_merged.deadline_met == final_single.deadline_met
            # Float sums: deterministic across runs, ~exact vs the single pass.
            assert final_merged.mean_delay == pytest.approx(
                final_single.mean_delay, rel=1e-12
            )
            assert fold().finalize() == final_merged
        assert final_single.deadline_total > 0

    def test_statistics_roundtrip_through_dict(self, replay_results):
        """Shard partials cross process boundaries as dicts, losslessly."""
        schedule = replay_results["table1"].original
        accumulator = StreamingScheduleStatistics()
        accumulator.fold(schedule.columns())
        loaded = StreamingScheduleStatistics.from_dict(accumulator.to_dict())
        assert loaded.to_dict() == accumulator.to_dict()
        assert loaded.finalize() == accumulator.finalize()
