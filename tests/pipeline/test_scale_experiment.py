"""The scale experiment group and the runner's shard work-stealing.

The determinism contract under test: a stats cell's shard partition is a
pure function of the cell and the cache's ``shard_packets``, partials merge
in shard-index order, and therefore sharded-serial, sharded-parallel, and
single-chunk execution all emit the same rows — with integer counts, maxima,
and sketch-derived percentiles bit-identical across *any* partition, and
float sums bit-identical for a fixed partition.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.scale import STATS_MODE, ScaleDefinition, scale_scenarios
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import scenario_cache_key
from repro.pipeline.runner import run_pipeline

SMOKE = ExperimentScale.smoke()

#: Small enough that every smoke-scale stats cell splits into many shards.
SHARD_PACKETS = 10


def scale_rows(tmp_path, name, **kwargs):
    summary = run_pipeline(
        ["scale"], scale=SMOKE, cache_dir=str(tmp_path / name), **kwargs
    )
    assert not summary.errors, summary.errors
    return summary.results["scale"].rows


class TestScaleGroup:
    def test_cells_cover_both_modes(self):
        definition = ScaleDefinition()
        cells = definition.cells(SMOKE)
        scenarios = scale_scenarios(SMOKE)
        assert len(cells) == 2 * len(scenarios)
        assert {cell.mode for cell in cells} == {STATS_MODE, "lstf"}
        assert {cell.label for cell in cells} == {s.name for s in scenarios}

    def test_rows_are_deterministic_quantities_only(self, tmp_path):
        rows = scale_rows(tmp_path, "plain")
        assert len(rows) == 4
        for row in rows:
            # RSS / events-per-second are benchmarks/perf metrics, never rows.
            assert "peak_rss_bytes" not in row
            assert row["packets"] > 0


class TestShardDeterminism:
    def test_serial_matches_parallel_work_stealing(self, tmp_path):
        serial = scale_rows(
            tmp_path, "serial", workers=1, shard_packets=SHARD_PACKETS
        )
        parallel = scale_rows(
            tmp_path, "parallel", workers=3, shard_packets=SHARD_PACKETS
        )
        assert serial == parallel

    def test_partition_independent_fields_are_bit_identical(self, tmp_path):
        sharded = scale_rows(tmp_path, "sharded", shard_packets=SHARD_PACKETS)
        whole = scale_rows(tmp_path, "whole", shard_packets=10**9)
        assert len(sharded) == len(whole)
        for left, right in zip(sharded, whole):
            assert set(left) == set(right)
            for column in left:
                if column == "mean_delay":
                    # Chunk-folded float sum: deterministic per partition,
                    # but not bit-identical across partitions.
                    assert left[column] == pytest.approx(right[column], rel=1e-12)
                else:
                    # Counts, maxima, and sketch percentiles merge exactly,
                    # so they cannot depend on the partition at all.
                    assert left[column] == right[column]

    def test_repeated_runs_are_bit_identical(self, tmp_path):
        first = scale_rows(tmp_path, "first", shard_packets=SHARD_PACKETS)
        second = scale_rows(tmp_path, "second", shard_packets=SHARD_PACKETS)
        assert first == second


class TestCellShards:
    def test_partition_is_pure_function_of_count_and_shard_packets(self, tmp_path):
        definition = ScaleDefinition()
        cache = ScheduleCache(tmp_path / "cache", shard_packets=SHARD_PACKETS)
        stats_cell = next(
            cell for cell in definition.cells(SMOKE) if cell.mode == STATS_MODE
        )
        shards = definition.cell_shards(stats_cell, SMOKE, cache)
        assert len(shards) > 1
        packets = definition.run_cell(stats_cell, SMOKE, cache).row["packets"]
        assert shards[0]["start"] == 0
        assert shards[-1]["stop"] == packets
        for index, shard in enumerate(shards):
            assert shard["index"] == index
            assert shard["stop"] - shard["start"] <= SHARD_PACKETS
        # The cache persisted this entry sharded with the same chunking, so
        # every shard spec carries its own cursorable file.
        assert all(shard["file"] for shard in shards)
        # A second planning pass returns the identical partition.
        assert definition.cell_shards(stats_cell, SMOKE, cache) == shards

    def test_replay_cells_never_shard(self, tmp_path):
        definition = ScaleDefinition()
        cache = ScheduleCache(tmp_path / "cache", shard_packets=SHARD_PACKETS)
        replay_cell = next(
            cell for cell in definition.cells(SMOKE) if cell.mode != STATS_MODE
        )
        assert definition.cell_shards(replay_cell, SMOKE, cache) == []

    def test_single_chunk_cells_run_whole(self, tmp_path):
        definition = ScaleDefinition()
        cache = ScheduleCache(tmp_path / "cache")  # default: one huge chunk
        stats_cell = next(
            cell for cell in definition.cells(SMOKE) if cell.mode == STATS_MODE
        )
        assert definition.cell_shards(stats_cell, SMOKE, cache) == []

    def test_shard_execution_merges_to_whole_cell_row(self, tmp_path):
        definition = ScaleDefinition()
        cache = ScheduleCache(tmp_path / "cache", shard_packets=SHARD_PACKETS)
        stats_cell = next(
            cell for cell in definition.cells(SMOKE) if cell.mode == STATS_MODE
        )
        shards = definition.cell_shards(stats_cell, SMOKE, cache)
        partials = [
            definition.run_cell_shard(stats_cell, shard, SMOKE, cache)
            for shard in shards
        ]
        merged = definition.merge_shards(stats_cell, SMOKE, partials)
        whole = definition.run_cell(stats_cell, SMOKE, cache)
        # run_cell folds the same partition serially, so the rows agree to
        # the bit — including the float mean.
        assert merged.row == whole.row


class TestScaleCellsBuildNoViews:
    """Every ``scale`` cell walks columns: no record object is constructed."""

    @pytest.fixture
    def built(self, monkeypatch, views_built):
        # The reference engine's injector consumes views; the default engine must not.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        return views_built

    def test_whole_cells_cold_and_warm(self, tmp_path, built):
        cold = scale_rows(tmp_path, "views", workers=1, shard_packets=SHARD_PACKETS)
        assert not built, built
        warm = scale_rows(tmp_path, "views", workers=1, shard_packets=SHARD_PACKETS)
        assert not built, built
        assert warm == cold

    def test_shard_tasks_with_and_without_a_shard_file(self, tmp_path, built):
        definition = ScaleDefinition()
        stats_cell = next(
            cell for cell in definition.cells(SMOKE) if cell.mode == STATS_MODE
        )
        cache = ScheduleCache(tmp_path / "cache", shard_packets=SHARD_PACKETS)
        shards = definition.cell_shards(stats_cell, SMOKE, cache)
        assert all(shard["file"] for shard in shards)
        # Partition != layout: a cache at another ``shard_packets`` plans
        # shards that match no stored file, so each task slices the schedule.
        other = ScheduleCache(tmp_path / "cache", shard_packets=SHARD_PACKETS + 3)
        fallback = definition.cell_shards(stats_cell, SMOKE, other)
        assert len(fallback) > 1 and not any(shard["file"] for shard in fallback)
        rows = [
            definition.merge_shards(
                stats_cell,
                SMOKE,
                [definition.run_cell_shard(stats_cell, shard, SMOKE, store) for shard in plan],
            ).row
            for plan, store in ((shards, cache), (fallback, other))
        ]
        assert not built, built
        assert rows[0] == definition.run_cell(stats_cell, SMOKE, cache).row
        assert rows[1] == definition.run_cell(stats_cell, SMOKE, other).row


class TestCustomScenarioPlumbing:
    def test_faulted_scenario_is_keyed_planned_and_replayed_alike(self, tmp_path):
        """One scenario, one key: the recording, the shard plan and the
        replay must all see the scenario's fault plan (the shard plan used to
        look under the faulted key for an entry stored under the fault-free
        one, and the replay ran fault-free)."""
        scenario = replace(scale_scenarios(SMOKE)[0], faults="loss-1pct")
        definition = ScaleDefinition(scenarios=(scenario,))
        cache = ScheduleCache(tmp_path / "cache", shard_packets=SHARD_PACKETS)
        stats_cell, replay_cell = definition.cells(SMOKE)
        shards = definition.cell_shards(stats_cell, SMOKE, cache)
        assert len(shards) > 1
        assert all(shard["file"] for shard in shards)
        assert cache.disk_entries() == 1
        assert cache.entry_path(scenario_cache_key(scenario)) is not None
        row = definition.run_cell(replay_cell, SMOKE, cache).row
        assert row["delivered_fraction"] < 1
