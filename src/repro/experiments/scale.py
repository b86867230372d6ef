"""The scale experiment group: full-topology cells over the sharded cache.

The paper's record-and-replay argument is only interesting if it survives
scale — Rocketfuel-sized WANs and full fat-trees, not just the Internet2
toy.  This group runs one scenario per large topology and evaluates it two
ways:

* ``stats`` cells fold the recorded schedule's quality metrics
  (:class:`~repro.core.metrics.StreamingScheduleStatistics`) over column
  ranges — the cache's shard files, a decoded batch at a time — so a cell
  never materializes a per-packet list or a record object and peak RSS stays
  bounded by one shard;
* ``replay`` cells are ordinary replay cells: the scenario's candidate UPS
  replays the schedule and :func:`~repro.core.metrics.compare_schedules`
  scores it (a replay cannot be sharded — packets interact — so both full
  schedules are in memory whenever a comparison runs).

``stats`` cells opt into the runner's shard protocol
(:attr:`~repro.pipeline.experiment.ExperimentDef.supports_shards`): the
shard partition is the canonical record order chunked by the cache's
``shard_packets`` — a pure function of the cell and the cache
configuration, never of worker count or storage layout — and partials merge
in shard-index order, so sharded-serial, sharded-parallel, and the
single-process fallback all emit bit-identical rows.  When the cache entry
is persisted in sharded form and its chunking matches the partition (it
always does when the entry was written by a cache with the same
``shard_packets``), each shard task cursors its own
``<key>.shard-<i>.jsonl.gz`` file directly
(:func:`~repro.core.schedule.iter_schedule_columns`); otherwise it folds its
row range of the cache-loaded schedule's columns.

Rows contain only deterministic quantities.  Peak RSS and events/s — the
scale tier's headline numbers — are measured by ``benchmarks/perf``
(``peak_rss_mib`` / ``events_per_ref_s`` of its ``parallel-mixed`` workload),
never in rows (a row must be bit-identical across machines; an RSS sample is
not).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from repro.core.metrics import ScheduleStatistics, StreamingScheduleStatistics
from repro.core.replay import ReplayResult
from repro.core.schedule import (
    MANIFEST_SUFFIX,
    ScheduleColumns,
    iter_schedule_columns,
    load_manifest,
    stored_schedule_packets,
)
from repro.experiments.config import ExperimentScale
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import (
    Cell,
    CellResult,
    ScenarioExperimentDef,
    cached_schedule,
    register_experiment,
    scenario_cache_key,
)
from repro.pipeline.scenario import Scenario

#: Topology builders exercised at scale (methods on ExperimentScale).
SCALE_TOPOLOGIES: Tuple[str, ...] = ("rocketfuel", "fattree")

#: Cell mode streaming the recorded schedule's own quality metrics.
STATS_MODE = "stats"


def scale_scenarios(scale: ExperimentScale) -> List[Scenario]:
    """One scenario per large topology, at the preset's configured size."""
    return [
        Scenario(
            name=f"SCALE-{topology}",
            scale=scale,
            topology=topology,
            utilization=0.7,
            original="random",
            reference_gbps=1.0,
            replay_mode="lstf",
        )
        for topology in SCALE_TOPOLOGIES
    ]


def stats_row(scenario: Scenario, stats: ScheduleStatistics) -> Dict[str, object]:
    """One scenario's folded schedule statistics as a result row."""
    return {
        "scenario": scenario.name,
        "topology": scenario.topology,
        "mode": STATS_MODE,
        "packets": stats.packets,
        "mean_delay": stats.mean_delay,
        "p99_delay": stats.p99_delay,
        "max_delay": stats.max_delay,
        "deadline_flows": stats.deadline_total,
        "deadline_met_fraction": (
            stats.deadline_met_fraction if stats.deadline_total else None
        ),
    }


class ScaleDefinition(ScenarioExperimentDef):
    """Large-topology cells: sharded column-fold statistics plus a replay."""

    name = "scale"
    notes = (
        "Scale tier: Rocketfuel/fat-tree scenarios with streaming mergeable "
        "metrics over the sharded schedule cache; peak RSS and events/s are "
        "measured by benchmarks/perf, not in rows."
    )
    #: Two cells per scenario: folded stats, then the scenario's own replay.
    modes = (STATS_MODE, None)

    supports_replicates = True
    supports_shards = True

    def base_scenarios(self, scale: ExperimentScale) -> List[Scenario]:
        return scale_scenarios(scale)

    def row(self, scenario: Scenario, mode: str, result: ReplayResult) -> Dict[str, object]:
        """One scenario's replay comparison as a result row."""
        metrics = result.metrics
        return {
            "scenario": scenario.name,
            "topology": scenario.topology,
            "mode": mode,
            "packets": metrics.total_packets,
            "fraction_overdue": metrics.overdue_fraction,
            "fraction_overdue_beyond_T": metrics.overdue_beyond_threshold_fraction,
            "threshold": metrics.threshold,
            "delivered_fraction": metrics.delivered_fraction,
            "mean_lateness": metrics.mean_lateness,
            "max_lateness": metrics.max_lateness,
        }

    # ------------------------------------------------------------------ #
    # Whole-cell execution
    # ------------------------------------------------------------------ #
    def run_cell(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> CellResult:
        if cell.mode != STATS_MODE:
            return super().run_cell(cell, scale, cache)
        # Reference implementation of the shard partition: fold the
        # canonical order chunk-by-chunk with the same ``shard_packets``
        # chunking and shard-index-order merge the parallel path uses, so
        # both paths emit the same bits (a single-pass fold would differ in
        # the last bit of the float sums).
        cols = cached_schedule(cell.spec, cache).columns()
        step = cache.shard_packets
        partials = [
            self._partial(cols, start, start + step)
            for start in range(0, len(cols.packet_id), step) or (0,)  # empty: one empty partial
        ]
        return self.merge_shards(cell, scale, partials)

    @staticmethod
    def _partial(cols: ScheduleColumns, start: int, stop: int) -> dict:
        partial = StreamingScheduleStatistics()
        partial.fold(cols, start, stop)
        return partial.to_dict()

    # ------------------------------------------------------------------ #
    # Shard protocol (stats cells only)
    # ------------------------------------------------------------------ #
    def cell_shards(
        self, cell: Cell, scale: ExperimentScale, cache: ScheduleCache
    ) -> List[Any]:
        """Chunk the stats cell's canonical record order by ``shard_packets``.

        Replay cells return ``[]`` (the replay simulation itself cannot be
        split), as do stats cells that fit in a single chunk.  Each shard
        spec carries the on-disk shard file when the persisted entry's
        chunking matches the partition, so the worker can cursor the file
        without loading the whole schedule.
        """
        if cell.mode != STATS_MODE:
            return []
        scenario: Scenario = cell.spec
        key = scenario_cache_key(scenario)
        entry = cache.entry_path(key)
        if entry is None:
            # Record (and persist) the schedule now, so shard workers can
            # cursor the cache entry instead of re-recording per shard.
            cached_schedule(scenario, cache)
            entry = cache.entry_path(key)
        count = (
            stored_schedule_packets(str(entry))
            if entry is not None
            else len(cached_schedule(scenario, cache))
        )
        step = cache.shard_packets
        bounds = [
            (index, start, min(start + step, count))
            for index, start in enumerate(range(0, count, step))
        ]
        if len(bounds) <= 1:
            return []
        files: Dict[int, str] = {}
        if entry is not None and str(entry).endswith(MANIFEST_SUFFIX):
            manifest = load_manifest(str(entry))
            directory = os.path.dirname(str(entry))
            start = 0
            for index, shard in enumerate(manifest["shards"]):
                stop = start + int(shard["packets"])
                if index < len(bounds) and bounds[index][1:] == (start, stop):
                    files[index] = os.path.join(directory, shard["file"])
                start = stop
        return [
            {"index": index, "start": start, "stop": stop, "file": files.get(index)}
            for index, start, stop in bounds
        ]

    def run_cell_shard(
        self, cell: Cell, shard: Any, scale: ExperimentScale, cache: ScheduleCache
    ) -> Any:
        """Fold one shard's rows into a statistics partial."""
        if not shard["file"]:
            cols = cached_schedule(cell.spec, cache).columns()
            return self._partial(cols, shard["start"], shard["stop"])
        partial = StreamingScheduleStatistics()
        for cols in iter_schedule_columns(shard["file"]):
            partial.fold(cols)
        return partial.to_dict()

    def merge_shards(
        self, cell: Cell, scale: ExperimentScale, partials: List[Any]
    ) -> CellResult:
        """Fold partials in shard-index order and finalize the row."""
        merged = StreamingScheduleStatistics.from_dict(partials[0])
        for partial in partials[1:]:
            merged = merged.merge(StreamingScheduleStatistics.from_dict(partial))
        return CellResult(cell=cell, row=stats_row(cell.spec, merged.finalize()))


register_experiment(ScaleDefinition())
