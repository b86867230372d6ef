"""A serial run's disk-cache writes, handed to one writer process.

``run_pipeline(workers=1, cache_dir=...)`` records each schedule, keeps it in
memory and queues its disk write on a one-process executor; the cell replays
at once.  These tests hold the writer to the inline write's contract: the same
bytes on disk, one recording per key, the same warnings when a write is lost,
and nothing left running after the run.
"""

import gzip
import logging
import multiprocessing
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor

import pytest

from repro.core.schedule import load_schedule
from repro.experiments import ExperimentScale
from repro.pipeline import (
    Scenario,
    ScheduleCache,
    cached_schedule,
    default_registry,
    run_pipeline,
    scenario_cache_key,
)
from repro.pipeline import experiment as experiment_module
from repro.pipeline import runner as runner_module
from repro.pipeline.experiment import ScenarioExperimentDef, ScenarioRegistry
from repro.pipeline.runner import CellTimeoutError, _cell_deadline

SMOKE = ExperimentScale.smoke()


def table1_scenarios():
    """Each distinct scenario of the table1 group, in cell order."""
    cells = default_registry().get("table1").cells(SMOKE)
    return list(dict.fromkeys(cell.spec for cell in cells))


def lost_writes(caplog):
    return [r for r in caplog.records if "cannot persist" in r.getMessage()]


class TestColdSerialRun:
    def test_every_entry_lands_with_the_inline_bytes(self, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.pipeline.cache"):
            summary = run_pipeline(["table1"], scale=SMOKE, cache_dir=str(tmp_path / "writer"))
        assert not summary.errors
        assert multiprocessing.active_children() == []
        scenarios = table1_scenarios()
        assert summary.cache_misses == len(scenarios)
        landed = [r.args for r in caplog.records if r.getMessage().startswith("persisted")]
        assert sorted(key for key, _, _ in landed) == sorted(map(scenario_cache_key, scenarios))

        written, inline = ScheduleCache(tmp_path / "writer"), ScheduleCache(tmp_path / "inline")
        for scenario in scenarios:
            cached_schedule(scenario, inline)
            key = scenario_cache_key(scenario)
            ours, theirs = written.entry_path(key), inline.entry_path(key)
            assert ours is not None
            assert gzip.decompress(ours.read_bytes()) == gzip.decompress(theirs.read_bytes())
            assert load_schedule(ours)[0].columns() == load_schedule(theirs)[0].columns()

    def test_only_a_recording_run_uses_the_writer(self, tmp_path, monkeypatch):
        """The executor starts its process at the first write: a warm run,
        which writes nothing, never starts one."""
        submitted = []

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(fn.__name__)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", CountingPool)
        cache_dir = str(tmp_path / "cache")
        cold = run_pipeline(["table1-priority"], scale=SMOKE, cache_dir=cache_dir)
        assert submitted == ["_save_columns"] * cold.cache_misses
        warm = run_pipeline(["table1-priority"], scale=SMOKE, cache_dir=cache_dir)
        assert warm.cache_misses == 0
        assert submitted == ["_save_columns"] * cold.cache_misses


class Recurring(ScenarioExperimentDef):
    """Nine distinct schedules, then the first again: more keys than the
    serial run's 8-entry memory layer holds between the first's two uses."""

    name = "recurring"

    def base_scenarios(self, scale):
        first, *rest = [
            Scenario(name=f"r{offset}", scale=scale, utilization=0.5, seed_offset=offset)
            for offset in range(9)
        ]
        return [first, *rest, first]

    def row(self, scenario, mode, result):
        return {"label": scenario.name, "overdue": result.overdue_fraction}


class TestOneRecordingPerKey:
    def test_a_key_that_left_memory_is_loaded_back_not_recorded(self, tmp_path):
        registry = ScenarioRegistry()
        registry.register(Recurring())
        summary = run_pipeline(
            ["recurring"], scale=SMOKE, registry=registry, cache_dir=str(tmp_path)
        )
        rows = summary.results["recurring"].rows
        assert (summary.cache_misses, summary.cache_hits) == (9, 1)
        assert rows[-1] == rows[0]

    def test_a_deadline_during_the_wait_leaves_the_entry_loadable(self, tmp_path):
        first, second = (
            Scenario(name=f"w{offset}", scale=SMOKE, utilization=0.5, seed_offset=offset)
            for offset in range(2)
        )
        with ProcessPoolExecutor(max_workers=1) as writer:
            writer.submit(time.sleep, 1.0)  # the cache's writes queue behind this
            cache = ScheduleCache(tmp_path, memory_entries=1, writer=writer)
            recorded = cached_schedule(first, cache)
            cached_schedule(second, cache)  # evicts the first from memory
            with pytest.raises(CellTimeoutError):
                with _cell_deadline(0.05):
                    cache.entry_path(scenario_cache_key(first))
            again = cached_schedule(first, cache)  # the retry waits for the same write
            cache.flush()
        assert cache.stats() == {"hits": 1, "misses": 2, "corrupt_entries": 0}
        assert again.columns() == recorded.columns()


class TestLostWrites:
    """A write that fails loses the entry, never a row or a counter."""

    def reference(self):
        return run_pipeline(["table1"], scale=SMOKE)

    def test_an_unwritable_cache_dir_warns_per_entry(self, tmp_path, caplog):
        # A regular file where the cache's subdirectories must go: every
        # write fails with an OSError, whoever runs the suite (root included).
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.cache"):
            summary = run_pipeline(["table1"], scale=SMOKE, cache_dir=str(blocker / "cache"))
        reference = self.reference()
        assert summary.results["table1"].rows == reference.results["table1"].rows
        assert (summary.cache_hits, summary.cache_misses) == (
            reference.cache_hits,
            reference.cache_misses,
        )
        assert len(lost_writes(caplog)) == summary.cache_misses

    @pytest.mark.parametrize(
        "error, lost", [(PermissionError(13, "Permission denied"), True), (TypeError("bug"), False)]
    )
    def test_flush_raises_only_what_does_not_lose_an_entry(self, tmp_path, caplog, error, lost):
        class FailingWriter(Executor):
            def submit(self, fn, *args, **kwargs):
                future = Future()
                future.set_exception(error)
                return future

        cache = ScheduleCache(tmp_path, writer=FailingWriter())
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.cache"):
            cached_schedule(Scenario(name="f", scale=SMOKE, utilization=0.5), cache)
        assert len(lost_writes(caplog)) == int(lost)
        if lost:
            cache.flush()
        else:
            with pytest.raises(TypeError, match="bug"):
                cache.flush()

    def test_a_killed_writer_warns_per_lost_entry(self, tmp_path, caplog, monkeypatch):
        real_record = experiment_module.record_scenario_schedule

        def kill_the_writer_then_record(*args, **kwargs):
            for child in multiprocessing.active_children():
                child.kill()
            return real_record(*args, **kwargs)

        monkeypatch.setattr(
            experiment_module, "record_scenario_schedule", kill_the_writer_then_record
        )
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.cache"):
            summary = run_pipeline(["table1"], scale=SMOKE, cache_dir=str(tmp_path))
        monkeypatch.undo()
        reference = self.reference()
        assert not summary.errors
        assert summary.results["table1"].rows == reference.results["table1"].rows
        assert summary.cache_misses == reference.cache_misses
        lost = lost_writes(caplog)
        assert lost
        assert len(lost) + ScheduleCache(tmp_path).disk_entries() == summary.cache_misses
        assert multiprocessing.active_children() == []
