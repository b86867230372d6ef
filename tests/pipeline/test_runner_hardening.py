"""Fault tolerance of the pipeline runner itself.

Covers the hardening contract: per-cell timeouts, bounded retry with
exponential backoff, structured error rows instead of aborted runs, and —
the hard case — recovery from a pool worker killed outright (SIGKILL breaks
the entire ``ProcessPoolExecutor``, failing every outstanding future).

The runner is one loop over two executors, so the contract is stated once
and run with ``workers`` as an input; only the SIGKILL cases need a pool.
"""

import gc
import json
import multiprocessing
import os
import sys
import time
import weakref

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ExperimentScale
from repro.experiments.config import ExperimentResult
from repro.pipeline import ScheduleCache, run_pipeline
from repro.pipeline import cache as cache_module
from repro.pipeline import runner as runner_module
from repro.pipeline.experiment import Cell, CellResult, ExperimentDef, ScenarioRegistry
from repro.pipeline.runner import CellError, CellTimeoutError, _cell_deadline

SMOKE = ExperimentScale.smoke()


class ScriptedDef(ExperimentDef):
    """Cells scripted by spec: fail or kill for the first N attempts.

    A shared sentinel file counts attempts across processes, so the cells
    are deterministic under both the serial and the pool runner.  Defined at
    module top level so fork-started pool workers can unpickle the cells.
    """

    name = "scripted"

    def __init__(self, specs):
        self._specs = tuple(specs)

    def cells(self, scale):
        return [
            Cell(self.name, spec["label"], "m", index, spec=tuple(sorted(spec.items())))
            for index, spec in enumerate(self._specs)
        ]

    @staticmethod
    def attempt(spec):
        """Count this attempt in the spec's sentinel; fail (or die) if scripted to."""
        sentinel = spec.get("sentinel")
        if sentinel is not None:
            with open(sentinel, "a") as handle:
                handle.write("x")
            attempts = os.path.getsize(sentinel)
            if attempts <= spec.get("fail_times", 0):
                if spec.get("kill"):
                    os.kill(os.getpid(), 9)
                raise RuntimeError(f"scripted failure #{attempts}")

    def run_cell(self, cell, scale, cache):
        spec = dict(cell.spec)
        self.attempt(spec)
        if spec.get("sleep"):
            time.sleep(spec["sleep"])
        return CellResult(cell=cell, row={"label": spec["label"]})

    def assemble(self, scale, results):
        return ExperimentResult(
            name=self.name,
            scale_label=scale.label,
            rows=[result.row for result in results],
        )


class ShardedScriptedDef(ScriptedDef):
    """Every cell splits into three shards; the spec scripts the middle one."""

    supports_shards = True

    def cell_shards(self, cell, scale, cache):
        return [0, 1, 2]

    def run_cell_shard(self, cell, shard, scale, cache):
        if shard == 1:
            self.attempt(dict(cell.spec))
        return shard

    def merge_shards(self, cell, scale, partials):
        return CellResult(
            cell=cell, row={"label": dict(cell.spec)["label"], "shards": partials}
        )


def registry(*specs, definition=ScriptedDef):
    reg = ScenarioRegistry()
    reg.register(definition(specs))
    return reg


def run(reg, **kwargs):
    kwargs.setdefault("retry_backoff", 0.01)
    return run_pipeline(["scripted"], scale=SMOKE, registry=reg, **kwargs)


def labels(summary):
    return [row["label"] for row in summary.results["scripted"].rows]


class TestCellDeadline:
    def test_deadline_raises_inside_window(self):
        with pytest.raises(CellTimeoutError, match="timeout"):
            with _cell_deadline(0.05):
                time.sleep(2)

    def test_deadline_disarmed_after_body(self):
        with _cell_deadline(0.05):
            pass
        time.sleep(0.1)  # the timer must not fire late

    def test_none_is_no_timeout(self):
        with _cell_deadline(None):
            time.sleep(0.01)

    def test_a_swallowed_alarm_does_not_lose_the_deadline(self, monkeypatch):
        """The handler's raise can land where Python cannot propagate it — here
        a ``gc.callbacks`` function — and is then only reported as unraisable."""
        swallowed = []
        monkeypatch.setattr(sys, "unraisablehook", swallowed.append)

        def outlasts_the_first_alarm(phase, info):
            until = time.monotonic() + 0.2
            while not swallowed and time.monotonic() < until:
                pass

        gc.callbacks.append(outlasts_the_first_alarm)
        try:
            with pytest.raises(CellTimeoutError, match="timeout"):
                with _cell_deadline(0.05):
                    gc.collect()
                    time.sleep(1)  # with a one-shot alarm: sleeps on, deadline lost
        finally:
            gc.callbacks.remove(outlasts_the_first_alarm)
        assert swallowed and {each.exc_type for each in swallowed} == {CellTimeoutError}

    def test_a_body_ending_between_swallowed_alarms_still_times_out(self, monkeypatch):
        """The first raise is swallowed and the body ends before the alarm
        repeats: it outlived its deadline all the same."""
        swallowed = []
        monkeypatch.setattr(sys, "unraisablehook", swallowed.append)

        def swallows_the_first_alarm(phase, info):
            until = time.monotonic() + 0.2
            while not swallowed and time.monotonic() < until:
                pass

        gc.callbacks.append(swallows_the_first_alarm)
        try:
            with pytest.raises(CellTimeoutError, match="timeout"):
                with _cell_deadline(0.01):
                    # Youngest generation only: a full collection of a large
                    # test session's heap can outlast the 50 ms before the repeat.
                    gc.collect(0)  # returns inside the 50 ms before the repeat
        finally:
            gc.callbacks.remove(swallows_the_first_alarm)
        assert [each.exc_type for each in swallowed] == [CellTimeoutError]


@pytest.mark.parametrize("workers", [1, 2])
class TestHardening:
    """The one-loop contract.  Every case has two cells, so ``workers=2``
    really runs on a pool (a single-cell run executes in-process)."""

    def test_failure_becomes_error_row(self, tmp_path, workers):
        reg = registry(
            {"label": "bad", "sentinel": str(tmp_path / "s1"), "fail_times": 99},
            {"label": "good"},
        )
        summary = run(reg, workers=workers)
        assert summary.workers == workers
        assert labels(summary) == ["good"]
        [error] = summary.errors
        assert error.label == "bad"
        assert error.error_type == "RuntimeError"
        assert "scripted failure" in error.traceback
        assert error.attempts == 1
        assert "FAILED" in summary.format()

    def test_retry_succeeds_next_round(self, tmp_path, workers):
        reg = registry(
            {"label": "flaky", "sentinel": str(tmp_path / "s1"), "fail_times": 1},
            {"label": "steady"},
        )
        summary = run(reg, workers=workers, max_retries=2)
        assert not summary.errors
        assert labels(summary) == ["flaky", "steady"]

    def test_timeout_is_captured(self, workers):
        reg = registry({"label": "slow", "sleep": 5.0}, {"label": "fast"})
        summary = run(reg, workers=workers, cell_timeout=0.2)
        [error] = summary.errors
        assert error.error_type == "CellTimeoutError"
        assert labels(summary) == ["fast"]

    def test_attempts_count_rounds(self, tmp_path, workers):
        reg = registry(
            {"label": "doomed", "sentinel": str(tmp_path / "s1"), "fail_times": 99},
            {"label": "survivor"},
        )
        summary = run(reg, workers=workers, max_retries=1)
        [error] = summary.errors
        assert error.label == "doomed"
        assert error.attempts == 2
        assert labels(summary) == ["survivor"]

    def test_completed_cells_never_rerun(self, tmp_path, workers):
        """A steady cell beside a flaky one runs exactly once across rounds."""
        flaky, steady = tmp_path / "flaky", tmp_path / "steady"
        reg = registry(
            {"label": "flaky", "sentinel": str(flaky), "fail_times": 2},
            {"label": "steady", "sentinel": str(steady)},
        )
        summary = run(reg, workers=workers, max_retries=2)
        assert not summary.errors
        assert labels(summary) == ["flaky", "steady"]
        assert os.path.getsize(flaky) == 3
        assert os.path.getsize(steady) == 1

    def test_failed_shard_reruns_its_cell_next_round(self, tmp_path, workers):
        """With a shared disk cache a pool runs each shard as its own task;
        one failed shard must leave the cell retryable, not lost."""
        reg = registry(
            {"label": "flaky", "sentinel": str(tmp_path / "s1"), "fail_times": 1},
            {"label": "steady"},
            definition=ShardedScriptedDef,
        )
        summary = run(
            reg, workers=workers, max_retries=1, cache_dir=str(tmp_path / "cache")
        )
        assert not summary.errors
        assert summary.results["scripted"].rows == [
            {"label": "flaky", "shards": [0, 1, 2]},
            {"label": "steady", "shards": [0, 1, 2]},
        ]


class TestParallelHardening:
    """SIGKILL recovery needs a real pool: only a dead worker breaks one."""

    def test_sigkilled_worker_recovers_with_identical_rows(self, tmp_path):
        """A SIGKILL'd worker breaks the whole pool; the retry round's fresh
        pool must complete the run with rows identical to a serial run."""
        specs = [
            {"label": "victim", "sentinel": str(tmp_path / "kill"), "fail_times": 1,
             "kill": True},
            {"label": "b1"},
            {"label": "b2"},
            {"label": "b3"},
        ]
        parallel = run(registry(*specs), workers=2, max_retries=2)
        assert not parallel.errors
        serial_specs = [dict(spec, fail_times=0) for spec in specs]
        serial = run(registry(*serial_specs), workers=1)
        assert labels(parallel) == labels(serial)

    def test_exhausted_retries_report_and_spare_survivors(self, tmp_path):
        reg = registry(
            {"label": "doomed", "sentinel": str(tmp_path / "kill"), "fail_times": 99,
             "kill": True},
            {"label": "survivor"},
        )
        summary = run(reg, workers=2, max_retries=1)
        [error] = summary.errors
        assert error.label == "doomed"
        assert error.attempts == 2
        assert labels(summary) == ["survivor"]


class TestOneLoopAccounting:
    @pytest.mark.parametrize("disk", [False, True], ids=["no-cache-dir", "cache-dir"])
    def test_cold_cache_misses_do_not_depend_on_workers(self, tmp_path, disk):
        """Every schedule key of the group misses exactly once: a serial cell
        records it as it goes, a pool's task per recording key stores it.
        Without a disk cache the key's first cell records, so the hits and
        the recordings match too; with one the pool stores up front, every
        cell's lookup hits, and one recording serves every key of its
        original (``records_computed`` counts recordings, not misses)."""
        counts = {
            workers: run_pipeline(
                ["faults"], scale=SMOKE, workers=workers,
                cache_dir=str(tmp_path / f"w{workers}") if disk else None,
            )
            for workers in (1, 2)
        }
        serial, pooled = counts[1], counts[2]
        assert pooled.workers == 2
        assert serial.cache_misses == pooled.cache_misses > 0
        assert serial.records_computed == serial.cache_misses
        if not disk:
            assert serial.cache_hits == pooled.cache_hits
            assert pooled.records_computed == pooled.cache_misses
        else:
            assert pooled.records_computed == 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched loader reaches pool workers only through fork",
    )
    def test_a_cold_pooled_run_decodes_nothing_it_recorded(self, tmp_path, monkeypatch):
        """A key's task records the schedule, then replays every cell of the
        key from that worker's memory: no cell reads the entry back."""
        calls = tmp_path / "load_schedule.calls"
        real_load = cache_module.load_schedule

        def counted_load(*args, **kwargs):
            with open(calls, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real_load(*args, **kwargs)

        def rows(workers, cache_dir):
            summary = run_pipeline(
                ["faults"], scale=SMOKE, workers=workers, cache_dir=str(cache_dir)
            )
            assert not summary.errors and summary.workers == workers
            return summary.results["faults"].rows

        serial = rows(1, tmp_path / "serial")
        monkeypatch.setattr(cache_module, "load_schedule", counted_load)
        pooled = rows(2, tmp_path / "pooled")
        assert not calls.exists()
        assert pooled == serial

    def test_in_process_cache_is_released_with_the_run(self, monkeypatch):
        """The ``workers=1`` executor owns the run's cache; nothing — no module
        global in particular — may keep it (and its schedules) alive after."""
        created = []

        class TrackedCache(ScheduleCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(weakref.ref(self))

        monkeypatch.setattr(runner_module, "ScheduleCache", TrackedCache)
        summary = run_pipeline(["table1-priority"], scale=SMOKE, workers=1)
        assert summary.cache_misses == 1
        gc.collect()
        assert created and all(ref() is None for ref in created)


class TestCellErrorShape:
    def test_to_dict_is_json_serializable(self):
        error = CellError(
            cell_id="x/y/z/s1", experiment="x", label="y", mode="z", seed=1,
            error_type="RuntimeError", message="boom", traceback="tb",
            attempts=2,
        )
        payload = json.loads(json.dumps(error.to_dict()))
        assert payload["cell_id"] == "x/y/z/s1"
        assert payload["phase"] == "run"


class TestCliErrorSurface:
    def test_run_with_failed_cells_exits_nonzero_with_errors_payload(
        self, tmp_path, capsys
    ):
        """--cell-timeout small enough to kill a real experiment's cells: the
        CLI must finish, emit the errors in the JSON payload, and exit 1."""
        code = cli_main(
            [
                "run", "figure3", "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache"),
                "--cell-timeout", "0.0001", "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["errors"]
        assert payload["errors"][0]["error_type"] == "CellTimeoutError"
        assert "failed after" in captured.err

    def test_clean_run_has_empty_errors_list(self, tmp_path, capsys):
        code = cli_main(
            [
                "run", "figure3", "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache"),
                "--max-retries", "1", "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["errors"] == []
