"""Tests for the parallel experiment pipeline (scenarios, cache, runner, CLI)."""

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ExperimentScale
from repro.pipeline import (
    ScheduleCache,
    default_registry,
    replay_scenario,
    run_pipeline,
    schedule_cache_key,
)
from repro.pipeline.experiment import ScenarioExperimentDef, ScenarioRegistry, scenario_cache_key
from repro.pipeline.scenario import (
    PipelineConfigError,
    Scenario,
    Sweep,
    expand_replicates,
)
from repro.utils.rng import stable_seed

SMOKE = ExperimentScale.smoke()
#: A cheap experiment subset that still exercises record/replay, schedule
#: sharing across modes, and a direct-simulation experiment.
SUBSET = ["table1-priority", "ablation-edf", "figure3"]


# --------------------------------------------------------------------- #
# Scenario / Sweep
# --------------------------------------------------------------------- #
class TestScenario:
    def test_derived_quantities(self):
        scenario = Scenario(
            name="x", scale=SMOKE, seed_offset=3, duration_scale=0.5, reference_gbps=2.0
        )
        assert scenario.seed == SMOKE.seed + 3
        assert scenario.duration == pytest.approx(SMOKE.duration * 0.5)
        assert scenario.reference_bandwidth_bps == pytest.approx(
            SMOKE.scaled_bandwidth(2.0)
        )

    def test_seed_override_wins(self):
        scenario = Scenario(name="x", scale=SMOKE, seed_offset=3).with_seed(99, "#r1")
        assert scenario.seed == 99
        assert scenario.name == "x#r1"

    def test_build_topology_by_name(self):
        scenario = Scenario(name="x", scale=SMOKE, topology="fattree")
        assert len(scenario.build_topology().host_names()) == SMOKE.fattree_k ** 3 // 4

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="no topology builder"):
            Scenario(name="x", scale=SMOKE, topology="label").build_topology()

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            Scenario(name="x", scale=SMOKE, workload_name="nope").workload()

    def test_scenarios_are_picklable_and_hashable(self):
        import pickle

        scenario = Scenario(name="x", scale=SMOKE)
        assert pickle.loads(pickle.dumps(scenario)) == scenario
        assert hash(scenario) == hash(Scenario(name="x", scale=SMOKE))

    def test_sweep_expansion(self):
        base = Scenario(name="base", scale=SMOKE)
        sweep = Sweep(base=base, parameter="utilization", values=(0.1, 0.9))
        expanded = sweep.scenarios()
        assert [s.utilization for s in expanded] == [0.1, 0.9]
        assert expanded[0].name == "base[utilization=0.1]"

    def test_stable_seed_is_deterministic_and_distinct(self):
        assert stable_seed(1, "a", 0) == stable_seed(1, "a", 0)
        assert stable_seed(1, "a", 0) != stable_seed(1, "a", 1)

    def test_expand_replicates_keeps_first_seed(self):
        base = Scenario(name="x", scale=SMOKE)
        expanded = expand_replicates([base], 3)
        assert len(expanded) == 3
        assert expanded[0].seed == base.seed
        assert len({s.seed for s in expanded}) == 3


# --------------------------------------------------------------------- #
# Cache
# --------------------------------------------------------------------- #
class TestScheduleCache:
    def _scenario(self, **overrides):
        defaults = dict(name="cache-test", scale=SMOKE, utilization=0.5)
        defaults.update(overrides)
        return Scenario(**defaults)

    def test_key_is_sensitive_to_inputs(self):
        scenario = self._scenario()
        topo, load = scenario.build_topology(), scenario.workload()
        base = schedule_cache_key(topo, "random", load, 1)
        assert schedule_cache_key(topo, "random", load, 1) == base
        assert schedule_cache_key(topo, "fifo", load, 1) != base
        assert schedule_cache_key(topo, "random", load, 2) != base
        other_load = self._scenario(utilization=0.6).workload()
        assert schedule_cache_key(topo, "random", other_load, 1) != base

    def test_memory_layer_hits(self):
        cache = ScheduleCache()
        scenario = self._scenario()
        replay_scenario(scenario, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 1, "corrupt_entries": 0}
        replay_scenario(scenario, mode="priority", cache=cache)
        assert cache.stats() == {"hits": 1, "misses": 1, "corrupt_entries": 0}

    def test_disk_layer_survives_processes(self, tmp_path):
        scenario = self._scenario()
        first = ScheduleCache(tmp_path)
        replay_scenario(scenario, cache=first)
        assert first.misses == 1
        assert first.disk_entries() == 1
        # A brand-new cache instance (as a pool worker would create) must hit
        # the disk layer instead of re-recording.
        second = ScheduleCache(tmp_path)
        replay_scenario(scenario, cache=second)
        assert second.stats() == {"hits": 1, "misses": 0, "corrupt_entries": 0}


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        names = set(default_registry().names())
        assert {
            "table1",
            "table1-priority",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "ablation-preemption",
            "ablation-edf",
            "ablation-omniscient",
        } <= names

    def test_unknown_experiment_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            default_registry().get("tableX")

    def test_cells_are_picklable(self):
        import pickle

        for definition in default_registry():
            for cell in definition.cells(SMOKE):
                assert pickle.loads(pickle.dumps(cell)) == cell


class FifoVsLstfDefinition(ScenarioExperimentDef):
    """The docs' "Adding an experiment" example (module level: pool workers
    unpickle it by import path)."""

    name = "fifo-vs-lstf"
    modes = ("fifo", "lstf")
    supports_workload = supports_replicates = True

    def base_scenarios(self, scale):
        return [
            Scenario(name=f"FVL@{u:g}", scale=scale, utilization=u) for u in (0.5, 0.9)
        ]

    def row(self, scenario, mode, result):
        return {
            "scenario": scenario.name,
            "replay_mode": mode,
            "fraction_overdue": result.overdue_fraction,
        }


class TestScenarioExperimentBase:
    def test_a_declaration_is_a_runnable_experiment(self, tmp_path):
        registry = ScenarioRegistry()
        registry.register(FifoVsLstfDefinition())
        runs = [
            run_pipeline(
                ["fifo-vs-lstf"], scale=SMOKE, registry=registry, workers=workers,
                cache_dir=str(tmp_path / f"w{workers}"),
            )
            for workers in (1, 2)
        ]
        rows = runs[0].results["fifo-vs-lstf"].rows
        assert [(row["scenario"], row["replay_mode"]) for row in rows] == [
            ("FVL@0.5", "fifo"), ("FVL@0.5", "lstf"), ("FVL@0.9", "fifo"), ("FVL@0.9", "lstf"),
        ]
        assert rows == runs[1].results["fifo-vs-lstf"].rows
        # Both modes of a scenario replay one recording.
        assert [run.cache_misses for run in runs] == [2, 2]

    def test_overrides_apply_in_one_order_and_modes_default_to_the_scenario(self):
        class Plain(FifoVsLstfDefinition):
            modes = (None,)

        definition = Plain(
            replicates=2, workload="web-search", slack_policy="zero", faults="loss-1pct"
        )
        cells = definition.cells(SMOKE)
        assert [cell.label for cell in cells[:2]] == [
            "FVL@0.5+fault:loss-1pct+web-search+slack:zero",
            "FVL@0.5+fault:loss-1pct+web-search+slack:zero#r1",
        ]
        assert {cell.mode for cell in cells} == {"lstf"}
        explicit = Plain(scenarios=(Scenario(name="only", scale=SMOKE, replay_mode="edf"),))
        assert [(c.label, c.mode) for c in explicit.cells(SMOKE)] == [("only", "edf")]

    def test_unknown_constructor_attribute_is_a_type_error(self):
        with pytest.raises(TypeError, match="replicats"):
            FifoVsLstfDefinition(replicats=2)


# --------------------------------------------------------------------- #
# Runner: parallel == serial, warm cache == zero re-records
# --------------------------------------------------------------------- #
class TestRunner:
    def test_parallel_rows_identical_to_serial(self, tmp_path):
        serial = run_pipeline(SUBSET, scale=SMOKE, workers=1)
        parallel = run_pipeline(SUBSET, scale=SMOKE, workers=4)
        assert parallel.workers == 4
        for name in SUBSET:
            assert serial.results[name].rows == parallel.results[name].rows

    def test_run_all_parallel_matches_serial(self, tmp_path):
        serial = run_pipeline(SUBSET, scale=SMOKE).results
        parallel = run_pipeline(
            SUBSET, scale=SMOKE, workers=4, cache_dir=str(tmp_path / "cache")
        ).results
        assert {
            name: result.rows for name, result in serial.items()
        } == {name: result.rows for name, result in parallel.items()}

    def test_warm_cache_records_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_pipeline(
            ["table1-priority", "ablation-edf"], scale=SMOKE, workers=1, cache_dir=cache_dir
        )
        assert cold.records_computed >= 1
        warm = run_pipeline(
            ["table1-priority", "ablation-edf"], scale=SMOKE, workers=4, cache_dir=cache_dir
        )
        assert warm.records_computed == 0
        assert warm.cache_hits == warm.cells  # every replay cell hit the cache
        for name in ("table1-priority", "ablation-edf"):
            assert cold.results[name].rows == warm.results[name].rows

    def test_modes_share_one_recording(self):
        summary = run_pipeline(["table1-priority"], scale=SMOKE, workers=1)
        # Two replay modes, one scenario: exactly one schedule recorded.
        assert summary.cells == 2
        assert summary.records_computed == 1
        assert summary.cache_hits == 1

    def test_replicates_expand_cells_and_keep_base_rows(self):
        single = run_pipeline(["ablation-edf"], scale=SMOKE, workers=1)
        doubled = run_pipeline(["ablation-edf"], scale=SMOKE, workers=1, replicates=2)
        assert doubled.cells == 2 * single.cells
        # Replicated runs add a "scenario" column carrying the #rN suffix so
        # the rows are distinguishable; replicate 0 must reproduce the
        # single-seed rows exactly once that column is set aside.
        base_rows = [
            {key: value for key, value in row.items() if key != "scenario"}
            for row in doubled.results["ablation-edf"].rows
            if "#r" not in str(row.get("scenario", ""))
        ]
        assert single.results["ablation-edf"].rows == base_rows

    def test_replicates_note_for_unsupported_experiments(self):
        summary = run_pipeline(["figure3"], scale=SMOKE, workers=1, replicates=2)
        assert any("figure3" in note for note in summary.notes)
        assert "figure3" in summary.format()

    def test_unsupported_override_notes_keep_their_text_and_order(self):
        summary = run_pipeline(
            ["figure4"], scale=SMOKE, replicates=2, workload="web-search",
            slack_policy="zero", faults="loss-1pct",
        )
        assert summary.notes == [
            "replicates=2 not supported by: figure4 (those experiments ran single-seed)",
            "workload='web-search' not supported by: figure4 "
            "(those experiments kept their own workloads)",
            "slack_policy='zero' not supported by: figure4 "
            "(those experiments kept their default replay initialization)",
            "faults='loss-1pct' not supported by: figure4 "
            "(those experiments replayed fault-free)",
        ]
        assert summary.results["figure4"].aggregates == []

    def test_unknown_name_raises_before_running(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_pipeline(["tableX"], scale=SMOKE)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock speedup needs a multi-core machine",
    )
    def test_parallel_speedup_on_multicore(self, tmp_path):
        scale = ExperimentScale.quick()
        serial = run_pipeline(["table1"], scale=scale, workers=1)
        parallel = run_pipeline(["table1"], scale=scale, workers=4)
        assert serial.results["table1"].rows == parallel.results["table1"].rows
        assert parallel.wall_time < serial.wall_time / 1.5


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure4" in out
        assert "I2-1G-10G@70" in out  # scenario labels for `record`

    def test_run_json_reports_cache_counters(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "ablation-omniscient",
                "--scale",
                "smoke",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["_summary"]["records_computed"] == 1
        rows = payload["ablation-omniscient"]["rows"]
        assert rows[0]["replay_mode"] == "omniscient"
        assert rows[0]["fraction_overdue"] == 0.0

    def test_run_rejects_unknown_experiment(self, tmp_path, capsys):
        code = cli_main(
            ["run", "tableX", "--scale", "smoke", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, flag, complaint",
        [
            # Below 1 used to run single-seed without a word.
            ("replicates", 0, "--replicates", "replicates must be >= 1, got 0"),
            ("replicates", -2, "--replicates", "replicates must be >= 1, got -2"),
            ("shard_packets", 0, "--shard-packets", "shard_packets must be >= 1, got 0"),
            ("cell_timeout", -1.0, "--cell-timeout", "cell_timeout must be > 0, got -1.0"),
            # setitimer(0) disarms: zero used to mean "no deadline", silently.
            ("cell_timeout", 0.0, "--cell-timeout", "cell_timeout must be > 0, got 0.0"),
            ("max_retries", -1, "--max-retries", "max_retries must be >= 0, got -1"),
            ("retry_backoff", -0.5, None, "retry_backoff must be >= 0, got -0.5"),
        ],
        ids=[
            "replicates=0", "replicates=-2", "shard-packets=0", "cell-timeout=-1",
            "cell-timeout=0", "max-retries=-1", "backoff=-0.5",
        ],
    )
    def test_run_rejects_out_of_range_options(
        self, tmp_path, capsys, option, value, flag, complaint
    ):
        """One check, in ``run_pipeline``: the API raises it, the CLI prints it and exits 2."""
        with pytest.raises(PipelineConfigError) as raised:
            run_pipeline(["table1-priority"], scale=SMOKE, **{option: value})
        assert str(raised.value) == complaint
        if flag is None:  # no such CLI flag
            return
        argv = ["run", "table1-priority", "--scale", "smoke", "--cache-dir", str(tmp_path / "c")]
        assert cli_main(argv + [flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {complaint}\n"
        assert captured.out == ""  # nothing ran

    def test_record_then_replay(self, tmp_path, capsys):
        out_file = str(tmp_path / "sched.jsonl.gz")
        assert cli_main(["record", "I2-1G-10G@70", "--scale", "smoke", "--out", out_file]) == 0
        assert os.path.exists(out_file)
        capsys.readouterr()
        assert cli_main(["replay", out_file, "--mode", "omniscient", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["scenario"] == "I2-1G-10G@70"
        assert row["fraction_overdue"] == 0.0  # omniscient replay is perfect

    def test_record_stamps_the_cache_key_of_every_scenario(self, tmp_path):
        # The key in the file must be the key the cache stores the same
        # recording under — including the fault fingerprint of FLT-* rows.
        from repro.__main__ import _replay_scenarios
        from repro.core.schedule import load_schedule

        out_file = str(tmp_path / "sched.jsonl.gz")
        scenarios = _replay_scenarios(SMOKE)
        assert any(scenario.fault_plan() is not None for scenario in scenarios.values())
        for name, scenario in scenarios.items():
            assert cli_main(["record", name, "--scale", "smoke", "--out", out_file]) == 0
            _, meta = load_schedule(out_file)
            assert meta["key"] == scenario_cache_key(scenario), name

    def test_record_rejects_unknown_scenario(self, capsys):
        assert cli_main(["record", "no-such-row", "--scale", "smoke"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
