"""Tests for the workload subsystem's pipeline integration.

Covers the acceptance criteria of the pluggable-workload refactor:

* every pre-refactor scenario's schedule-cache key is unchanged (pinned
  against golden keys captured from the pre-refactor code), so warm caches
  stay warm across the refactor;
* cold parallel runs record each (topology, scheduler, workload, seed) key
  exactly once (one pool task per schedule key);
* the adversarial experiment group is registered, runs with replay metrics
  per scenario, and is row-for-row identical in parallel and serial runs;
* ``--replicates`` emits mean/stddev/95% CI aggregates;
* the CLI exposes the workload registry and workload overrides.
"""

import json
import os
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ExperimentScale
from repro.pipeline import (
    ScheduleCache,
    default_registry,
    override_workload,
    run_pipeline,
    scenario_cache_key,
)
from repro.pipeline.scenario import Scenario
from repro.traffic import WORKLOADS

SMOKE = ExperimentScale.smoke()
GOLDEN_KEYS_PATH = Path(__file__).parent.parent / "data" / "golden_cache_keys.json"

#: Experiments whose cells all replay the *same* default scenario schedule.
SHARED_SCHEDULE_EXPERIMENTS = ["table1-priority", "ablation-edf", "ablation-omniscient"]


def _replay_scenarios(scale):
    from repro.__main__ import _replay_scenarios as lister

    return lister(scale)


# --------------------------------------------------------------------- #
# Cache-key stability across the registry refactor
# --------------------------------------------------------------------- #
class TestCacheKeyStability:
    def test_all_pre_refactor_scenario_keys_unchanged(self):
        """Keys captured from the pre-refactor WORKLOAD_FACTORIES code must
        be bit-identical under the registry-backed workload subsystem."""
        golden = json.loads(GOLDEN_KEYS_PATH.read_text())
        assert golden, "golden key fixture is empty"
        checked = 0
        for scale_name, scale in (("smoke", SMOKE), ("quick", ExperimentScale.quick())):
            scenarios = _replay_scenarios(scale)
            for label, key in golden.items():
                prefix, _, name = label.partition("/")
                if prefix != scale_name:
                    continue
                assert name in scenarios, f"pre-refactor scenario {name} disappeared"
                assert scenario_cache_key(scenarios[name]) == key, name
                checked += 1
        assert checked == len(golden)

    def test_warm_cache_from_pre_refactor_record_re_records_nothing(self, tmp_path):
        """A disk entry stored under the pre-refactor key is found warm."""
        golden = json.loads(GOLDEN_KEYS_PATH.read_text())
        cache_dir = tmp_path / "cache"
        cold = run_pipeline(["table1-priority"], scale=SMOKE, cache_dir=str(cache_dir))
        assert cold.records_computed == 1
        # The entry landed under the exact key the pre-refactor code used...
        key = golden["smoke/I2-1G-10G@70"]
        assert ScheduleCache(cache_dir).path_for(key).exists()
        # ...so replaying against it re-records zero cells.
        warm = run_pipeline(["table1-priority"], scale=SMOKE, cache_dir=str(cache_dir))
        assert warm.records_computed == 0
        assert cold.results["table1-priority"].rows == warm.results["table1-priority"].rows

    def test_perturbed_workloads_never_share_unperturbed_keys(self):
        base = Scenario(name="x", scale=SMOKE, workload_name="paper-default")
        perturbed = Scenario(name="x", scale=SMOKE, workload_name="heavy-tail-extreme")
        assert scenario_cache_key(base) != scenario_cache_key(perturbed)

    def test_workloads_come_from_the_registry(self):
        for name in WORKLOADS.names():
            scenario = Scenario(name="x", scale=SMOKE, workload_name=name)
            assert scenario.workload().size_distribution.mean() > 0
        with pytest.raises(KeyError):
            Scenario(name="x", scale=SMOKE, workload_name="nope").workload()


class TestFaultPlanCacheKeys:
    """The fault layer's cache-key contract: absent or empty plans leave
    every key bit-identical; only a non-empty plan perturbs it."""

    def test_empty_fault_schedule_leaves_key_bit_identical(self):
        base = Scenario(name="x", scale=SMOKE, utilization=0.5)
        empty = Scenario(name="x", scale=SMOKE, utilization=0.5, faults="empty")
        seeded = Scenario(
            name="x", scale=SMOKE, utilization=0.5, faults="empty", fault_seed=99
        )
        assert scenario_cache_key(empty) == scenario_cache_key(base)
        assert scenario_cache_key(seeded) == scenario_cache_key(base)

    def test_nonempty_fault_schedule_and_seed_perturb_key(self):
        base = Scenario(name="x", scale=SMOKE, utilization=0.5)
        faulty = Scenario(name="x", scale=SMOKE, utilization=0.5, faults="loss-5pct")
        reseeded = Scenario(
            name="x", scale=SMOKE, utilization=0.5, faults="loss-5pct", fault_seed=1
        )
        keys = {scenario_cache_key(s) for s in (base, faulty, reseeded)}
        assert len(keys) == 3

    def test_fault_seed_alone_never_perturbs_key(self):
        base = Scenario(name="x", scale=SMOKE, utilization=0.5)
        reseeded = Scenario(name="x", scale=SMOKE, utilization=0.5, fault_seed=7)
        assert scenario_cache_key(reseeded) == scenario_cache_key(base)


# --------------------------------------------------------------------- #
# Pooled runner: one task per schedule key, record once, replay everywhere
# --------------------------------------------------------------------- #
class TestTwoPhaseRunner:
    def test_cold_parallel_run_records_each_key_exactly_once(self, tmp_path):
        """Six cells across three experiments share ONE schedule; a cold
        2-worker run must record it exactly once (no duplicate-record race)."""
        summary = run_pipeline(
            SHARED_SCHEDULE_EXPERIMENTS,
            scale=SMOKE,
            workers=2,
            cache_dir=str(tmp_path / "cache"),
        )
        assert summary.cells == 6
        assert summary.records_computed == 1
        assert summary.cache_hits == summary.cells
        assert ScheduleCache(tmp_path / "cache").disk_entries() == 1

    def test_cold_parallel_records_match_unique_scenario_keys(self, tmp_path):
        registry = default_registry()
        cells = registry.get("adversarial").cells(SMOKE)
        unique = {scenario_cache_key(cell.spec) for cell in cells}
        summary = run_pipeline(
            ["adversarial"], scale=SMOKE, workers=2, cache_dir=str(tmp_path / "cache")
        )
        assert summary.records_computed == len(unique)

    def test_two_phase_rows_match_serial_rows(self, tmp_path):
        serial = run_pipeline(SHARED_SCHEDULE_EXPERIMENTS, scale=SMOKE, workers=1)
        parallel = run_pipeline(
            SHARED_SCHEDULE_EXPERIMENTS,
            scale=SMOKE,
            workers=2,
            cache_dir=str(tmp_path / "cache"),
        )
        for name in SHARED_SCHEDULE_EXPERIMENTS:
            assert serial.results[name].rows == parallel.results[name].rows


# --------------------------------------------------------------------- #
# The adversarial scenario group
# --------------------------------------------------------------------- #
class TestAdversarialExperiment:
    def test_registered_with_at_least_four_adversarial_scenarios(self):
        registry = default_registry()
        assert "adversarial" in registry
        cells = registry.get("adversarial").cells(SMOKE)
        workloads = {cell.spec.workload_name for cell in cells}
        assert len(workloads) >= 4
        assert all(WORKLOADS.get(name).group == "adversarial" for name in workloads)

    def test_rows_report_replay_metrics_per_scenario(self):
        summary = run_pipeline(["adversarial"], scale=SMOKE, workers=1)
        rows = summary.results["adversarial"].rows
        assert len(rows) >= 4
        for row in rows:
            assert 0.0 <= row["fraction_overdue"] <= 1.0
            assert 0.0 <= row["fraction_overdue_beyond_T"] <= row["fraction_overdue"]
            assert row["workload"] in WORKLOADS
        deadline_rows = [row for row in rows if row["deadline_flows"]]
        assert deadline_rows, "the deadline-tagged scenario produced no deadline flows"
        for row in deadline_rows:
            assert 0.0 <= row["deadline_met_replay"] <= 1.0

    def test_parallel_adversarial_identical_to_serial(self, tmp_path):
        serial = run_pipeline(["adversarial"], scale=SMOKE, workers=1)
        parallel = run_pipeline(
            ["adversarial"], scale=SMOKE, workers=2, cache_dir=str(tmp_path / "cache")
        )
        assert parallel.workers == 2
        assert serial.results["adversarial"].rows == parallel.results["adversarial"].rows

    def test_workload_override_pins_and_filters(self):
        filtered = run_pipeline(
            ["adversarial"], scale=SMOKE, workers=1, workload="incast-burst"
        )
        rows = filtered.results["adversarial"].rows
        assert rows and all(row["workload"] == "incast-burst" for row in rows)
        pinned = run_pipeline(
            ["ablation-edf"], scale=SMOKE, workers=1, workload="on-off-jamming"
        )
        assert pinned.cells == 2  # both modes replay the overridden scenario

    def test_workload_override_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown workload"):
            run_pipeline(["adversarial"], scale=SMOKE, workload="nope")

    def test_override_workload_helper_suffixes_names(self):
        scenario = Scenario(name="row", scale=SMOKE)
        (pinned,) = override_workload([scenario], "incast-burst")
        assert pinned.workload_name == "incast-burst"
        assert pinned.name == "row+incast-burst"
        (unchanged,) = override_workload([pinned], "incast-burst")
        assert unchanged.name == "row+incast-burst"


# --------------------------------------------------------------------- #
# Replicate aggregation
# --------------------------------------------------------------------- #
class TestReplicateAggregation:
    def test_replicated_results_carry_mean_stddev_ci(self):
        summary = run_pipeline(["ablation-edf"], scale=SMOKE, workers=1, replicates=3)
        aggregates = summary.results["ablation-edf"].aggregates
        assert aggregates
        for aggregate in aggregates:
            assert aggregate["replicates"] == 3
            assert "fraction_overdue_mean" in aggregate
            assert aggregate["fraction_overdue_stddev"] >= 0.0
            assert aggregate["fraction_overdue_ci95"] >= 0.0
        # One aggregate row per (scenario, mode) pair.
        assert len(aggregates) == 2

    def test_single_replicate_runs_have_no_aggregates(self):
        summary = run_pipeline(["ablation-edf"], scale=SMOKE, workers=1)
        assert summary.results["ablation-edf"].aggregates == []

    def test_adversarial_replicates_aggregate_per_scenario(self):
        summary = run_pipeline(["adversarial"], scale=SMOKE, workers=1, replicates=2)
        result = summary.results["adversarial"]
        base_rows = {row["scenario"] for row in result.rows if "#r" not in row["scenario"]}
        assert {a["scenario"] for a in result.aggregates} == base_rows


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestWorkloadCli:
    def test_list_workloads(self, capsys):
        assert cli_main(["list", "--workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-default", "incast-burst", "on-off-jamming", "deadline-tagged"):
            assert name in out

    def test_list_workloads_json(self, capsys):
        assert cli_main(["list", "--workloads", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["adversarial-combo"]["group"] == "adversarial"
        assert by_name["paper-default"]["mean_flow_kb"] > 0

    def test_adversarial_listed_and_runnable(self, tmp_path, capsys):
        assert cli_main(["list", "--scale", "smoke"]) == 0
        assert "adversarial" in capsys.readouterr().out
        code = cli_main(
            [
                "run",
                "adversarial",
                "--scale",
                "smoke",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["adversarial"]["rows"]
        assert len(rows) >= 4
        assert all("fraction_overdue_beyond_T" in row for row in rows)

    def test_run_workload_override_and_quick_alias(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "ablation-edf",
                "--scale",
                "smoke",
                "--workload",
                "heavy-tail-extreme",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ablation-edf"]["rows"]

    def test_quick_flag_is_a_scale_alias(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "ablation-omniscient",
                "--quick",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ablation-omniscient"]["scale"] == "quick"

    def test_run_rejects_unknown_workload(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "adversarial",
                "--scale",
                "smoke",
                "--workload",
                "nope",
                "--cache-dir",
                str(tmp_path / "c"),
            ]
        )
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_run_replicates_json_includes_aggregates(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "ablation-edf",
                "--scale",
                "smoke",
                "--replicates",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        aggregates = payload["ablation-edf"]["aggregates"]
        assert aggregates and all(a["replicates"] == 2 for a in aggregates)
