"""Tests for the faults experiment group (universality under failure).

Covers the acceptance criteria of the fault-injection PR:

* the ``faults`` experiment is registered and its cell grid is the expected
  (baseline + sweep) x modes matrix;
* the fault-free baseline delivers every packet, fault-bearing cells lose a
  deterministic nonzero fraction;
* reruns and parallel runs are row-for-row identical to serial runs (fault
  injection is fully deterministic given the fault seed);
* the ``--fault`` override pins the whole group onto one schedule, and
  experiments that do not support faults decline the override with a note
  rather than silently replaying fault-free.
"""

import json

from repro.__main__ import main as cli_main
from repro.experiments import ExperimentScale
from repro.experiments.faults import FAULT_MODES, FAULT_SWEEP, fault_scenarios
from repro.pipeline import default_registry, run_pipeline

SMOKE = ExperimentScale.smoke()

EXPECTED_CELLS = (1 + len(FAULT_SWEEP)) * len(FAULT_MODES)


def faults_rows(**kwargs):
    kwargs.setdefault("workers", 1)
    summary = run_pipeline(["faults"], scale=SMOKE, **kwargs)
    return summary.results["faults"].rows


class TestFaultsExperiment:
    def test_registered_with_expected_grid(self):
        registry = default_registry()
        assert "faults" in registry
        cells = registry.get("faults").cells(SMOKE)
        assert len(cells) == EXPECTED_CELLS
        assert {cell.mode for cell in cells} == set(FAULT_MODES)

    def test_scenarios_are_baseline_plus_sweep(self):
        scenarios = fault_scenarios(SMOKE)
        assert scenarios[0].faults is None
        assert [s.faults for s in scenarios[1:]] == list(FAULT_SWEEP)
        # All scenarios share the workload and seed: only the fault differs,
        # so every sweep entry replays the *same* recorded schedule.
        assert len({(s.workload_name, s.seed, s.utilization) for s in scenarios}) == 1

    def test_baseline_delivers_everything_and_faults_degrade(self):
        rows = faults_rows()
        assert len(rows) == EXPECTED_CELLS
        baseline = [row for row in rows if row["fault"] == "none"]
        faulty = [row for row in rows if row["fault"] != "none"]
        assert baseline and faulty
        assert all(row["delivered_fraction"] == 1.0 for row in baseline)
        assert any(row["delivered_fraction"] < 1.0 for row in faulty)
        assert all(0.0 <= row["delivered_fraction"] <= 1.0 for row in rows)
        # deadline-met-over-delivered is conditioned on survivors, so it can
        # only meet or exceed the unconditional replay deadline fraction.
        for row in rows:
            if row["deadline_flows"]:
                assert (
                    row["deadline_met_over_delivered"]
                    >= row["deadline_met_replay"] - 1e-12
                )

    def test_rows_are_deterministic_and_parallel_matches_serial(self, tmp_path):
        serial = faults_rows(cache_dir=tmp_path / "a")
        again = faults_rows(cache_dir=tmp_path / "a")
        parallel = faults_rows(workers=2, cache_dir=tmp_path / "b")
        assert again == serial
        assert parallel == serial

    def test_fault_override_pins_whole_sweep(self):
        registry = default_registry()
        definition = registry.get("faults").with_overrides(faults="loss-5pct", fault_seed=7)
        scenarios = definition.scenarios(SMOKE)
        assert all(s.faults == "loss-5pct" for s in scenarios)
        assert all(s.fault_seed == 7 for s in scenarios)

    def test_unsupporting_experiment_declines_override_with_note(self, tmp_path):
        summary = run_pipeline(
            ["figure3"], scale=SMOKE, faults="loss-5pct",
            cache_dir=tmp_path / "cache",
        )
        assert not summary.errors
        assert any("fault-free" in note for note in summary.notes)


class TestFaultsCli:
    def test_list_faults_renders_registry(self, capsys):
        assert cli_main(["list", "--faults"]) == 0
        out = capsys.readouterr().out
        for name in ("empty",) + FAULT_SWEEP:
            assert name in out

    def test_run_faults_json_carries_fault_columns(self, tmp_path, capsys):
        code = cli_main(
            [
                "run", "faults", "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache"), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["faults"]["rows"]
        assert len(rows) == EXPECTED_CELLS
        assert payload["errors"] == []
        assert {"fault", "fault_seed", "delivered_fraction"} <= set(rows[0])

    def test_run_with_fault_override(self, tmp_path, capsys):
        code = cli_main(
            [
                "run", "faults", "--scale", "smoke",
                "--fault", "loss-5pct", "--fault-seed", "3",
                "--cache-dir", str(tmp_path / "cache"), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["faults"]["rows"]
        assert all(row["fault"] == "loss-5pct" for row in rows)
        assert all(row["fault_seed"] == 3 for row in rows)
        assert any(row["delivered_fraction"] < 1.0 for row in rows)
