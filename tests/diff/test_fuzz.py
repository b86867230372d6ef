"""Differential fuzz harness: synthesis, shrinking, artifacts, CLI."""

import dataclasses
import json

import pytest

from repro.__main__ import main as cli_main
from repro.diff import (
    ComparisonSpec,
    Divergence,
    FuzzFailure,
    load_case,
    run_comparison,
    run_fuzz,
    write_artifact,
)
from repro.diff import fuzz as fuzz_module
from repro.diff.fuzz import FLAT_ORIGINALS, LIVE_TWIN_POLICIES, case_plan, shrink_case
from repro.pipeline.synth import (
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simplified,
)
from repro.sim import Simulator, flat_record


@pytest.fixture(autouse=True)
def unpinned_process(monkeypatch):
    """A ``python`` pin declines every flat recording, which a sweep reports as a failure."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


def fake_divergence(packet_id=7):
    return Divergence(packet_id=packet_id, flow_id=1, index=0, kind="fields")


class TestScenarioSynthesis:
    def test_same_seed_and_index_is_identical(self):
        assert random_scenario(1, 5) == random_scenario(1, 5)

    def test_different_index_differs(self):
        stream = [random_scenario(1, i) for i in range(10)]
        assert len(set(stream)) == 10

    def test_dict_round_trip_is_lossless(self):
        for index in range(12):
            scenario = random_scenario(3, index)
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_artifact_with_the_old_backend_key_still_loads(self):
        # Scenario.backend is gone; artifacts users already hold carry "backend": null.
        scenario = random_scenario(3, 1)
        assert scenario_from_dict({**scenario_to_dict(scenario), "backend": None}) == scenario

    def test_dict_form_is_json_serializable(self):
        payload = json.dumps(scenario_to_dict(random_scenario(1, 0)))
        assert scenario_from_dict(json.loads(payload)) == random_scenario(1, 0)

    def test_simplified_candidates_shrink_one_dimension_each(self):
        scenario = dataclasses.replace(
            random_scenario(1, 0),
            faults="loss-1pct",
            slack_policy="zero",
            replay_mode="lstf",
            workload_name="incast-burst",
            topology="fattree",
            utilization=0.9,
            original="fq",
        )
        descriptions = [description for description, _ in simplified(scenario)]
        assert "drop fault plan" in descriptions
        assert "drop slack policy" in descriptions
        assert "plain workload" in descriptions
        assert "internet2 topology" in descriptions
        assert "fifo original" in descriptions
        for _, candidate in simplified(scenario):
            assert candidate != scenario

    def test_fully_minimal_scenario_has_no_candidates(self):
        scenario = dataclasses.replace(
            random_scenario(1, 0),
            faults=None,
            fault_seed=0,
            slack_policy=None,
            workload_name="paper-default",
            topology="internet2",
            topology_args=(),
            duration_scale=0.25,
            utilization=0.5,
            original="fifo",
        )
        assert simplified(scenario) == []


class TestCasePlan:
    def test_live_twin_every_fourth_case(self):
        scenario, specs = case_plan(1, 3, ["python", "vectorized"])
        assert [spec.kind for spec in specs] == ["live-replay"]
        assert scenario.slack_policy in LIVE_TWIN_POLICIES
        assert scenario.replay_mode == "lstf"
        assert scenario.faults is None

    def test_backend_cases_pair_reference_with_each_backend(self):
        _, specs = case_plan(1, 0, ["python", "vectorized", "compiled"])
        assert specs[0].kind == "twin"
        pairs = [s for s in specs if s.kind == "backend-pair"]
        assert [(s.backend_a, s.backend_b) for s in pairs] == [
            ("python", "vectorized"),
            ("python", "compiled"),
        ]

    def test_record_pair_exactly_where_the_flat_loop_is_expected(self):
        planned = {}
        for index in range(24):
            scenario, specs = case_plan(1, index, ["python"])
            if specs[0].kind != "live-replay":
                planned[scenario.original] = specs[-1].kind == "record-pair"
        assert {o for o, paired in planned.items() if paired} == set(FLAT_ORIGINALS) & set(planned)
        assert any(planned.values()) and not all(planned.values())

    def test_live_replay_spec_requires_stateless_policy(self):
        scenario, _ = case_plan(1, 0, ["python"])  # no policy coercion
        scenario = dataclasses.replace(scenario, slack_policy=None)
        with pytest.raises(ValueError, match="stateless policy"):
            run_comparison(scenario, ComparisonSpec("live-replay"))


class TestArtifacts:
    def test_write_and_load_round_trip(self, tmp_path):
        scenario, [spec] = case_plan(5, 3, ["python"])
        failure = FuzzFailure(
            index=3,
            scenario=scenario,
            comparison=spec,
            divergence=fake_divergence(),
            shrink_steps=["drop fault plan"],
        )
        path = write_artifact(str(tmp_path), 5, failure)
        assert path.endswith("case-5-3.json")
        loaded_scenario, loaded_spec = load_case(path)
        assert loaded_scenario == scenario
        assert loaded_spec == spec
        payload = json.loads(open(path).read())
        assert payload["format"] == "repro-fuzz-case/1"
        assert payload["divergence"]["packet_id"] == 7

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "notacase.json"
        path.write_text('{"format": "repro-bench/1"}\n')
        with pytest.raises(ValueError, match="not a repro-fuzz-case/1"):
            load_case(str(path))


class TestShrinking:
    def test_shrinks_to_the_dimensions_that_matter(self, monkeypatch):
        # Fake oracle: the divergence "needs" the fault plan and nothing else.
        def oracle(scenario, spec, context=8, engines=None):
            return fake_divergence() if scenario.faults is not None else None

        monkeypatch.setattr(fuzz_module, "run_comparison", oracle)
        scenario = dataclasses.replace(
            random_scenario(1, 0),
            faults="loss-1pct",
            slack_policy=None,
            workload_name="incast-burst",
            topology="fattree",
            original="fq",
            utilization=0.9,
        )
        minimal, divergence, steps = shrink_case(scenario, ComparisonSpec("twin"))
        assert divergence is not None
        assert minimal.faults == "loss-1pct"  # the load-bearing dimension stays
        assert minimal.workload_name == "paper-default"
        assert minimal.topology == "internet2"
        assert minimal.original == "fifo"
        assert "plain workload" in steps and "fifo original" in steps

    def test_refuses_a_non_diverging_scenario(self, monkeypatch):
        monkeypatch.setattr(fuzz_module, "run_comparison", lambda *a, **k: None)
        with pytest.raises(ValueError, match="does not diverge"):
            shrink_case(random_scenario(1, 0), ComparisonSpec("twin"))

    def test_live_replay_shrink_keeps_the_policy(self, monkeypatch):
        calls = []

        def oracle(scenario, spec, context=8, engines=None):
            calls.append(scenario)
            return fake_divergence()

        monkeypatch.setattr(fuzz_module, "run_comparison", oracle)
        scenario, [spec] = case_plan(1, 3, ["python"])
        minimal, _, _ = shrink_case(scenario, spec)
        assert minimal.slack_policy in LIVE_TWIN_POLICIES
        assert all(s.slack_policy in LIVE_TWIN_POLICIES for s in calls)


class TestRunFuzz:
    def test_small_real_sweep_is_clean(self):
        # Two real backend-diff cases; seed 2's first is clean EDF, which every
        # available backend really runs (its second has faults: degenerate pairs).
        # Any divergence here is a genuine contract break.
        report = run_fuzz(budget=2, seed=2, artifact_dir=None)
        assert report.ok
        assert report.cases == 2
        assert report.comparisons >= 2
        assert "no divergence" in report.format()
        json.dumps(report.to_dict())

    def test_failure_path_shrinks_and_persists(self, tmp_path, monkeypatch):
        def oracle(scenario, spec, context=8, engines=None):
            return fake_divergence() if scenario.name.endswith("-0") else None

        monkeypatch.setattr(fuzz_module, "run_comparison", oracle)
        lines = []
        report = run_fuzz(
            budget=2,
            seed=9,
            artifact_dir=str(tmp_path),
            log=lines.append,
        )
        assert not report.ok
        [failure] = report.failures
        assert failure.index == 0
        assert failure.artifact_path is not None
        scenario, spec = load_case(failure.artifact_path)
        assert scenario == failure.scenario
        assert any("DIVERGENCE" in line for line in lines)
        assert "DIVERGENCE in case 0" in report.format()
        assert report.to_dict()["divergences"] == 1


class TestEnginesThatRan:
    """A ``backend-pair`` names an engine; the report says which ones ran (ROADMAP 4d)."""

    BACKENDS = ["python", "vectorized"]

    def test_a_sweep_counts_the_engine_behind_every_leg(self):
        report = run_fuzz(budget=2, seed=2, backends=self.BACKENDS, artifact_dir=None)
        # Per case: a python twin and a python-vs-vectorized pair; case 1's
        # burst-loss plan runs on vectorized, so no pair is
        # degenerate and one vectorized leg is fault-bearing.
        assert report.ok and not report.idle_engines
        assert report.engine_runs == {"python": 6, "vectorized": 2}
        assert report.faulted_runs == {"python": 3, "vectorized": 1}
        assert (report.backend_pairs, report.degenerate_pairs) == ({"vectorized": 2}, {"vectorized": 0})
        payload = report.to_dict()
        assert payload["engine_runs"] == {"python": 6, "vectorized": 2}
        assert payload["faulted_runs"] == {"python": 3, "vectorized": 1}
        assert payload["backend_pairs"] == {"vectorized": {"comparisons": 2, "degenerate": 0}}
        assert (
            "python 6 (3 under a fault plan), vectorized 2 (1 under a fault plan); "
            "0 of 2 vectorized backend-pair(s) degenerate"
        ) in report.format()

    def test_a_sweep_in_which_a_listed_backend_never_ran_fails(self):
        # Seed 1 opens with lstf-preemptive (+ burst-loss): the mode, not the
        # fault plan, is what sends every leg to python.
        report = run_fuzz(budget=1, seed=1, backends=self.BACKENDS, artifact_dir=None)
        assert not report.failures and report.idle_engines == ["vectorized"]
        assert report.degenerate_pairs == report.backend_pairs == {"vectorized": 1}
        assert report.faulted_runs == {"python": 4}
        assert not report.ok
        assert "ENGINE NEVER EXECUTED: vectorized" in report.format()
        assert "no divergence" not in report.format()

    def test_a_divergence_is_labelled_by_the_engines_that_ran(self, monkeypatch):
        from repro.core.replay_vectorized import VectorizedBackend

        real = VectorizedBackend.replay

        def late(self, *args, **kwargs):
            replayed = real(self, *args, **kwargs)
            replayed.columns().output_time[0] += 1e-9
            return replayed

        monkeypatch.setattr(VectorizedBackend, "replay", late)
        spec = ComparisonSpec("backend-pair", "python", "vectorized")
        clean, _ = case_plan(2, 0, self.BACKENDS)
        faulted, _ = case_plan(2, 1, self.BACKENDS)
        assert (clean.faults, faulted.faults) == (None, "burst-loss")
        for scenario in (clean, faulted):  # vectorized runs both, so both are caught
            ran = []
            divergence = run_comparison(scenario, spec, engines=ran)
            assert ran == ["python", "vectorized"]
            assert (divergence.label_a, divergence.label_b) == ("python", "vectorized")
        # The same spec on a configuration it declines never reaches the broken engine.
        declined = dataclasses.replace(clean, replay_mode="lstf-preemptive")
        assert run_comparison(declined, spec, engines=ran) is None
        assert ran[2:] == ["python", "python"]


class TestRecordPair:
    """The python-pinned recording against the unpinned one (the flat loop)."""

    SPEC = ComparisonSpec("record-pair")

    def scenario(self, original="random"):
        return dataclasses.replace(
            random_scenario(1, 0), original=original, workload_name="incast-burst", faults=None
        )

    def test_flat_and_reference_recordings_match(self):
        with flat_record.log_lines() as log:
            assert run_comparison(self.scenario(), self.SPEC) is None
        assert [line.split(";")[0].split(" on ")[-1] for line in log] == [
            "declined (backend pinned to python)",
            "the flat loop",
        ]

    def test_a_differing_event_count_is_a_divergence(self, monkeypatch):
        real = flat_record.record_into

        def miscounting(simulation, cols):
            Simulator.events_executed_total += 1
            real(simulation, cols)

        monkeypatch.setattr(flat_record, "record_into", miscounting)
        divergence = run_comparison(self.scenario(), self.SPEC)
        [diff] = divergence.fields
        assert (diff.field, diff.b - diff.a) == ("events_executed", 1)
        assert "record:unpinned" in divergence.format()

    def test_a_differing_schedule_is_a_divergence(self, monkeypatch):
        real = flat_record.record_into

        def late(simulation, cols):
            real(simulation, cols)
            cols.output_time[3] += 1e-9

        monkeypatch.setattr(flat_record, "record_into", late)
        divergence = run_comparison(self.scenario("lifo"), self.SPEC)
        assert [diff.field for diff in divergence.fields] == ["output_time"]

    def test_artifact_replays_through_diff_case(self, tmp_path, capsys):
        failure = FuzzFailure(
            index=0, scenario=self.scenario("sjf"), comparison=self.SPEC, divergence=fake_divergence()
        )
        path = write_artifact(str(tmp_path), 1, failure)
        assert cli_main(["diff", "--case", path]) == 0
        assert "record-pair: python-pinned vs unpinned recording" in capsys.readouterr().out

    def test_a_sweep_that_never_reaches_the_flat_loop_fails(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")  # every recording declines
        report = run_fuzz(budget=3, seed=1, backends=["python"], artifact_dir=None)
        assert report.record_pairs > 0 and report.flat_recordings == 0
        assert not report.failures and not report.ok
        assert "NO FLAT RECORDING" in report.format()

    def test_a_sweep_counts_its_flat_recordings(self):
        report = run_fuzz(budget=3, seed=1, backends=["python"], artifact_dir=None)
        assert report.ok and report.record_pairs > 0
        assert report.flat_recordings >= report.record_pairs
        assert report.to_dict()["flat_recordings"] == report.flat_recordings


class TestFuzzCli:
    def test_budget_one_exit_0(self, capsys):
        # Seed 2 opens with a clean EDF case: every listed engine runs a leg.
        assert cli_main(["fuzz", "--budget", "1", "--seed", "2", "--no-artifacts"]) == 0
        out = capsys.readouterr().out
        assert "no divergence" in out

    def test_json_output(self, capsys):
        code = cli_main(["fuzz", "--budget", "1", "--seed", "2", "--no-artifacts", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-fuzz-report/1"
        assert payload["divergences"] == 0
        assert all(payload["engine_runs"].values())

    def test_bad_budget_exit_2(self, capsys):
        assert cli_main(["fuzz", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err
