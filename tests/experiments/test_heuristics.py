"""Tests for the heuristics experiment group (the paper's Section-3 story).

Covers the acceptance criteria of the slack-policy PR:

* the ``heuristics`` experiment is registered, runs end to end, and its rows
  are rectangular (every scheme reports the same column set);
* the ``deadline`` slack policy strictly improves the deadline-met fraction
  over FIFO on the deadline-tagged adversarial workloads (quick scale — the
  scale the acceptance criterion names);
* one cell's rows are pinned bit-identically against a committed golden
  fixture, so refactors cannot silently drift the heuristic results;
* parallel runs are row-for-row identical to serial runs;
* the CLI exposes the slack-policy registry and the ``--slack-policy``
  override.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ExperimentScale
from repro.experiments.heuristics import (
    HEURISTIC_WORKLOADS,
    SCHEME_BY_LABEL,
    SCHEMES,
    HeuristicsDefinition,
)
from repro.pipeline import default_registry, run_pipeline
from repro.pipeline.scenario import PipelineConfigError
from repro.traffic.registry import WORKLOADS

SMOKE = ExperimentScale.smoke()
GOLDEN_ROWS_PATH = Path(__file__).parent.parent / "data" / "golden_heuristics_rows.json"


def heuristics_rows(scale, **kwargs):
    summary = run_pipeline(["heuristics"], scale=scale, workers=1, **kwargs)
    return summary.results["heuristics"].rows


class TestHeuristicsExperiment:
    def test_registered_with_full_scheme_by_workload_matrix(self):
        registry = default_registry()
        assert "heuristics" in registry
        cells = registry.get("heuristics").cells(SMOKE)
        assert len(cells) == len(SCHEMES) * len(HEURISTIC_WORKLOADS)
        assert {cell.mode for cell in cells} == set(SCHEME_BY_LABEL)
        for workload in HEURISTIC_WORKLOADS:
            assert workload in WORKLOADS

    def test_scenarios_cover_deadline_tagged_workloads(self):
        workloads = {s.workload_name for s in HeuristicsDefinition().scenarios(SMOKE)}
        assert "deadline-tagged" in workloads  # the adversarial-group one
        assert WORKLOADS.get("deadline-tagged").group == "adversarial"

    def test_rows_are_rectangular_and_sane(self):
        rows = heuristics_rows(SMOKE)
        assert len(rows) == len(SCHEMES) * len(HEURISTIC_WORKLOADS)
        columns = set(rows[0])
        for row in rows:
            assert set(row) == columns
            assert row["packets"] > 0
            assert row["mean_delay"] > 0.0
            assert row["p99_delay"] >= row["mean_delay"] * 0.0
            assert row["deadline_flows"] >= 0
            assert 0.0 <= row["deadline_met_fraction"] <= 1.0
            scheme = SCHEME_BY_LABEL[row["scheme"]]
            if scheme.kind in ("direct", "live"):
                # Measured on their own schedules, not against a baseline.
                assert row["fraction_overdue"] is None
            else:
                assert 0.0 <= row["fraction_overdue"] <= 1.0

    def test_all_schemes_schedule_the_same_offered_traffic(self):
        rows = heuristics_rows(SMOKE)
        for workload in HEURISTIC_WORKLOADS:
            group = [r for r in rows if r["workload"] == workload]
            assert len({r["packets"] for r in group}) == 1
            assert len({r["deadline_flows"] for r in group}) == 1

    def test_live_deployment_matches_replay_for_stateless_policies(self):
        """Replay fidelity, measured: for a constant (stateless) slack
        policy on open-loop UDP traffic, replaying the FIFO baseline under
        LSTF stamps the same packets with the same slack at the same
        ingress times as a genuine live deployment — so the live and
        replay columns must agree bit for bit.  This is the paper's
        replay-methodology claim made executable; a divergence means the
        replay harness no longer reproduces deployment dynamics."""
        rows = heuristics_rows(SMOKE)
        by = {(r["workload"], r["scheme"]): r for r in rows}
        for workload in HEURISTIC_WORKLOADS:
            for policy in ("zero", "static-delay"):
                live = by[(workload, f"lstf-live-{policy}")]
                replay = by[(workload, f"lstf-{policy}")]
                for column in (
                    "packets", "mean_delay", "p99_delay",
                    "deadline_flows", "deadline_met_fraction",
                ):
                    assert live[column] == replay[column], (workload, policy, column)

    def test_omniscient_replay_is_perfect(self):
        rows = heuristics_rows(SMOKE)
        for row in rows:
            if row["scheme"] == "omniscient":
                assert row["fraction_overdue"] == 0.0

    def test_parallel_heuristics_identical_to_serial(self, tmp_path):
        serial = run_pipeline(["heuristics"], scale=SMOKE, workers=1)
        parallel = run_pipeline(
            ["heuristics"], scale=SMOKE, workers=2, cache_dir=str(tmp_path / "cache")
        )
        assert parallel.workers == 2
        assert serial.results["heuristics"].rows == parallel.results["heuristics"].rows

    def test_workload_override_pins_the_matrix_to_one_workload(self):
        rows = heuristics_rows(SMOKE, workload="deadline-tagged-tight")
        assert len(rows) == len(SCHEMES)
        assert all(row["workload"] == "deadline-tagged-tight" for row in rows)

    def test_replicates_expand_every_scheme(self):
        summary = run_pipeline(
            ["heuristics"], scale=SMOKE, workers=1, replicates=2,
            workload="deadline-tagged",
        )
        result = summary.results["heuristics"]
        assert len(result.rows) == 2 * len(SCHEMES)
        assert result.aggregates
        assert all(a["replicates"] == 2 for a in result.aggregates)


class TestGoldenHeuristicsRows:
    def test_pinned_cells_are_bit_identical(self):
        """The committed fixture pins the FIFO baseline and the
        deadline-policy LSTF cell of the deadline-tagged workload at smoke
        scale — floats must match bit for bit."""
        golden = json.loads(GOLDEN_ROWS_PATH.read_text())
        assert golden, "golden heuristics fixture is empty"
        rows = {row["scenario"]: row for row in heuristics_rows(SMOKE)}
        for pinned in golden:
            assert pinned["scenario"] in rows, pinned["scenario"]
            assert rows[pinned["scenario"]] == pinned


class TestDeadlinePolicyBeatsFifo:
    def test_deadline_slack_strictly_improves_deadline_met_over_fifo_quick(self):
        """The PR's headline acceptance criterion, at the scale it names:
        on the deadline-tagged adversarial workloads, deadline-driven slack
        must strictly beat FIFO's deadline-met fraction."""
        rows = heuristics_rows(ExperimentScale.quick())
        for workload in HEURISTIC_WORKLOADS:
            by_scheme = {
                r["scheme"]: r for r in rows if r["workload"] == workload
            }
            fifo = by_scheme["fifo"]["deadline_met_fraction"]
            deadline = by_scheme["lstf-deadline"]["deadline_met_fraction"]
            assert deadline > fifo, (
                f"{workload}: lstf-deadline ({deadline}) must strictly beat "
                f"fifo ({fifo})"
            )
            # The heuristic may not beat the omniscient replay of a better
            # schedule, but it must not lose to plain zero-slack LSTF either.
            assert deadline >= by_scheme["lstf-zero"]["deadline_met_fraction"]


class TestSlackPolicyCli:
    def test_list_slack_policies(self, capsys):
        assert cli_main(["list", "--slack-policies"]) == 0
        out = capsys.readouterr().out
        for name in ("replay", "zero", "deadline", "static-delay"):
            assert name in out

    def test_list_slack_policies_json(self, capsys):
        assert cli_main(["list", "--slack-policies", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["deadline"]["kind"] == "deadline"
        assert "no_deadline_slack" in by_name["deadline"]["params"]

    def test_list_slack_policies_pins_capability_column(self, capsys):
        """The live/replay capability of every built-in policy, as shown by
        ``list --slack-policies`` — the CLI face of the policy contract
        (docs/slack-policies.md).  A capability change is a contract change
        and must update this table deliberately."""
        assert cli_main(["list", "--slack-policies", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        modes = {entry["name"]: entry["modes"] for entry in entries}
        assert modes == {
            "replay": "replay",
            "zero": "live+replay",
            "deadline": "replay",
            "static-delay": "live+replay",
            "flow-size": "live",
            "fairness": "live",
            "null": "live",
        }

    def test_list_slack_policies_table_shows_modes(self, capsys):
        assert cli_main(["list", "--slack-policies"]) == 0
        lines = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        }
        # Per-row capability rendering, not just a crash check: the
        # live-only row must NOT say live+replay, the both-capable row must.
        assert " live " in lines["flow-size"]
        assert "live+replay" not in lines["flow-size"]
        assert "live+replay" in lines["static-delay"]
        assert " replay " in lines["deadline"]

    def test_run_heuristics_via_cli(self, tmp_path, capsys):
        code = cli_main(
            [
                "run", "heuristics", "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache"), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["heuristics"]["rows"]
        assert len(rows) == len(SCHEMES) * len(HEURISTIC_WORKLOADS)

    def test_run_slack_policy_override(self, tmp_path, capsys):
        code = cli_main(
            [
                "run", "table1-priority", "--scale", "smoke",
                "--slack-policy", "zero",
                "--cache-dir", str(tmp_path / "cache"), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # table1-priority replays the priority mode too, so it cannot honor
        # the override; the runner must say so instead of silently ignoring.
        notes = payload["_summary"]["notes"]
        assert any("slack_policy" in note for note in notes)

    def test_run_adversarial_with_slack_policy_override(self, tmp_path, capsys):
        code = cli_main(
            [
                "run", "adversarial", "--scale", "smoke",
                "--slack-policy", "deadline",
                "--cache-dir", str(tmp_path / "cache"), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["adversarial"]["rows"]
        assert rows and all(row["scenario"].endswith("+slack:deadline") for row in rows)

    def test_record_then_replay_with_slack_policy(self, tmp_path, capsys):
        out = tmp_path / "sched.jsonl.gz"
        assert cli_main(
            ["record", "HEU-deadline-tagged/fifo", "--scale", "smoke", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["replay", str(out), "--slack-policy", "deadline", "--json"]
        ) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["slack_policy"] == "deadline"
        assert 0.0 <= row["fraction_overdue"] <= 1.0

    def test_replay_rejects_policy_incompatible_mode(self, tmp_path, capsys):
        out = tmp_path / "sched.jsonl.gz"
        assert cli_main(
            ["record", "HEU-deadline-tagged/fifo", "--scale", "smoke", "--out", str(out)]
        ) == 0
        code = cli_main(
            ["replay", str(out), "--mode", "omniscient", "--slack-policy", "zero"]
        )
        assert code == 2
        assert "cannot drive replay mode" in capsys.readouterr().err

    def test_run_rejects_unknown_slack_policy(self, tmp_path):
        with pytest.raises(PipelineConfigError, match="unknown slack policy"):
            run_pipeline(["adversarial"], scale=SMOKE, slack_policy="nope")

    def test_run_live_experiment_with_slack_policy_override(self, capsys):
        """`run figure3 --slack-policy zero` deploys LSTF with the zero
        policy stamped at send time; the overridden row says so."""
        code = cli_main(
            ["run", "figure3", "--scale", "smoke", "--no-cache",
             "--slack-policy", "zero", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["scheduler"]: row for row in payload["figure3"]["rows"]}
        assert rows["lstf"]["slack_policy"] == "zero"
        assert "slack_policy" not in rows["fifo"]  # policy-less cell untouched
        assert "figure3" not in " ".join(payload["_summary"]["notes"])

    def test_run_live_experiment_rejects_replay_only_policy(self, capsys):
        code = cli_main(
            ["run", "figure2", "--scale", "smoke", "--no-cache",
             "--slack-policy", "deadline"]
        )
        assert code == 2
        assert "cannot stamp live packets" in capsys.readouterr().err

    def test_run_replay_experiment_rejects_live_only_policy(self, capsys):
        code = cli_main(
            ["run", "adversarial", "--scale", "smoke", "--no-cache",
             "--slack-policy", "flow-size"]
        )
        assert code == 2
        assert "cannot drive scenario" in capsys.readouterr().err

    def test_live_columns_ride_the_heuristics_matrix(self, tmp_path, capsys):
        """The live lstf deployments are first-class heuristics columns and
        see the same offered traffic as the FIFO baseline."""
        code = cli_main(
            ["run", "heuristics", "--scale", "smoke",
             "--cache-dir", str(tmp_path / "cache"), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["heuristics"]["rows"]
        for workload in HEURISTIC_WORKLOADS:
            group = {r["scheme"]: r for r in rows if r["workload"] == workload}
            for live in ("lstf-live-zero", "lstf-live-static-delay", "lstf-live-flow-size"):
                assert group[live]["packets"] == group["fifo"]["packets"]
                assert group[live]["fraction_overdue"] is None
