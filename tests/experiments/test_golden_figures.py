"""Golden-row pinning for the registry-driven Figure 1-4 experiments.

The slack-policy unification rewired Figures 2-4 from ad-hoc
``SlackPolicy`` instantiation to registry-materialized live policies
(``SlackPolicyDef.build_live``); Figure 1's queueing-delay ratios moved out
of every replay comparison into :func:`repro.core.metrics.queueing_delay_ratios`.
Each figure's rows were captured *before* its refactor, so these tests prove
both were pure refactors: every row — floats included — must match bit for
bit.  The ``<figure>/slack_policy=zero`` entries pin the live override path
(``--slack-policy zero`` on Figures 2 and 3) from before Figures 2 and 3
shared one live-comparison base.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.figure1 import FIGURE1_SCHEDULERS
from repro.pipeline import run_pipeline

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_figure_rows.json"
SMOKE = ExperimentScale.smoke()


@pytest.fixture(scope="module")
def golden():
    rows = json.loads(GOLDEN_PATH.read_text())
    assert rows, "golden figure fixture is empty"
    return rows


@pytest.mark.parametrize("experiment", ["figure1", "figure2", "figure3", "figure4"])
def test_registry_driven_rows_match_pre_refactor_fixture(experiment, golden):
    """Rows produced via the unified slack-policy registry path must be
    bit-identical to the rows the pre-refactor code produced."""
    summary = run_pipeline([experiment], scale=SMOKE, workers=1)
    rows = summary.results[experiment].rows
    assert rows == golden[experiment]


@pytest.mark.parametrize("experiment", ["figure2", "figure3"])
def test_live_slack_policy_override_rows_match_fixture(experiment, golden):
    """``--slack-policy`` swaps only a configured live policy: the LSTF cell
    runs (and is labelled) with the override, and every policy-less cell
    stays bare, bit-identical to its default row."""
    summary = run_pipeline([experiment], scale=SMOKE, workers=1, slack_policy="zero")
    rows = summary.results[experiment].rows
    assert rows == golden[f"{experiment}/slack_policy=zero"]
    defaults = {row["scheduler"]: row for row in golden[experiment]}
    for row in rows:
        if row["scheduler"] == "lstf":
            assert row.pop("slack_policy") == "zero"
        else:
            assert "slack_policy" not in row
            assert row == defaults[row["scheduler"]]


def test_fixture_covers_every_figure(golden):
    assert set(golden) == {
        "figure1",
        "figure2",
        "figure3",
        "figure4",
        "figure2/slack_policy=zero",
        "figure3/slack_policy=zero",
    }
    # The override swaps Figure 2's LSTF heuristic: flow-size and zero slack
    # deploy differently.
    overridden = {row["scheduler"]: row for row in golden["figure2/slack_policy=zero"]}
    default = {row["scheduler"]: row for row in golden["figure2"]}
    assert overridden["lstf"]["mean_fct"] != default["lstf"]["mean_fct"]
    # The policy-bearing rows are present: figure2's LSTF deployment,
    # figure3's LSTF-as-FIFO+ row, and figure4's rest sweep.
    assert any(row["scheduler"] == "lstf" for row in golden["figure2"])
    assert any(row["scheduler"] == "lstf" for row in golden["figure3"])
    assert any(row["scheduler"].startswith("lstf@") for row in golden["figure4"])
    # Figure 1 has one row per original scheduler, each with congested packets.
    assert {row["original"] for row in golden["figure1"]} == set(FIGURE1_SCHEDULERS)
    assert all(row["packets"] > 0 for row in golden["figure1"])
