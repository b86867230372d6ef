"""Tests for the experiment harness (scaled-down versions of every table/figure)."""

import json

import pytest

from repro.experiments import (
    ExperimentResult,
    ExperimentScale,
    default_scenario,
    format_result,
    results_to_json,
    run_scenario,
    table1_scenarios,
)
from repro.experiments.figure2 import FIGURE2_SCHEDULERS, figure2_size_distribution
from repro.experiments.figure4 import build_long_lived_flows, fairness_scale
from repro.pipeline import run_pipeline
from repro.utils import gbps


SMOKE = ExperimentScale.smoke()


def run_one(name):
    return run_pipeline([name], scale=SMOKE).results[name]


class TestScalePresets:
    def test_quick_and_paper_presets_differ(self):
        quick, paper = ExperimentScale.quick(), ExperimentScale.paper()
        assert paper.bandwidth_scale == 1.0
        assert quick.bandwidth_scale > 1.0
        assert paper.edge_routers_per_core == 10

    def test_scaled_bandwidth(self):
        scale = ExperimentScale(bandwidth_scale=100.0)
        assert scale.scaled_bandwidth(1.0) == pytest.approx(gbps(1) / 100.0)

    def test_topology_builders_produce_expected_sizes(self):
        scale = SMOKE
        i2 = scale.internet2()
        assert len(i2.router_names()) == 10 + 10 * scale.edge_routers_per_core
        rocket = scale.rocketfuel()
        assert len([r for r in rocket.router_names() if r.startswith("core")]) == scale.rocketfuel_routers
        fattree = scale.fattree()
        assert len(fattree.host_names()) == scale.fattree_k ** 3 // 4

    def test_fairness_scale_caps_bandwidth_reduction(self):
        capped = fairness_scale(ExperimentScale(bandwidth_scale=1000.0), max_bandwidth_scale=50.0)
        assert capped.bandwidth_scale == 50.0
        untouched = fairness_scale(ExperimentScale(bandwidth_scale=10.0), max_bandwidth_scale=50.0)
        assert untouched.bandwidth_scale == 10.0


class TestTable1Harness:
    def test_scenarios_cover_every_paper_row_group(self):
        scenarios = table1_scenarios(SMOKE)
        names = [s.name for s in scenarios]
        assert any("@70" in n or n == "I2-1G-10G@70" for n in names)
        assert any("@10" in n for n in names)  # utilization sweep
        assert "I2-1G-1G" in names and "I2-10G-10G" in names
        assert "RocketFuel" in names and "Datacenter" in names
        originals = {s.original for s in scenarios}
        assert {"random", "fifo", "fq", "sjf", "lifo", "fq+fifo+"} <= originals

    def test_run_scenario_produces_table_row(self):
        row = run_scenario(default_scenario(SMOKE, utilization=0.6))
        assert set(row) >= {
            "scenario", "utilization", "original", "fraction_overdue",
            "fraction_overdue_beyond_T", "packets", "threshold",
        }
        assert row["packets"] > 0
        assert 0.0 <= row["fraction_overdue"] <= 1.0
        assert row["fraction_overdue_beyond_T"] <= row["fraction_overdue"]

    def test_priority_comparison_shows_lstf_advantage(self):
        result = run_one("table1-priority")
        by_mode = {row["replay_mode"]: row for row in result.rows}
        assert by_mode["lstf"]["fraction_overdue"] <= by_mode["priority"]["fraction_overdue"]


class TestAblations:
    def test_omniscient_ablation_is_perfect(self):
        result = run_one("ablation-omniscient")
        by_mode = {row["replay_mode"]: row for row in result.rows}
        assert by_mode["omniscient"]["fraction_overdue"] == 0.0

    def test_edf_equivalence_rows_match(self):
        result = run_one("ablation-edf")
        by_mode = {row["replay_mode"]: row for row in result.rows}
        assert by_mode["edf"]["fraction_overdue"] == pytest.approx(
            by_mode["lstf"]["fraction_overdue"], abs=1e-9
        )


class TestFigureHelpers:
    def test_figure2_configuration_covers_paper_schedulers(self):
        assert set(FIGURE2_SCHEDULERS) == {"fifo", "srpt", "sjf", "lstf"}
        assert figure2_size_distribution().mean() > 1460

    def test_build_long_lived_flows_pins_src_and_dst_groups(self):
        topo = SMOKE.internet2(edge_core_gbps=10.0, host_edge_gbps=10.0)
        from repro.utils import RandomState

        flows = build_long_lived_flows(topo, 8, jitter=0.005, rng=RandomState(1))
        assert len(flows) == 8
        assert all(flow.src.startswith("host-seattle") for flow in flows)
        assert all(flow.dst.startswith("host-newyork") for flow in flows)
        assert all(0.0 <= flow.start_time <= 0.005 for flow in flows)


class TestRunnerFormatting:
    def test_format_result_renders_all_rows(self):
        result = ExperimentResult(name="demo", scale_label="quick")
        result.add_row(metric="a", value=1.0)
        result.add_row(metric="b", value=None)
        text = format_result(result)
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "-" in text  # None rendered as a dash

    def test_results_to_json_round_trips(self):
        result = ExperimentResult(name="demo", scale_label="quick", notes="n")
        result.add_row(x=1, y=2.5)
        payload = json.loads(results_to_json({"demo": result}))
        assert payload["demo"]["rows"] == [{"x": 1, "y": 2.5}]

    def test_run_all_rejects_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_pipeline(["tableX"], scale=SMOKE)


class TestRowsDoNotDependOnThePythonVersion:
    def test_no_float_total_goes_through_builtin_sum(self, monkeypatch):
        """Builtin ``sum`` is a compensated float sum from Python 3.12 on, so a
        float total that went through it would round differently there than on
        3.11 (and than the accumulators' running ``+=``): every row-bound total
        must use ``repro.utils.stats.left_sum``."""
        import builtins

        from repro.pipeline import default_registry

        real_sum = builtins.sum

        def float_free_sum(iterable, *start):
            values = list(iterable)
            assert not any(isinstance(value, float) for value in (*values, *start)), (
                "builtin sum() over floats"
            )
            return real_sum(values, *start)

        monkeypatch.setattr(builtins, "sum", float_free_sum)
        names = [definition.name for definition in default_registry().experiments()]
        summary = run_pipeline(names, scale=SMOKE, workers=1)
        assert summary.errors == []
        assert set(summary.results) == set(names)
        # The default workloads never build an EmpiricalSize; these do.
        for workload in ("web-search", "data-mining"):
            summary = run_pipeline(["table1"], scale=SMOKE, workers=1, workload=workload)
            assert summary.errors == [] and summary.results["table1"].rows, workload
