"""Tests for the bench subsystem: harness, payload format, regression gate,
and the ``python -m repro bench`` CLI verb."""

import json

import pytest

from repro.bench import (
    BENCH_FORMAT,
    BenchReport,
    ExperimentBench,
    bench_experiment,
    bench_payload,
    find_regressions,
    load_bench,
    rows_digest,
    run_bench,
    save_bench,
    speedup_vs_baseline,
)
from repro.__main__ import main


def _bench(name="table1", wall=1.0, digest="aa", events=1000):
    return ExperimentBench(
        experiment=name,
        wall_time=wall,
        events=events,
        events_per_sec=events / wall,
        cells=2,
        cells_per_sec=2 / wall,
        rows=2,
        rows_digest=digest,
        repeats=[wall],
    )


def _report(**benches):
    report = BenchReport(scale="smoke", repeat=1)
    for name, bench in benches.items():
        report.results[name] = bench
    return report


class TestRowsDigest:
    def test_stable_across_calls(self):
        rows = [{"a": 1.5, "b": "x"}, {"a": 2.5, "b": "y"}]
        assert rows_digest(rows) == rows_digest(list(rows))

    def test_sensitive_to_float_changes(self):
        base = [{"value": 0.1}]
        same_bits = [{"value": 0.1 + 1e-18}]  # rounds back to the same double
        one_ulp_off = [{"value": 0.1 + 2e-17}]  # the neighbouring double
        assert rows_digest(base) == rows_digest(same_bits)
        assert one_ulp_off[0]["value"] != base[0]["value"]
        assert rows_digest(base) != rows_digest(one_ulp_off)

    def test_sensitive_to_row_order(self):
        rows = [{"a": 1}, {"a": 2}]
        assert rows_digest(rows) != rows_digest(rows[::-1])


class TestHarness:
    def test_bench_experiment_smoke(self):
        bench = bench_experiment("table1-priority", scale="smoke", repeat=2)
        assert bench.experiment == "table1-priority"
        assert bench.wall_time > 0
        assert bench.events > 0
        assert bench.events_per_sec > 0
        assert bench.cells == 2
        assert bench.rows == 2
        assert len(bench.repeats) == 2
        assert bench.wall_time == min(bench.repeats)

    def test_repeats_are_deterministic(self):
        first = bench_experiment("table1-priority", scale="smoke", repeat=1)
        second = bench_experiment("table1-priority", scale="smoke", repeat=1)
        assert first.rows_digest == second.rows_digest
        assert first.events == second.events

    def test_run_bench_report_roundtrip(self):
        report = run_bench(["table1-priority"], scale="smoke", repeat=1)
        clone = BenchReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert "table1-priority" in report.format()

    def test_rejects_bad_repeat(self):
        with pytest.raises(ValueError):
            bench_experiment("table1-priority", scale="smoke", repeat=0)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            bench_experiment("no-such-experiment", scale="smoke")


class TestPayloadAndGate:
    def test_payload_save_load_roundtrip(self, tmp_path):
        payload = bench_payload(_report(table1=_bench()), label="test")
        path = tmp_path / "bench.json"
        save_bench(path, payload)
        loaded = load_bench(path)
        assert loaded["format"] == BENCH_FORMAT
        assert loaded["label"] == "test"
        assert loaded["results"]["table1"]["wall_time"] == 1.0

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_bench(path)

    def test_speedup_vs_baseline(self):
        current = _report(table1=_bench(wall=1.0, events=1000))
        baseline = {"table1": {"wall_time": 2.0, "events_per_sec": 500.0}}
        speedups = speedup_vs_baseline(current, baseline)
        assert speedups["table1"]["wall_time"] == pytest.approx(2.0)
        assert speedups["table1"]["events_per_sec"] == pytest.approx(2.0)

    def test_gate_passes_within_threshold(self):
        current = _report(table1=_bench(wall=1.2))
        reference = {"results": {"table1": {"wall_time": 1.0, "rows_digest": "aa"}}}
        regressions, mismatches = find_regressions(current, reference, max_slowdown=0.25)
        assert regressions == []
        assert mismatches == []

    def test_gate_flags_slowdown_beyond_threshold(self):
        current = _report(table1=_bench(wall=1.5))
        reference = {"results": {"table1": {"wall_time": 1.0, "rows_digest": "aa"}}}
        regressions, _ = find_regressions(current, reference, max_slowdown=0.25)
        assert len(regressions) == 1
        assert regressions[0].experiment == "table1"
        assert regressions[0].slowdown == pytest.approx(0.5)
        assert "table1" in regressions[0].describe()

    def test_gate_reports_digest_drift_separately(self):
        current = _report(table1=_bench(wall=1.0, digest="bb"))
        reference = {"results": {"table1": {"wall_time": 1.0, "rows_digest": "aa"}}}
        regressions, mismatches = find_regressions(current, reference)
        assert regressions == []
        assert len(mismatches) == 1
        assert "bb" in mismatches[0]

    def test_gate_ignores_experiments_missing_from_reference(self):
        current = _report(table1=_bench(wall=9.0))
        regressions, mismatches = find_regressions(current, {"results": {}})
        assert regressions == [] and mismatches == []


class TestBackendAndRss:
    def test_peak_rss_reported(self):
        from repro.bench import peak_rss_bytes

        observed = peak_rss_bytes()
        assert observed is None or observed > 0
        bench = bench_experiment("table1-priority", scale="smoke", repeat=1)
        assert bench.peak_rss_bytes == pytest.approx(observed, rel=0.5)
        assert bench.to_dict()["peak_rss_bytes"] == bench.peak_rss_bytes

    def test_backend_field_roundtrips(self):
        bench = _bench()
        bench.backend = "vectorized"
        bench.peak_rss_bytes = 12345
        clone = ExperimentBench.from_dict(bench.to_dict())
        assert clone.backend == "vectorized"
        assert clone.peak_rss_bytes == 12345

    def test_from_dict_tolerates_pre_pr6_payloads(self):
        data = _bench().to_dict()
        del data["backend"]
        del data["peak_rss_bytes"]
        clone = ExperimentBench.from_dict(data)
        assert clone.backend is None and clone.peak_rss_bytes is None

    def test_replay_path_summary_in_payload(self):
        report = _report(**{
            "table1:replay@python": _bench(
                name="table1:replay@python", wall=4.0, events=4000, digest="cc"
            ),
            "table1:replay@vectorized": _bench(
                name="table1:replay@vectorized", wall=1.0, events=4000, digest="cc"
            ),
        })
        payload = bench_payload(report)
        summary = payload["replay_path"]
        entry = summary["backends"]["table1:replay@vectorized"]
        assert entry["events_per_sec_ratio"] == pytest.approx(4.0)
        assert entry["rows_bit_identical"] is True
        # Below the 10x target: the gap analysis must be embedded.
        assert "dispatch" in entry["notes"]

    def test_replay_path_summary_absent_without_groups(self):
        payload = bench_payload(_report(table1=_bench()))
        assert "replay_path" not in payload

    def test_run_bench_includes_replay_groups_and_matches_digests(self):
        report = run_bench(
            ["table1-priority"], scale="smoke", repeat=1, backend="vectorized"
        )
        reference = report.results["table1:replay@python"]
        candidate = report.results["table1:replay@vectorized"]
        assert candidate.rows_digest == reference.rows_digest
        assert candidate.events == reference.events
        assert candidate.backend == "vectorized"

    def test_run_bench_rejects_unknown_backend(self):
        from repro.pipeline.scenario import PipelineConfigError

        with pytest.raises(PipelineConfigError):
            run_bench(["table1-priority"], scale="smoke", backend="nope")


class TestThreeWayReplayComparison:
    """The replay-path bench compares every backend this environment can run."""

    def test_available_replay_backends_reference_first(self):
        from repro.bench.harness import available_replay_backends

        names = available_replay_backends()
        assert names[0] == "python"
        assert "vectorized" in names
        # compiled appears exactly when its kernel is built — never errors.
        from repro.sim.compiled import kernel_available

        assert ("compiled" in names) == kernel_available()

    def test_compiled_gap_note_reflects_native_loop(self):
        """The gap analysis is per backend: compiled's remaining wall time is
        Python orchestration, not interpreter dispatch in the event loop."""
        report = _report(**{
            "table1:replay@python": _bench(
                name="table1:replay@python", wall=8.0, events=8000, digest="cc"
            ),
            "table1:replay@compiled": _bench(
                name="table1:replay@compiled", wall=1.0, events=8000, digest="cc"
            ),
        })
        payload = bench_payload(report)
        entry = payload["replay_path"]["backends"]["table1:replay@compiled"]
        assert entry["events_per_sec_ratio"] == pytest.approx(8.0)
        assert "native" in entry["notes"]
        assert "dispatch" not in entry["notes"]

    def test_replay_path_summary_carries_build_metadata_when_built(self):
        from repro.sim.compiled import kernel_available

        if not kernel_available():
            pytest.skip(
                "compiled kernel extension not built; build it with "
                "`python tools/build_compiled.py` (requires a C toolchain)"
            )
        report = _report(**{
            "table1:replay@python": _bench(
                name="table1:replay@python", wall=2.0, events=2000, digest="cc"
            ),
            "table1:replay@compiled": _bench(
                name="table1:replay@compiled", wall=1.0, events=2000, digest="cc"
            ),
        })
        entry = bench_payload(report)["replay_path"]["backends"][
            "table1:replay@compiled"
        ]
        assert entry["build"]["toolchain"] == "cpython-c-api"
        assert entry["build"]["compiler"]

    def test_run_bench_compiled_group_bit_identical(self):
        from repro.sim.compiled import kernel_available

        if not kernel_available():
            pytest.skip(
                "compiled kernel extension not built; build it with "
                "`python tools/build_compiled.py` (requires a C toolchain)"
            )
        report = run_bench(["table1-priority"], scale="smoke", repeat=1)
        reference = report.results["table1:replay@python"]
        candidate = report.results["table1:replay@compiled"]
        assert candidate.rows_digest == reference.rows_digest
        assert candidate.events == reference.events
        assert candidate.backend == "compiled"


class TestCli:
    def test_bench_verb_writes_payload(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "table1-priority", "--scale", "smoke", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == BENCH_FORMAT
        assert "table1-priority" in payload["results"]
        assert "events/s" in capsys.readouterr().out

    def test_bench_verb_check_passes_against_fresh_baseline(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "table1-priority", "--scale", "smoke", "--out", str(out)]) == 0
        code = main(
            [
                "bench",
                "table1-priority",
                "--scale",
                "smoke",
                "--baseline",
                str(out),
                "--check",
                "--max-slowdown",
                "10.0",  # generous: CI machines are noisy
            ]
        )
        assert code == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_bench_verb_check_fails_on_regression(self, tmp_path, capsys):
        # Fabricate an impossibly fast baseline: any real run regresses.
        baseline = bench_payload(
            _report(**{"table1-priority": _bench(name="table1-priority", wall=1e-9)})
        )
        path = tmp_path / "baseline.json"
        save_bench(path, baseline)
        code = main(
            [
                "bench",
                "table1-priority",
                "--scale",
                "smoke",
                "--baseline",
                str(path),
                "--check",
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_bench_verb_check_requires_baseline(self, capsys):
        code = main(["bench", "table1-priority", "--scale", "smoke", "--check"])
        assert code == 2

    def test_bench_verb_json_output(self, capsys):
        code = main(["bench", "table1-priority", "--scale", "smoke", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == BENCH_FORMAT

    def test_bench_verb_unknown_experiment(self, capsys):
        assert main(["bench", "nope", "--scale", "smoke"]) == 2


class TestDigestDivergenceReport:
    """A cross-backend digest mismatch raises with a first-divergence report."""

    @staticmethod
    def _schedule(perturb=None):
        from repro.core.schedule import HopTiming, PacketRecord, Schedule

        records = []
        for i in range(4):
            base = 0.01 * i
            hops = [
                HopTiming("sw0", base, base + 1e-3, base + 2e-3),
                HopTiming("sw1", base + 3e-3, base + 4e-3, base + 5e-3),
            ]
            records.append(
                PacketRecord(
                    packet_id=i,
                    flow_id=0,
                    src="h0",
                    dst="h1",
                    size_bytes=1000.0,
                    ingress_time=base,
                    output_time=base + 6e-3,
                    path=["sw0", "sw1", "h1"],
                    hops=hops,
                )
            )
        if perturb is not None:
            records[perturb].hops[1].departure_time += 1e-6
        return Schedule(records)

    def test_report_names_first_divergent_packet_and_field(self, monkeypatch):
        import repro.core.replay as replay_module
        from repro.bench.harness import _digest_divergence_report
        from types import SimpleNamespace

        pair = (self._schedule(), self._schedule(perturb=2))
        monkeypatch.setattr(replay_module, "replay_pair", lambda *a, **k: pair)
        scenario = SimpleNamespace(name="I2-test", replay_mode="lstf")
        message = _digest_divergence_report(
            [(scenario, None, None, pair[0])], "python", "vectorized", "aa", "bb"
        )
        assert "bit-identity contract broken" in message
        assert "I2-test" in message
        assert "packet 2" in message
        assert "hops[1].departure_time" in message
        assert "'vectorized'" in message

    def test_fallback_when_re_replay_is_clean(self, monkeypatch):
        import repro.core.replay as replay_module
        from repro.bench.harness import _digest_divergence_report
        from types import SimpleNamespace

        same = self._schedule()
        monkeypatch.setattr(replay_module, "replay_pair", lambda *a, **k: (same, same))
        scenario = SimpleNamespace(name="I2-test", replay_mode="lstf")
        message = _digest_divergence_report(
            [(scenario, None, None, same)], "python", "vectorized", "aa", "bb"
        )
        assert "not deterministic" in message

    def test_run_bench_raises_the_report(self, monkeypatch):
        import repro.bench.harness as harness

        def fake_group(prepared, backend="python", repeat=1):
            return _bench(
                name=f"table1:replay@{backend}",
                digest="ref" if backend == "python" else "bad",
            )

        monkeypatch.setattr(harness, "bench_replay_path", fake_group)
        monkeypatch.setattr(harness, "prepare_replay_cells", lambda scale: [])
        monkeypatch.setattr(
            harness, "available_replay_backends", lambda: ["python", "vectorized"]
        )
        monkeypatch.setattr(
            harness,
            "_digest_divergence_report",
            lambda *args: "DIVERGENCE REPORT SENTINEL",
        )
        monkeypatch.setattr(
            harness, "bench_experiment", lambda *a, **k: _bench(name="table1")
        )
        with pytest.raises(RuntimeError, match="DIVERGENCE REPORT SENTINEL"):
            harness.run_bench(["table1"], scale="smoke")

    def test_cli_bench_reports_divergence_and_exits_1(self, monkeypatch, capsys):
        import repro.bench

        def exploding_run_bench(*args, **kwargs):
            raise RuntimeError("first divergence: packet 7 ...")

        monkeypatch.setattr(repro.bench, "run_bench", exploding_run_bench)
        assert main(["bench", "table1", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "first divergence: packet 7" in err
