"""Smoke-scale checks of the gated benchmark harness (``benchmarks/perf``)."""

from __future__ import annotations

import copy
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
SPEC = json.loads((PERF.parents[1] / "BENCHMARK.json").read_text())


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perf_{name}", PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load("run")
compare = _load("compare")


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """Every workload measured once in-process: one pass, one set-up round."""
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "WORK", tmp_path_factory.mktemp("work"))
    patch.setattr(run, "SETUP_ROUNDS", 1)
    patch.setattr(run, "calibrate", functools.partial(run.calibrate, 20_000))
    try:
        yield {
            name: run.run_workload(name, 1, 0.0, trace=name != "live-figures", scale_label="smoke")
            for name in run.WORKLOADS
        }
    finally:
        patch.undo()


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for section, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == declared
    names = [w["name"] for w in SPEC["workloads"]] + list(run.END_TO_END) + list(run.PER_LAYER)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(set(names)) == len(names)
    assert SPEC["command"][-1] == "benchmarks/perf/run.py" and SPEC["paths"] == ["benchmarks/perf"]


def test_every_workload_emits_every_metric_and_checks_its_rows(payloads):
    for name, payload in payloads.items():
        assert payload["correct"] and not payload["problems"] and payload["failed"] == 0, name
        assert payload["attempted"] == payload["counters"]["cells"] >= 1
        assert set(payload["end_to_end"]) == set(run.END_TO_END)
        assert all(entry["value"] > 0 for entry in payload["end_to_end"].values()), name
        assert payload["counters"]["events"] > 0
        if "per_layer" in payload:
            assert set(payload["per_layer"]) == set(run.PER_LAYER)
    cold, warm = payloads["table1-cold"], payloads["table1-warm"]
    # Same rows from a fresh recording, from the disk cache, and (checked
    # inside run_workload) from the staged traced pass of each.
    assert cold["counters"]["digest"] == warm["counters"]["digest"]
    assert (warm["counters"]["cache_hits"], warm["counters"]["cache_misses"]) == (14, 0)
    assert cold["per_layer"]["core.record_s"]["value"] > 0 == warm["per_layer"]["core.record_s"]["value"]
    assert warm["per_layer"]["core.schedule.load_s"]["value"] > 0
    assert payloads["parallel-mixed"]["per_layer"]["pipeline.runner.parallel_efficiency"]["value"] > 0


def test_span_self_time_arithmetic(payloads):
    for name in ("table1-cold", "parallel-mixed"):
        tracer = run.Tracer()
        tracer.spans = payloads[name]["spans"]
        own = tracer.self_times()
        roots = [s for s in tracer.spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["pass"]
        assert all(value >= -1e-9 for value in own.values())  # children never exceed parent
        assert sum(own.values()) == pytest.approx(roots[0]["end"] - roots[0]["start"])
        assert all(s["parent"] is None or s["parent"] < s["id"] for s in tracer.spans)


def test_only_one_workload_matches_the_full_run_under_an_ambient_backend(payloads, tmp_path):
    env = dict(os.environ, REPRO_BACKEND="vectorized")
    argv = [sys.executable, str(PERF / "run.py"), "--only", "table1-warm", "--scale", "smoke",
            "--seconds", "0", "--out", str(tmp_path)]
    subprocess.run(argv, check=True, env=env, stdout=subprocess.DEVNULL)
    alone = compare.load_results(tmp_path)["workloads"]["table1-warm"]
    assert alone["environment"]["default_backend"] == "python"
    assert alone["counters"] == payloads["table1-warm"]["counters"]
    spans = json.loads((tmp_path / "trace.json").read_text())["table1-warm"]
    assert any(s["name"] == "core.replay.python" and not s["extra"] for s in spans)
    assert not (PERF / ".work").exists() or not any((PERF / ".work").glob("table1-warm-*"))


def test_cache_directories_are_removed_on_failure(monkeypatch, tmp_path):
    def explode(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    monkeypatch.setattr(run, "pipeline_pass", explode)
    with pytest.raises(RuntimeError, match="injected"):
        run.run_workload("table1-warm", 1, 0.0, trace=False, scale_label="smoke")
    assert not (tmp_path / "work").exists()


def _result_set(scale: float = 1.0, digest: str = "b6ed2e3672e55a04") -> dict:
    def entry(metric, unit):
        worse = 1.0 / scale if metric.startswith("events_per") else scale
        return {"value": 100.0 * worse, "unit": unit, "samples": [99.0 * worse, 100.0 * worse, 101.0 * worse]}

    workload = {
        "correct": True,
        "attempted": 14,
        "failed": 0,
        "counters": {"digest": digest, "events": 676050},
        "end_to_end": {metric: entry(metric, unit) for metric, unit in run.END_TO_END.items()},
    }
    return {"seed": 1, "workloads": {name: copy.deepcopy(workload) for name in run.WORKLOADS}}


def test_compare_passes_identical_inputs_and_flags_slowdowns_and_row_changes(tmp_path, capsys):
    rows, problems = compare.compare(_result_set(), _result_set(), SPEC)
    assert not problems and {row[-1] for row in rows} == {"ok"}
    assert len(rows) == len(run.WORKLOADS) * len(run.END_TO_END)

    rows, problems = compare.compare(_result_set(), _result_set(scale=1.1), SPEC)
    assert not problems and {row[-1] for row in rows} == {"ok"}  # inside every bound

    rows, problems = compare.compare(_result_set(), _result_set(scale=1.4), SPEC)
    assert {row[-1] for row in rows} == {"worse"} and len(problems) == len(rows)

    _, problems = compare.compare(_result_set(), _result_set(digest="b6ed2e3672e55a05"), SPEC)
    assert any("counters differ" in problem for problem in problems)

    for label, payload in (("a", _result_set()), ("b", _result_set(scale=1.4))):
        (tmp_path / f"{label}.json").write_text(json.dumps(payload))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "worse" in capsys.readouterr().out
