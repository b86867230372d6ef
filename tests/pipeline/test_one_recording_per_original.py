"""One recording per original: a pool groups schedule keys by recording key.

A fault plan and a replay-mode slack policy act on the replay leg only, so
the scenarios that differ only in them record the same original schedule.
Their cache keys keep that provenance; their *recording key* — the
``scenario_cache_key`` of the scenario's :func:`recording_twin` — does not,
and a pooled run records once per recording key, then stores that schedule
under every key of it, with the same bytes a recording of each key writes.
"""

import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.faults import FaultsDefinition, fault_scenarios
from repro.experiments.table1 import default_scenario
from repro.pipeline import cache as cache_module
from repro.pipeline import default_registry, run_pipeline
from repro.pipeline import experiment as experiment_module
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import ScenarioRegistry, recording_twin, scenario_cache_key

SMOKE = ExperimentScale.smoke()
GOLDEN_POLICY_KEYS = Path(__file__).parent.parent / "data" / "golden_policy_keys.json"

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched function reaches pool workers only through fork",
)


def recording_key(scenario):
    return scenario_cache_key(recording_twin(scenario))


def tree(root):
    """Every file under ``root``, by relative path, as raw bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def count_calls(monkeypatch, module, name, log):
    """Append one line to ``log`` per call of ``module.name`` (pool workers too)."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def calls(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestRecordingKey:
    def test_faults_share_the_fault_free_key(self):
        base, *faulted = fault_scenarios(SMOKE)
        assert base.faults is None
        assert {recording_key(s) for s in faulted} == {scenario_cache_key(base)}
        assert len({scenario_cache_key(s) for s in faulted}) == len(faulted)

    def test_recording_key_is_the_twins_cache_key(self):
        scenario = replace(
            fault_scenarios(SMOKE)[1], slack_policy="zero", fault_seed=3
        )
        twin = replace(scenario, slack_policy=None, faults=None, fault_seed=0)
        assert recording_twin(scenario) == twin
        assert recording_key(scenario) == scenario_cache_key(twin)
        assert recording_key(scenario) != scenario_cache_key(scenario)

    def test_golden_policy_keys(self):
        """A replay-mode policy records the policy-free original; a live-mode
        policy shaped its recording, so it keeps its own key."""
        golden = json.loads(GOLDEN_POLICY_KEYS.read_text())
        scales = {"smoke": SMOKE, "quick": ExperimentScale.quick()}
        checked = 0
        for label, key in golden.items():
            scale_name, mode, policy = label.split("/", 2)
            if mode not in ("live", "replay"):
                continue
            base = default_scenario(scales[scale_name], original="lstf", name="I2-1G-10G")
            scenario = replace(base, slack_policy=policy, slack_mode=mode)
            expected = key if mode == "live" else scenario_cache_key(base)
            assert recording_key(scenario) == expected, label
            checked += 1
        assert checked >= 12


@fork_only
class TestPooledRecording:
    def test_a_pool_records_once_per_recording_key(self, tmp_path, monkeypatch):
        """A cold ``faults heuristics`` run: a pool records once per recording
        key, a serial run once per key; both miss once per key."""
        names = ["faults", "heuristics"]
        cells = [cell for name in names for cell in default_registry().get(name).cells(SMOKE)]
        keys = {scenario_cache_key(cell.spec) for cell in cells}
        originals = {recording_key(cell.spec) for cell in cells}
        assert len(originals) < len(keys)
        log = tmp_path / "record.calls"
        count_calls(monkeypatch, experiment_module, "record_scenario_schedule", log)
        expected = {1: len(keys), 2: len(originals)}
        for workers, recordings in expected.items():
            log.unlink(missing_ok=True)
            summary = run_pipeline(
                names, scale=SMOKE, workers=workers, cache_dir=str(tmp_path / f"w{workers}")
            )
            assert not summary.errors and summary.workers == workers
            assert calls(log) == summary.records_computed == recordings
            assert summary.cache_misses == len(keys)

    def test_a_group_wider_than_the_memory_cache_decodes_nothing(
        self, tmp_path, monkeypatch
    ):
        """Nine fault seeds on one original — more keys than the cache's 8
        memory entries: one recording, no entry read back, serial rows."""
        base = fault_scenarios(SMOKE)[0]
        scenarios = [
            replace(base, name=f"seed-{seed}", faults="loss-5pct", fault_seed=seed)
            for seed in range(9)
        ]
        assert ScheduleCache().memory_entries < len(scenarios)
        registry = ScenarioRegistry()
        registry.register(FaultsDefinition(scenarios=scenarios))

        def rows(workers):
            summary = run_pipeline(
                ["faults"], scale=SMOKE, workers=workers, registry=registry,
                cache_dir=str(tmp_path / f"w{workers}"),
            )
            assert not summary.errors and summary.cache_misses == len(scenarios)
            return summary.results["faults"].rows

        serial = rows(1)
        records, loads = tmp_path / "record.calls", tmp_path / "load.calls"
        count_calls(monkeypatch, experiment_module, "record_scenario_schedule", records)
        count_calls(monkeypatch, cache_module, "load_schedule", loads)
        assert rows(2) == serial
        assert (calls(records), calls(loads)) == (1, 0)
        assert tree(tmp_path / "w1") == tree(tmp_path / "w2")


@pytest.mark.parametrize("shard_packets", [None, 10], ids=["default", "shards-10"])
def test_pooled_and_serial_cold_caches_are_byte_identical(tmp_path, shard_packets):
    """Every key a pool stores from its group's one recording holds the bytes
    a serial run's own recording of that key writes (meta included) — also
    where the pool's later stores write the first store's shard bodies."""
    names = ["faults", "heuristics", "scale"]
    summaries = {
        workers: run_pipeline(
            names, scale=SMOKE, workers=workers, cache_dir=str(tmp_path / f"w{workers}"),
            shard_packets=shard_packets,
        )
        for workers in (1, 2)
    }
    serial, pooled = summaries[1], summaries[2]
    assert pooled.workers == 2 and not serial.errors and not pooled.errors
    assert pooled.records_computed < pooled.cache_misses == serial.cache_misses
    assert serial.records_computed == serial.cache_misses
    for name in names:
        assert pooled.results[name].rows == serial.results[name].rows
    serial_tree = tree(tmp_path / "w1")
    assert serial_tree and tree(tmp_path / "w2") == serial_tree
    assert any(".shard-" in name for name in serial_tree) == (shard_packets is not None)
