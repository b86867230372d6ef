"""The columnar ``Schedule``: on-disk contract, cold == warm, views, pickling.

One module-scoped cold run of the 14 quick ``table1`` cells (seed 1) feeds
every test here, so the whole file costs one recording pass.
"""

import gzip
import hashlib
import pickle

import pytest

from repro.core.metrics import compare_schedules, lateness_distribution
from repro.core.replay import replay_schedule
from repro.core.schedule import PacketRecord, Schedule, iter_schedule_columns, load_schedule
from repro.diff import first_divergence
from repro.experiments.config import ExperimentScale
from repro.pipeline import ScheduleCache, default_registry
from repro.pipeline.experiment import replay_scenario, scenario_cache_key
from repro.pipeline.runner import backend_scope

#: sha256 of the *decompressed* quick seed-1 ``I2-1G-10G@70`` cache entry,
#: captured on the commit before the encoder moved from records to columns.
I2_PAYLOAD_SHA256 = "48b9f5ca019d2b54f4e8e6715b31146dc01856438930828bec8e808526f897fd"


@pytest.fixture(scope="module")
def table1_cold(tmp_path_factory):
    """``(cache_dir, [(cell, cold ReplayResult)])`` for the quick table1 cells."""
    cache_dir = tmp_path_factory.mktemp("table1-cache")
    cache = ScheduleCache(cache_dir)
    results = []
    for cell in default_registry().get("table1").cells(ExperimentScale.quick()):
        results.append((cell, replay_scenario(cell.spec, cell.mode, cache=cache)))
    assert cache.misses == len(results) == 14
    return cache_dir, results


def _entry_path(cache_dir, cell):
    return ScheduleCache(cache_dir).path_for(scenario_cache_key(cell.spec))


def test_on_disk_payload_is_pinned(table1_cold):
    cache_dir, results = table1_cold
    cell = next(cell for cell, _ in results if cell.label.startswith("I2-1G-10G@70"))
    payload = gzip.decompress(_entry_path(cache_dir, cell).read_bytes())
    assert hashlib.sha256(payload).hexdigest() == I2_PAYLOAD_SHA256


def test_cold_and_warm_compare_equal_to_the_bit(table1_cold):
    """A fresh recording (delivery order in) and its cache-loaded twin
    (canonical order in) must score identically — floats, ratio order and all."""
    cache_dir, results = table1_cold
    warm_cache = ScheduleCache(cache_dir)
    for cell, cold in results:
        warm = replay_scenario(cell.spec, cell.mode, cache=warm_cache)
        assert warm.metrics == cold.metrics, cell.label
        assert lateness_distribution(warm.original, warm.replayed) == lateness_distribution(
            cold.original, cold.replayed
        ), cell.label
        assert cold.metrics.mean_lateness.hex() == warm.metrics.mean_lateness.hex()
    assert warm_cache.misses == 0


def test_warm_accelerated_replay_builds_no_record_objects(table1_cold, views_built):
    cache_dir, results = table1_cold
    cell, cold = results[0]
    built = views_built
    with backend_scope("vectorized"):
        warm = replay_scenario(cell.spec, cell.mode, cache=ScheduleCache(cache_dir))
    assert warm.metrics == cold.metrics
    assert not built, built

    # The cursor's decode of the same file builds none either.
    batches = list(iter_schedule_columns(_entry_path(cache_dir, cell)))
    assert sum(len(cols.packet_id) for cols in batches) == len(warm.original)
    assert not built, built

    # Objects remain one call away, equal to what the object paths produce:
    # views of the cursor's batches, and the reference engine's replay.
    stored = [r for cols in batches for r in Schedule.from_columns(cols).records()]
    assert warm.original.records() == stored
    assert [warm.original.record(r.packet_id) for r in stored] == stored
    assert built["PacketRecord"] >= len(stored)
    reference = replay_schedule(cell.spec.build_topology(), warm.original, cell.mode, backend="python")
    assert warm.replayed.records() == reference.records()
    assert first_divergence(warm.replayed, reference) is None


def test_views_are_snapshots(table1_cold):
    cache_dir, results = table1_cold
    schedule, _ = load_schedule(_entry_path(cache_dir, results[0][0]))
    view = schedule.records()[0]
    stored_output = schedule.columns().output_time[0]
    view.output_time += 1.0
    view.hops.clear()
    assert schedule.columns().output_time[0] == stored_output
    assert schedule.columns().hop_offset[1] > 0


@pytest.mark.parametrize("which", ["recorded", "loaded", "kernel-wrapped"])
def test_pickle_round_trip(table1_cold, which):
    cache_dir, results = table1_cold
    cell, cold = results[0]
    if which == "recorded":
        schedule = cold.original
    elif which == "loaded":
        schedule, _ = load_schedule(_entry_path(cache_dir, cell))
    else:
        schedule = replay_schedule(
            cell.spec.build_topology(), cold.original, cell.mode, backend="vectorized"
        )
    clone = pickle.loads(pickle.dumps(schedule))
    assert clone.columns() == schedule.columns()
    assert clone.records() == schedule.records()
    assert len(clone) == len(schedule) and clone.packet_ids() == schedule.packet_ids()
    threshold = cold.metrics.threshold
    assert compare_schedules(cold.original, clone, threshold) == compare_schedules(
        cold.original, schedule, threshold
    )


def test_adding_to_a_replayed_schedule_leaves_the_original_alone(table1_cold):
    """A kernel-wrapped replay shares its original's identity columns by
    reference; growing either side must copy first."""
    _, results = table1_cold
    cell, cold = results[0]
    original = cold.original
    replayed = replay_schedule(cell.spec.build_topology(), original, cell.mode, backend="vectorized")
    assert replayed.columns().packet_id is original.columns().packet_id
    before = len(original)
    extra = PacketRecord(10**9, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"])
    replayed.add(extra)
    assert len(replayed) == before + 1 and len(original) == before
    assert len(original.columns().packet_id) == before
    assert replayed.record(10**9) == extra
    original.add(extra)
    assert len(original.columns().packet_id) == before + 1 == len(replayed.columns().packet_id)
