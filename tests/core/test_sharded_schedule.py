"""Sharded schedule persistence: round trips, diff parity, failure modes.

The shard layout contract (docs/scale.md): sharding is *storage, never
content* — a schedule saved as ``<key>.shard-<i>.jsonl.gz`` chunks plus a
manifest loads back identical to the single-file form, preserves canonical
``(ingress_time, packet_id)`` order across arbitrary shard boundaries, and
``repro diff`` reports the two forms bit-clean.  A truncated or missing
shard fails loudly with the same exit-2 CLI behaviour as every other
malformed schedule file.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import zlib
from collections import Counter

import pytest

from repro.__main__ import main as cli_main
from repro.core import schedule as schedule_module
from repro.core.schedule import (
    MANIFEST_FORMAT,
    MANIFEST_SUFFIX,
    Schedule,
    iter_schedule_columns,
    load_manifest,
    load_schedule,
    save_schedule,
    _schedule_blocks,
    save_schedule_sharded,
    shard_file_name,
)


def make_row(pid: int, ingress: float) -> dict:
    return {
        "packet_id": pid,
        "flow_id": pid % 5,
        "src": "a",
        "dst": "b",
        "size_bytes": 1500.0,
        "ingress_time": ingress,
        "output_time": ingress + 0.25,
        "path": ["a", "r", "b"],
        "hops": [("r", ingress, ingress + 0.1, ingress + 0.2)],
        "deadline": ingress + 1.0 if pid % 3 == 0 else None,
    }


@pytest.fixture()
def schedule() -> Schedule:
    # Deliberately scrambled insertion order and ties on ingress_time, so
    # canonical ordering (ingress, then packet id) actually has work to do.
    rows = [make_row(pid, ingress=float((pid * 7) % 10) / 10.0) for pid in range(23)]
    rows.reverse()
    return Schedule.from_rows(rows)


def cursor_rows(path) -> list:
    """The stored packets as the column cursor decodes them, batch after batch."""
    return [row for cols in iter_schedule_columns(path) for row in Schedule.from_columns(cols)]


class TestRoundTrip:
    @pytest.mark.parametrize("shard_packets", [1, 2, 3, 7, 1000])
    def test_round_trip_preserves_canonical_order(self, tmp_path, schedule, shard_packets):
        path = tmp_path / f"sched{MANIFEST_SUFFIX}"
        shards = save_schedule_sharded(
            path, schedule, meta={"origin": "test"}, shard_packets=shard_packets
        )
        assert len(shards) == -(-len(schedule) // shard_packets)
        loaded, meta = load_schedule(path)
        assert meta == {"origin": "test"}
        assert list(loaded) == list(schedule)
        # The column cursor yields the same packets in the same order
        # without ever holding the whole schedule.
        assert cursor_rows(path) == list(schedule)

    def test_sharded_equals_single_file_form(self, tmp_path, schedule):
        single = tmp_path / "sched.jsonl.gz"
        manifest = tmp_path / f"sched{MANIFEST_SUFFIX}"
        save_schedule(single, schedule)
        save_schedule_sharded(manifest, schedule, shard_packets=4)
        loaded_single, _ = load_schedule(single)
        loaded_sharded, _ = load_schedule(manifest)
        assert list(loaded_sharded) == list(loaded_single)
        assert json.dumps(cursor_rows(single)) == json.dumps(cursor_rows(manifest))

    def test_empty_schedule_round_trips(self, tmp_path):
        path = tmp_path / f"empty{MANIFEST_SUFFIX}"
        assert save_schedule_sharded(path, Schedule()) == []
        loaded, _ = load_schedule(path)
        assert len(loaded) == 0
        assert list(iter_schedule_columns(path)) == []

    def test_manifest_describes_ingress_chunks(self, tmp_path, schedule):
        path = tmp_path / f"sched{MANIFEST_SUFFIX}"
        save_schedule_sharded(path, schedule, shard_packets=5)
        manifest = load_manifest(path)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["packets"] == len(schedule)
        ordered = list(schedule)
        start = 0
        previous_max = float("-inf")
        for index, shard in enumerate(manifest["shards"]):
            assert shard["file"] == shard_file_name(path, index)
            chunk = ordered[start : start + shard["packets"]]
            assert shard["ingress_min"] == chunk[0]["ingress_time"]
            assert shard["ingress_max"] == chunk[-1]["ingress_time"]
            # Chunks are contiguous slices of the canonical order, so their
            # ingress ranges are non-decreasing across shards.
            assert shard["ingress_min"] >= previous_max
            previous_max = shard["ingress_max"]
            start += shard["packets"]
        assert start == len(schedule)

    def test_each_shard_is_a_valid_schedule_file(self, tmp_path, schedule):
        path = tmp_path / f"sched{MANIFEST_SUFFIX}"
        names = save_schedule_sharded(path, schedule, shard_packets=6)
        total = 0
        for name in names:
            shard_schedule, shard_meta = load_schedule(tmp_path / name)
            total += len(shard_schedule)
            assert shard_meta == {"shard_index": names.index(name)}
        assert total == len(schedule)

    def test_bad_manifest_path_rejected(self, tmp_path, schedule):
        with pytest.raises(ValueError):
            save_schedule_sharded(tmp_path / "sched.jsonl.gz", schedule)
        with pytest.raises(ValueError):
            save_schedule_sharded(
                tmp_path / f"s{MANIFEST_SUFFIX}", schedule, shard_packets=0
            )


class TestLaterSavesReuseShardBodies:
    """A shard's bytes after its gzip name field depend on its rows alone, so
    a second sharded save of one schedule writes the first save's bodies
    under its own names — without encoding or compressing — and every file
    is the bytes a fresh gzip write of that shard holds."""

    @pytest.fixture()
    def calls(self, monkeypatch) -> Counter:
        """Counts of encoder lookups, encoder calls and zlib compressions."""
        calls: Counter = Counter()
        lookup = schedule_module.native_codecs

        def counting_lookup():
            calls["lookup"] += 1
            codecs = lookup()
            if codecs is None:
                return None
            decode, encode = codecs

            def counting_encode(*args):
                calls["encode"] += 1
                return encode(*args)

            return decode, counting_encode

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(schedule_module, "native_codecs", counting_lookup)
        monkeypatch.setattr(zlib, "compressobj", counted("zlib", zlib.compressobj))
        monkeypatch.setattr(zlib, "crc32", counted("zlib", zlib.crc32))
        return calls

    @staticmethod
    def fresh_write(target, schedule, index, shard_packets) -> bytes:
        """A gzip write of shard ``index``'s blocks, as a text-mode writer
        leaves it (its closing ``Z_SYNC_FLUSH`` included)."""
        start = index * shard_packets
        rows = range(start, min(start + shard_packets, len(schedule)))
        buffer = io.BytesIO()
        with gzip.GzipFile(str(target), "wb", 5, buffer, mtime=0) as stream:
            stream.writelines(
                _schedule_blocks(str(target), schedule.columns(), rows, {"shard_index": index})
            )
            stream.flush()
        return buffer.getvalue()

    def saved(self, directory, schedule, key, calls, shard_packets=4) -> Counter:
        """Save ``schedule`` as ``key``; the calls the save made."""
        before = Counter(calls)
        save_schedule_sharded(
            directory / f"{key}{MANIFEST_SUFFIX}", schedule, meta={"key": key}, shard_packets=shard_packets
        )
        return Counter(calls) - before

    def test_second_save_reuses_bodies_and_both_equal_fresh_writes(self, tmp_path, schedule, calls):
        first = self.saved(tmp_path, schedule, "first", calls)
        assert first["lookup"] and first["zlib"]
        second = self.saved(tmp_path, schedule, "second", calls)
        assert second == Counter()
        for key in ("first", "second"):
            manifest = load_manifest(tmp_path / f"{key}{MANIFEST_SUFFIX}")
            assert manifest["meta"] == {"key": key}  # written fresh
            for index, shard in enumerate(manifest["shards"]):
                target = tmp_path / shard["file"]
                assert target.read_bytes() == self.fresh_write(target, schedule, index, 4)
            loaded, _ = load_schedule(tmp_path / f"{key}{MANIFEST_SUFFIX}")
            assert list(loaded) == list(schedule)

    def test_another_shard_size_encodes_again(self, tmp_path, schedule, calls):
        self.saved(tmp_path, schedule, "four", calls)
        again = self.saved(tmp_path, schedule, "five", calls, shard_packets=5)
        assert again["lookup"] and again["zlib"]
        for index, name in enumerate(load_manifest(tmp_path / f"five{MANIFEST_SUFFIX}")["shards"]):
            target = tmp_path / name["file"]
            assert target.read_bytes() == self.fresh_write(target, schedule, index, 5)

    def test_another_schedule_with_equal_columns_encodes_again(self, tmp_path, schedule, calls):
        self.saved(tmp_path, schedule, "one", calls)
        twin = Schedule.from_columns(schedule.columns())
        again = self.saved(tmp_path, twin, "twin", calls)
        assert again["lookup"] and again["zlib"]
        if calls["encode"]:  # the compiled encoder is available
            assert again["encode"]


class TestFailureModes:
    def _sharded(self, tmp_path, schedule, shard_packets=5):
        path = tmp_path / f"sched{MANIFEST_SUFFIX}"
        save_schedule_sharded(path, schedule, shard_packets=shard_packets)
        return path

    def test_missing_shard_raises_oserror(self, tmp_path, schedule):
        path = self._sharded(tmp_path, schedule)
        os.unlink(tmp_path / shard_file_name(path, 1))
        with pytest.raises(OSError):
            load_schedule(path)

    def test_truncated_shard_raises_valueerror(self, tmp_path, schedule):
        path = self._sharded(tmp_path, schedule)
        victim = tmp_path / shard_file_name(path, 0)
        lines = gzip.open(victim, "rt", encoding="utf-8").readlines()
        with gzip.open(victim, "wt", encoding="utf-8") as stream:
            stream.writelines(lines[:-2])
        with pytest.raises(ValueError):
            load_schedule(path)
        with pytest.raises(ValueError):
            list(iter_schedule_columns(path))

    def test_foreign_manifest_format_rejected(self, tmp_path):
        path = tmp_path / f"bogus{MANIFEST_SUFFIX}"
        path.write_text(json.dumps({"format": "something-else/1", "shards": []}) + "\n")
        with pytest.raises(ValueError):
            load_manifest(path)

    def test_manifest_shard_count_mismatch_rejected(self, tmp_path, schedule):
        path = self._sharded(tmp_path, schedule)
        manifest = json.loads(path.read_text())
        manifest["packets"] += 1
        path.write_text(json.dumps(manifest) + "\n")
        with pytest.raises(ValueError):
            load_schedule(path)

    def test_empty_manifest_file_rejected(self, tmp_path):
        path = tmp_path / f"empty{MANIFEST_SUFFIX}"
        path.write_text("")
        with pytest.raises(ValueError):
            load_manifest(path)


class TestCliDiffParity:
    @pytest.fixture(scope="class")
    def forms(self, tmp_path_factory):
        """The same recorded schedule in single-file and sharded form."""
        tmp_path = tmp_path_factory.mktemp("diff-shards")
        single = tmp_path / "sched.jsonl.gz"
        code = cli_main(
            ["record", "I2-1G-10G@70", "--scale", "smoke", "--out", str(single)]
        )
        assert code == 0
        schedule, meta = load_schedule(single)
        manifest = tmp_path / f"sched{MANIFEST_SUFFIX}"
        save_schedule_sharded(manifest, schedule, meta=meta, shard_packets=7)
        return str(single), str(manifest)

    def test_diff_reports_sharded_vs_single_bit_clean(self, forms, capsys):
        single, manifest = forms
        assert cli_main(["diff", single, manifest]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_diff_replay_accepts_sharded_schedule(self, forms, capsys):
        _, manifest = forms
        assert cli_main(["diff", "--replay", manifest]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_truncated_shard_exits_2(self, forms, tmp_path, capsys):
        single, manifest = forms
        schedule, _ = load_schedule(single)
        broken = tmp_path / f"broken{MANIFEST_SUFFIX}"
        save_schedule_sharded(broken, schedule, shard_packets=9)
        victim = tmp_path / shard_file_name(broken, 1)
        lines = gzip.open(victim, "rt", encoding="utf-8").readlines()
        with gzip.open(victim, "wt", encoding="utf-8") as stream:
            stream.writelines(lines[:-3])
        assert cli_main(["diff", single, str(broken)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_missing_shard_exits_2(self, forms, tmp_path, capsys):
        single, manifest = forms
        schedule, _ = load_schedule(single)
        broken = tmp_path / f"gone{MANIFEST_SUFFIX}"
        save_schedule_sharded(broken, schedule, shard_packets=9)
        os.unlink(tmp_path / shard_file_name(broken, 0))
        assert cli_main(["diff", single, str(broken)]) == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_replay_kernels_consume_sharded_entries(self, forms, backend):
        """The replay injector and the flat-array kernels see manifest-loaded
        schedules exactly as single-file ones: replaying either form of the
        same recording is bit-identical."""
        from repro.core.replay import replay_schedule
        from repro.sim.backend import check_backend
        from repro.topology.base import Topology

        try:
            check_backend(backend)
        except Exception as error:
            pytest.skip(f"{backend} backend unavailable: {error}")
        single, manifest = forms
        replayed = {}
        for path in (single, manifest):
            schedule, meta = load_schedule(path)
            topology = Topology.from_dict(meta["topology"])
            result = replay_schedule(
                topology, schedule, mode="lstf", backend=backend
            )
            replayed[path] = list(result)
        assert replayed[single] == replayed[manifest]
        assert len(replayed[single]) > 0


class TestCacheSharding:
    def _workload_bits(self):
        from repro.experiments.config import ExperimentScale
        from repro.experiments.table1 import default_scenario

        scenario = default_scenario(ExperimentScale.smoke(), name="shard-cache")
        return scenario.build_topology(), scenario.workload(), scenario

    def test_large_entries_shard_and_reload_identically(self, tmp_path):
        from repro.pipeline.cache import ScheduleCache
        from repro.pipeline.experiment import record_scenario_schedule

        topology, workload, scenario = self._workload_bits()
        recorded = record_scenario_schedule(scenario)
        sharding = ScheduleCache(tmp_path / "sharded", shard_packets=10)
        plain = ScheduleCache(tmp_path / "plain")
        schedule_a, key_a = sharding.get_or_record(
            topology, scenario.original, workload, scenario.seed, lambda: recorded
        )
        schedule_b, key_b = plain.get_or_record(
            topology, scenario.original, workload, scenario.seed, lambda: recorded
        )
        # Shard layout is storage, never key material.
        assert key_a == key_b
        manifest = sharding.manifest_path_for(key_a)
        assert manifest.exists()
        assert not sharding.path_for(key_a).exists()
        assert plain.path_for(key_b).exists()
        assert sharding.entry_path(key_a) == manifest
        assert sharding.disk_entries() == 1
        # A cold cache loads the sharded entry back bit-identically.
        cold = ScheduleCache(tmp_path / "sharded", shard_packets=10)
        reloaded, _ = cold.get_or_record(
            topology,
            scenario.original,
            workload,
            scenario.seed,
            lambda: pytest.fail("sharded entry missed"),
        )
        assert cold.hits == 1 and cold.misses == 0
        assert list(reloaded) == list(recorded)

    def test_corrupt_manifest_quarantined_and_rerecorded(self, tmp_path):
        from repro.pipeline.cache import ScheduleCache
        from repro.pipeline.experiment import record_scenario_schedule

        topology, workload, scenario = self._workload_bits()
        recorded = record_scenario_schedule(scenario)
        cache = ScheduleCache(tmp_path, shard_packets=10)
        _, key = cache.get_or_record(
            topology, scenario.original, workload, scenario.seed, lambda: recorded
        )
        manifest = cache.manifest_path_for(key)
        manifest.write_text("{ not json\n")
        cold = ScheduleCache(tmp_path, shard_packets=10)
        reloaded, _ = cold.get_or_record(
            topology, scenario.original, workload, scenario.seed, lambda: recorded
        )
        assert cold.corrupt_entries == 1 and cold.misses == 1
        assert manifest.with_name(manifest.name + ".corrupt").exists()
        assert list(reloaded) == list(recorded)
