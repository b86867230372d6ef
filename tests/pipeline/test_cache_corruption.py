"""Graceful degradation when on-disk schedule-cache entries are corrupt."""

import gzip
import json
import logging

import pytest

from repro.experiments import ExperimentScale
from repro.pipeline import Scenario, ScheduleCache, replay_scenario, run_pipeline
from repro.pipeline.experiment import scenario_cache_key

SMOKE = ExperimentScale.smoke()


def scenario():
    return Scenario(name="corrupt-test", scale=SMOKE, utilization=0.5)


def entry_path(cache_dir):
    """Record once and return the on-disk entry's path."""
    cache = ScheduleCache(cache_dir)
    replay_scenario(scenario(), cache=cache)
    assert cache.disk_entries() == 1
    [path] = list(cache_dir.rglob("*.jsonl.gz"))
    return path


class TestCorruptEntries:
    def test_truncated_gzip_is_quarantined_and_re_recorded(self, tmp_path, caplog):
        path = entry_path(tmp_path)
        # Truncate mid-stream: gzip decompression now fails with EOFError.
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        fresh = ScheduleCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.cache"):
            replay_scenario(scenario(), cache=fresh)
        assert fresh.stats() == {"hits": 0, "misses": 1, "corrupt_entries": 1}
        assert path.with_name(path.name + ".corrupt").exists()
        assert any("corrupt" in record.message for record in caplog.records)
        # The re-recorded entry is valid again: a third cache hits it.
        third = ScheduleCache(tmp_path)
        replay_scenario(scenario(), cache=third)
        assert third.stats() == {"hits": 1, "misses": 0, "corrupt_entries": 0}

    def test_garbage_bytes_are_quarantined(self, tmp_path):
        path = entry_path(tmp_path)
        path.write_bytes(b"this is not gzip at all")
        fresh = ScheduleCache(tmp_path)
        replay_scenario(scenario(), cache=fresh)
        assert fresh.corrupt_entries == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_valid_gzip_invalid_json_is_quarantined(self, tmp_path):
        path = entry_path(tmp_path)
        with gzip.open(path, "wt") as handle:
            handle.write("{not json\n")
        fresh = ScheduleCache(tmp_path)
        replay_scenario(scenario(), cache=fresh)
        assert fresh.corrupt_entries == 1

    def test_corrupt_deflate_bodies_are_quarantined_and_re_recorded(self, tmp_path):
        """64 bytes flipped a third of the way into every table1 entry: zlib
        itself rejects most bodies, and those must be quarantined too."""
        clean = run_pipeline(["table1"], scale=SMOKE, cache_dir=str(tmp_path))
        entries = list(tmp_path.rglob("*.jsonl.gz"))
        for path in entries:
            payload = bytearray(path.read_bytes())
            body = slice(len(payload) // 3, len(payload) // 3 + 64)
            payload[body] = bytes(byte ^ 0xFF for byte in payload[body])
            path.write_bytes(bytes(payload))
        recovered = run_pipeline(["table1"], scale=SMOKE, cache_dir=str(tmp_path))
        assert recovered.errors == []
        assert recovered.results["table1"].rows == clean.results["table1"].rows
        assert recovered.cache_misses == clean.cache_misses == len(entries)
        assert all(path.with_name(path.name + ".corrupt").exists() for path in entries)

    def test_rows_survive_corruption(self, tmp_path):
        """The row computed against the re-recorded schedule is identical."""
        clean = replay_scenario(scenario(), cache=ScheduleCache(tmp_path))
        [path] = list(tmp_path.rglob("*.jsonl.gz"))
        path.write_bytes(b"garbage")
        recovered = replay_scenario(scenario(), cache=ScheduleCache(tmp_path))
        assert recovered.overdue_fraction == clean.overdue_fraction
        assert len(recovered.replayed) == len(clean.replayed)


def _first_row(change):
    """Damage: the entry's first packet row with ``change`` applied."""

    def damage(path):
        with gzip.open(path, "rt") as handle:
            header, first, *rest = handle.read().splitlines()
        with gzip.open(path, "wt") as handle:
            handle.write("\n".join([header, json.dumps({**json.loads(first), **change}), *rest]) + "\n")

    return damage


def _header_as_array(path):
    with gzip.open(path, "rt") as handle:
        header, *rest = handle.read().splitlines()
    with gzip.open(path, "wt") as handle:
        handle.write("\n".join([json.dumps(list(json.loads(header).values())), *rest]) + "\n")


def _header_packets(*value):
    """Damage: the entry's header with ``packets`` set to ``value``, or
    without ``packets`` when no value is given."""

    def damage(path):
        with gzip.open(path, "rt") as handle:
            header, *rest = handle.read().splitlines()
        header = json.loads(header)
        del header["packets"]
        if value:
            header["packets"] = value[0]
        with gzip.open(path, "wt") as handle:
            handle.write("\n".join([json.dumps(header), *rest]) + "\n")
        return [path]

    return damage


def _shards_keyed_by_index(manifest):
    data = json.loads(manifest.read_text())
    data["shards"] = {str(index): shard for index, shard in enumerate(data["shards"])}
    manifest.write_text(json.dumps(data) + "\n")


#: Entries that decode as JSON but hold a field of the wrong shape or type:
#: ``(shard_packets, damage)``; a small ``shard_packets`` stores a manifest.
MALFORMED = {
    "null-path": (None, _first_row({"path": None})),
    "list-packet-id": (None, _first_row({"packet_id": [1, 2]})),
    "array-header": (None, _header_as_array),
    "header-without-packets": (None, _header_packets()),
    "shards-not-a-list": (10, _shards_keyed_by_index),
}


class TestMalformedEntries:
    @pytest.mark.parametrize("shard_packets, damage", MALFORMED.values(), ids=MALFORMED)
    def test_is_quarantined_and_re_recorded(self, tmp_path, shard_packets, damage):
        options = {} if shard_packets is None else {"shard_packets": shard_packets}
        clean = replay_scenario(scenario(), cache=ScheduleCache(tmp_path, **options))
        entry = ScheduleCache(tmp_path, **options).entry_path(scenario_cache_key(scenario()))
        assert entry.name.endswith(".manifest.json" if shard_packets else ".jsonl.gz")
        damage(entry)
        fresh = ScheduleCache(tmp_path, **options)
        recovered = replay_scenario(scenario(), cache=fresh)
        assert fresh.stats() == {"hits": 0, "misses": 1, "corrupt_entries": 1}
        assert entry.with_name(entry.name + ".corrupt").exists()
        assert list(recovered.original) == list(clean.original)
        assert list(recovered.replayed) == list(clean.replayed)
        assert recovered.metrics == clean.metrics


def _manifest_shards_not_a_list(cache_dir):
    manifests = list(cache_dir.rglob("*.manifest.json"))
    for manifest in manifests:
        data = json.loads(manifest.read_text())
        data["shards"] = "x"
        manifest.write_text(json.dumps(data) + "\n")
    return manifests


def _every_entry(damage):
    """Damage every single-file entry under a cache dir."""

    def damage_all(cache_dir):
        return [path for entry in cache_dir.rglob("*.jsonl.gz") for path in damage(entry)]

    return damage_all


def _shard_3_cut_in_half(cache_dir):
    shards = list(cache_dir.rglob("*.shard-3.jsonl.gz"))
    for shard in shards:
        payload = shard.read_bytes()
        shard.write_bytes(payload[: len(payload) // 2])
    return shards


#: Damage a scale stats cell meets outside ``get_or_record``: in shard
#: planning (the manifest or a single file's header) or in a shard task (one
#: shard file).  ``(shard packets of the run that writes the entries, damage,
#: what the damage quarantines)``; ``None`` writes at the default shard size,
#: which stores smoke-scale entries as single files.
SCALE_DAMAGE = {
    "manifest-shards-x": ("10", _manifest_shards_not_a_list, "*.manifest.json.corrupt"),
    "shard-3-truncated": ("10", _shard_3_cut_in_half, "*.manifest.json.corrupt"),
    "header-without-packets": (None, _every_entry(_header_packets()), "*.jsonl.gz.corrupt"),
    "header-packets-null": (None, _every_entry(_header_packets(None)), "*.jsonl.gz.corrupt"),
}


class TestScaleStatsCellsReadThroughTheCache:
    """``run scale --shard-packets 10`` over a damaged entry: the run that
    meets the damage quarantines, re-records and prints a clean run's rows."""

    @staticmethod
    def run_scale(cache_dir, workers, capsys, shard_packets="10"):
        from repro.__main__ import main

        argv = ["run", "scale", "--scale", "smoke", "--json"]
        argv += [] if shard_packets is None else ["--shard-packets", shard_packets]
        code = main([*argv, "--workers", str(workers), "--cache-dir", str(cache_dir)])
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("written_at, damage, quarantined", SCALE_DAMAGE.values(), ids=SCALE_DAMAGE)
    def test_the_first_run_after_the_damage_succeeds(
        self, tmp_path, capsys, written_at, damage, quarantined, workers
    ):
        code, written = self.run_scale(tmp_path / "clean", workers, capsys, written_at)
        assert code == 0 and written["errors"] == []
        # A stats row's float sums are chunked by the reading run's shard
        # size, so the clean rows come from a run at the recovering run's.
        clean = written if written_at == "10" else self.run_scale(tmp_path / "ref", workers, capsys)[1]
        assert clean["errors"] == []
        assert damage(tmp_path / "clean")  # the entries the clean run left
        code, recovered = self.run_scale(tmp_path / "clean", workers, capsys)
        assert (code, recovered["errors"]) == (0, [])
        assert recovered["scale"]["rows"] == clean["scale"]["rows"]
        assert list((tmp_path / "clean").rglob(quarantined))


class TestQuarantineUnderReadOnlyCache:
    """The `.corrupt` rename itself failing must not break the run."""

    def test_failed_rename_is_tolerated(self, tmp_path, caplog, monkeypatch):
        # Simulate EACCES on the rename regardless of who runs the suite
        # (root bypasses directory permissions, so chmod alone cannot).
        import repro.pipeline.cache as cache_module

        path = entry_path(tmp_path)
        path.write_bytes(b"garbage")

        real_replace = cache_module.os.replace

        def deny_replace(src, dst):
            # Only the quarantine rename fails; save_schedule's atomic
            # tmp->final rename (same os module) keeps working.
            if str(dst).endswith(".corrupt"):
                raise OSError(13, "Permission denied", str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", deny_replace)
        fresh = ScheduleCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.cache"):
            result = replay_scenario(scenario(), cache=fresh)
        assert fresh.corrupt_entries == 1
        assert result.replayed is not None  # the run still re-recorded
        assert not path.with_name(path.name + ".corrupt").exists()
        assert any("already quarantined" in rec.message for rec in caplog.records)

    @pytest.mark.skipif(
        __import__("os").geteuid() == 0,
        reason="root bypasses directory write permissions",
    )
    def test_read_only_cache_dir_still_re_records(self, tmp_path):
        import os as _os

        path = entry_path(tmp_path)
        path.write_bytes(b"garbage")
        entry_dir = path.parent
        entry_dir.chmod(0o555)  # rename blocked; the entry file stays writable
        try:
            fresh = ScheduleCache(tmp_path)
            result = replay_scenario(scenario(), cache=fresh)
            assert fresh.corrupt_entries == 1
            assert result.replayed is not None
            assert not path.with_name(path.name + ".corrupt").exists()
        finally:
            entry_dir.chmod(0o755)
