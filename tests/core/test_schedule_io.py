"""Schedule persistence: the JSON-lines round-trip must be lossless."""

import gc
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schedule as schedule_module
from repro.core.replay import evaluate_replay
from repro.core.schedule import (
    SCHEDULE_FORMAT,
    HopTiming,
    PacketRecord,
    Schedule,
    ScheduleColumns,
    iter_schedule_columns,
    load_schedule,
    save_schedule,
    save_schedule_sharded,
    shard_file_name,
)
from repro.pipeline.experiment import record_scenario_schedule
from repro.pipeline.scenario import Scenario
from repro.experiments import ExperimentScale
from repro.topology.base import Topology, dumbbell_topology

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
node_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)


@st.composite
def hop_timings(draw):
    arrival = draw(finite)
    start = draw(st.one_of(st.none(), finite))
    departure = draw(st.one_of(st.none(), finite))
    return HopTiming(
        node=draw(node_names),
        arrival_time=arrival,
        start_service_time=start,
        departure_time=departure,
    )


@st.composite
def packet_records(draw, packet_id):
    hops = draw(st.lists(hop_timings(), max_size=4))
    # Usually the path the hops imply; sometimes one that disagrees with the
    # hop nodes (hand-built schedules may, and storage must not "repair" it).
    path = draw(
        st.one_of(
            st.just([hop.node for hop in hops] + [draw(node_names)]),
            st.lists(node_names, max_size=5),
        )
    )
    return PacketRecord(
        packet_id=packet_id,
        flow_id=draw(st.integers(min_value=0, max_value=2**31)),
        src=draw(node_names),
        dst=draw(node_names),
        size_bytes=draw(st.floats(min_value=1.0, max_value=1e9, allow_nan=False)),
        ingress_time=draw(finite),
        output_time=draw(finite),
        path=path,
        hops=hops,
        flow_size_bytes=draw(st.one_of(st.none(), finite)),
        deadline=draw(st.one_of(st.none(), finite)),
    )


@st.composite
def record_lists(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=12))
    return [draw(packet_records(packet_id)) for packet_id in ids]


@st.composite
def schedules(draw):
    return Schedule(draw(record_lists()))


def cursor_columns(path) -> ScheduleColumns:
    """Every batch `iter_schedule_columns` yields, concatenated into one table."""
    whole = ScheduleColumns()
    for cols in iter_schedule_columns(path):
        whole.extend(list(cols.rows(range(len(cols.packet_id)))))
    return whole


# --------------------------------------------------------------------- #
# Property: save_schedule -> load_schedule is the identity
# --------------------------------------------------------------------- #
class TestRoundTripProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(schedule=schedules(), compressed=st.booleans())
    def test_round_trip_is_lossless(self, schedule, compressed, tmp_path):
        path = tmp_path / ("s.jsonl.gz" if compressed else "s.jsonl")
        save_schedule(path, schedule, meta={"n": len(schedule)})
        loaded, meta = load_schedule(path)
        assert meta == {"n": len(schedule)}
        assert sorted(loaded.packet_ids()) == sorted(schedule.packet_ids())
        for record in schedule:
            copy = loaded.record(record.packet_id)
            # Dataclass equality covers every field, including the full hop
            # vector with exact float values.
            assert copy == record
            # from_dict constructs positionally; the strategy builds by
            # keyword (None start/departure hops included), so equality
            # pins the positional order field for field.
            assert PacketRecord.from_dict(record.to_dict()) == record
            assert PacketRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(records=record_lists())
    def test_columns_lose_nothing_add_accepts(self, records, tmp_path):
        # records -> columns -> views -> file -> columns -> views: every field
        # of every record `add` takes (empty hops, hop nodes off the path,
        # None start/departure/deadline/flow size, any insertion order) must
        # come back exactly, in canonical order.
        canonical = sorted(records, key=lambda r: (r.ingress_time, r.packet_id))
        schedule = Schedule(records)
        assert schedule.records() == canonical
        assert list(schedule) == canonical and len(schedule) == len(records)
        for record in records:
            assert schedule.record(record.packet_id) == record
            assert schedule.get(record.packet_id) == record
            assert record.packet_id in schedule
            with pytest.raises(ValueError, match=f"duplicate packet id {record.packet_id}"):
                schedule.add(record)
        assert schedule.queueing_delays() == [r.total_queueing_delay for r in canonical]
        path = tmp_path / "s.jsonl.gz"
        save_schedule(path, schedule)
        loaded, _ = load_schedule(path)
        assert loaded.records() == canonical
        assert loaded.columns() == schedule.columns()
        # One decode loop, two consumers: the cursor's batches, concatenated,
        # are the loaded table field for field — one file or shards, one
        # batch per file or many, no packets at all.
        save_schedule_sharded(tmp_path / "two.manifest.json", schedule, shard_packets=2)
        save_schedule_sharded(tmp_path / "five.manifest.json", schedule, shard_packets=5)
        for batch in (512, 3):
            with mock.patch.object(schedule_module, "_DECODE_BATCH", batch):
                for stored in (path, tmp_path / "two.manifest.json", tmp_path / "five.manifest.json"):
                    assert cursor_columns(stored) == load_schedule(stored)[0].columns()
                    assert cursor_columns(stored) == schedule.columns()

    @settings(max_examples=15, deadline=None)
    @given(schedule=schedules())
    def test_records_sorted_identically_after_reload(self, schedule):
        # records() ordering (ingress, packet id) is what replay injection
        # uses; it must be stable across a round-trip.
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.jsonl")
            save_schedule(path, schedule)
            loaded, _ = load_schedule(path)
        assert [r.packet_id for r in loaded.records()] == [
            r.packet_id for r in schedule.records()
        ]


class TestPreDeadlineCompatibility:
    def test_records_without_deadline_field_load_as_none(self):
        """Schedule files written before deadlines existed must still load."""
        data = PacketRecord(
            packet_id=1,
            flow_id=1,
            src="a",
            dst="b",
            size_bytes=100.0,
            ingress_time=0.0,
            output_time=1.0,
            path=["a", "b"],
        ).to_dict()
        del data["deadline"]  # the pre-refactor on-disk shape
        assert PacketRecord.from_dict(data).deadline is None


# --------------------------------------------------------------------- #
# File-format edge cases
# --------------------------------------------------------------------- #
class TestFileFormat:
    def test_rejects_non_schedule_files(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-schedule/1 file"):
            load_schedule(path)

    def test_rejects_empty_files(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty schedule file"):
            load_schedule(path)

    def test_detects_truncation(self, tmp_path):
        schedule = Schedule(
            [
                PacketRecord(i, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"])
                for i in range(3)
            ]
        )
        path = tmp_path / "s.jsonl"
        save_schedule(path, schedule)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last record
        with pytest.raises(ValueError, match="truncated"):
            load_schedule(path)

    @pytest.mark.parametrize("hop", [["a", 0.0, 0.0], ["a", 0.0, 0.0, 0.1, 0.2], None])
    def test_malformed_hop_rows_are_value_errors(self, hop, tmp_path):
        data = PacketRecord(1, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"]).to_dict()
        data["hops"] = [hop]
        with pytest.raises(ValueError, match="packet 1: every hop must be"):
            PacketRecord.from_dict(data)
        # The column decoder (no PacketRecord in sight) must say the same.
        good = PacketRecord(0, 0, "a", "b", 100.0, 0.0, 1.0, ["a", "b"]).to_dict()
        header = {"format": SCHEDULE_FORMAT, "packets": 2, "meta": {}}
        path = tmp_path / "s.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in (header, good, data)))
        with pytest.raises(ValueError, match="packet 1: every hop must be"):
            load_schedule(path)

    def test_header_carries_format_tag(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_schedule(path, Schedule())
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == SCHEDULE_FORMAT
        assert header["packets"] == 0


# --------------------------------------------------------------------- #
# load_schedule pauses the cycle collector and must hand it back as found
# --------------------------------------------------------------------- #
class TestLoadLeavesGcAsFound:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.fixture
    def schedule(self):
        return Schedule(
            PacketRecord(i, 0, "a", "b", 100.0, float(i), i + 1.0, ["a", "b"])
            for i in range(5)
        )

    def test_on_success(self, gc_state, schedule, tmp_path):
        save_schedule(tmp_path / "s.jsonl.gz", schedule)
        loaded, _ = load_schedule(tmp_path / "s.jsonl.gz")
        assert gc.isenabled() is gc_state
        assert loaded.records() == schedule.records()

    def test_on_sharded_manifest(self, gc_state, schedule, tmp_path):
        manifest = tmp_path / "s.manifest.json"
        assert len(save_schedule_sharded(manifest, schedule, shard_packets=2)) == 3
        loaded, _ = load_schedule(manifest)
        assert gc.isenabled() is gc_state
        assert loaded.records() == schedule.records()

    def test_on_truncated_file(self, gc_state, schedule, tmp_path):
        path = tmp_path / "s.jsonl"
        save_schedule(path, schedule)
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_schedule(path)
        assert gc.isenabled() is gc_state

    def test_on_duplicate_packet_id(self, gc_state, schedule, tmp_path):
        path = tmp_path / "s.jsonl"
        save_schedule(path, schedule)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[-1:]) + "\n")
        with pytest.raises(ValueError, match="duplicate packet id 4"):
            load_schedule(path)
        assert gc.isenabled() is gc_state

    def test_record_cursor_never_toggles_the_collector(self, gc_state, schedule, tmp_path):
        # A generator that disabled GC would leave it off between yields —
        # i.e. in the caller's code — and forever if abandoned mid-stream.
        save_schedule(tmp_path / "s.jsonl", schedule)
        with mock.patch.object(schedule_module, "_DECODE_BATCH", 2):
            batches = iter_schedule_columns(tmp_path / "s.jsonl")
            with mock.patch.object(gc, "disable") as disable, mock.patch.object(gc, "enable") as enable:
                assert [len(cols.packet_id) for cols in batches] == [2, 2, 1]
        assert not disable.called and not enable.called
        assert gc.isenabled() is gc_state


# --------------------------------------------------------------------- #
# The decode loop's two consumers reject a damaged store identically
# --------------------------------------------------------------------- #
class TestBothConsumersRaiseAlike:
    @pytest.fixture
    def manifest(self, tmp_path):
        schedule = Schedule(
            PacketRecord(i, 0, "a", "b", 100.0, float(i), i + 1.0, ["a", "b"])
            for i in range(7)
        )
        path = tmp_path / "s.manifest.json"
        save_schedule_sharded(path, schedule, shard_packets=3)
        return path

    @staticmethod
    def both_errors(path):
        errors = []
        for consume in (load_schedule, lambda stored: list(iter_schedule_columns(stored))):
            with pytest.raises((ValueError, OSError)) as caught:
                consume(path)
            errors.append((type(caught.value), str(caught.value)))
        return errors

    def test_truncated_file(self, manifest):
        shard = manifest.parent / shard_file_name(manifest, 1)
        single = manifest.parent / "single.jsonl"
        save_schedule(single, load_schedule(shard)[0])
        single.write_text("".join(single.read_text().splitlines(keepends=True)[:-1]))
        loaded, cursored = self.both_errors(single)
        assert loaded == cursored and loaded[0] is ValueError
        assert "header promises 3 packets, found 2 (truncated file?)" in loaded[1]

    def test_foreign_format_tag(self, manifest):
        foreign = manifest.parent / "foreign.jsonl"
        foreign.write_text(json.dumps({"format": "something-else/1", "packets": 0}) + "\n")
        loaded, cursored = self.both_errors(foreign)
        assert loaded == cursored and loaded[0] is ValueError
        assert "not a repro-schedule/1 file" in loaded[1]

    def test_missing_shard(self, manifest):
        os.unlink(manifest.parent / shard_file_name(manifest, 2))
        loaded, cursored = self.both_errors(manifest)
        assert loaded == cursored and loaded[0] is FileNotFoundError

    @pytest.mark.parametrize("also_total", [False, True], ids=["total", "one-shard"])
    def test_manifest_shard_count_mismatch(self, manifest, also_total):
        data = json.loads(manifest.read_text())
        data["packets"] += 1
        if also_total:  # the sums agree, but shard 1 holds fewer than promised
            data["shards"][1]["packets"] += 1
        manifest.write_text(json.dumps(data) + "\n")
        loaded, cursored = self.both_errors(manifest)
        assert loaded == cursored and loaded[0] is ValueError
        assert ("manifest promises 4 packets, found 3" in loaded[1]) is also_total


# --------------------------------------------------------------------- #
# Topology spec round-trip (carried in schedule-file metadata)
# --------------------------------------------------------------------- #
class TestTopologySpecRoundTrip:
    def test_round_trip(self):
        topo = dumbbell_topology(
            num_pairs=2, bottleneck_bandwidth_bps=1e7, access_bandwidth_bps=1e8
        )
        clone = Topology.from_dict(topo.to_dict())
        assert clone == topo

    def test_bottleneck_transmission_time_matches_specs(self):
        topo = dumbbell_topology(
            num_pairs=2, bottleneck_bandwidth_bps=1e7, access_bandwidth_bps=1e8
        )
        assert topo.bottleneck_bandwidth_bps() == 1e7
        assert topo.bottleneck_transmission_time(1460) == pytest.approx(1460 * 8 / 1e7)


# --------------------------------------------------------------------- #
# End to end: a recorded schedule replays identically after a round-trip
# --------------------------------------------------------------------- #
class TestRecordedScheduleRoundTrip:
    def test_loaded_schedule_replays_identically(self, tmp_path):
        scale = ExperimentScale.smoke()
        scenario = Scenario(
            name="io-test",
            scale=scale,
            topology="internet2",
            topology_args=(("edge_core_gbps", 1.0), ("host_edge_gbps", 10.0)),
            utilization=0.5,
        )
        topology = scenario.build_topology()
        schedule = record_scenario_schedule(scenario, topology)
        path = tmp_path / "recorded.jsonl.gz"
        save_schedule(path, schedule, meta={"topology": topology.to_dict()})
        loaded, meta = load_schedule(path)
        assert len(loaded) == len(schedule)
        for record in schedule:
            assert loaded.record(record.packet_id) == record
        rebuilt = Topology.from_dict(meta["topology"])
        fresh = evaluate_replay(topology, schedule, mode="lstf")
        reloaded = evaluate_replay(rebuilt, loaded, mode="lstf")
        assert reloaded.metrics.overdue_count == fresh.metrics.overdue_count
        assert reloaded.metrics.threshold == fresh.metrics.threshold


class TestCanonicalRecords:
    """`records()` order is the comparator's walk order, pinned here."""

    def test_sorted_by_ingress_time_then_packet_id(self):
        def rec(packet_id, ingress):
            return PacketRecord(
                packet_id=packet_id,
                flow_id=0,
                src="a",
                dst="b",
                size_bytes=100.0,
                ingress_time=ingress,
                output_time=ingress + 1.0,
                path=["a", "b"],
                hops=[],
            )

        # Inserted deliberately out of order, with an ingress tie on 7/3.
        schedule = Schedule([rec(7, 0.5), rec(1, 0.9), rec(3, 0.5), rec(2, 0.1)])
        order = [
            (r.ingress_time, r.packet_id) for r in schedule.records()
        ]
        assert order == [(0.1, 2), (0.5, 3), (0.5, 7), (0.9, 1)]
        assert order == sorted(order)
