"""Schedule persistence: the JSON-lines round-trip must be lossless."""

import gc
import json
import os
import re
from functools import reduce
from operator import add
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schedule as schedule_module
from repro.core.replay import evaluate_replay
from repro.core.schedule import (
    MANIFEST_FORMAT,
    SCHEDULE_FORMAT,
    Schedule,
    ScheduleColumns,
    iter_schedule_columns,
    load_schedule,
    save_schedule,
    save_schedule_sharded,
    shard_file_name,
)
from repro.experiments import ExperimentScale
from repro.pipeline.experiment import record_scenario_schedule
from repro.pipeline.scenario import Scenario
from repro.topology.base import Topology, dumbbell_topology

# --------------------------------------------------------------------- #
# Strategies: rows in the exact shape iterating a schedule yields them
# --------------------------------------------------------------------- #
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
maybe = st.one_of(st.none(), finite)
node_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
hops = st.tuples(node_names, finite, maybe, maybe)


@st.composite
def rows(draw, packet_id):
    hop_list = draw(st.lists(hops, max_size=4))
    # Usually the path the hops imply; sometimes one that disagrees with the
    # hop nodes (hand-built schedules may, and storage must not "repair" it).
    path = draw(
        st.one_of(
            st.just(tuple(hop[0] for hop in hop_list) + (draw(node_names),)),
            st.lists(node_names, max_size=5).map(tuple),
        )
    )
    return {
        "packet_id": packet_id,
        "flow_id": draw(st.integers(min_value=0, max_value=2**31)),
        "src": draw(node_names),
        "dst": draw(node_names),
        "size_bytes": draw(st.floats(min_value=1.0, max_value=1e9, allow_nan=False)),
        "ingress_time": draw(finite),
        "output_time": draw(finite),
        "path": path,
        "hops": hop_list,
        "flow_size_bytes": draw(maybe),
        "deadline": draw(maybe),
    }


@st.composite
def row_lists(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=12))
    return [draw(rows(packet_id)) for packet_id in ids]


def canonical(drawn):
    return sorted(drawn, key=lambda row: (row["ingress_time"], row["packet_id"]))


def plain_row(packet_id, ingress=0.0, output=1.0):
    return {"packet_id": packet_id, "flow_id": 0, "src": "a", "dst": "b", "size_bytes": 100.0,
            "ingress_time": ingress, "output_time": output, "path": ["a", "b"], "hops": []}


#: Row edits that leave valid JSON but a malformed row (a ``ValueError``
#: naming the packet); ``test_schedule_decoders`` reads them both ways too.
MALFORMED_CHANGES = [
    {"hops": [["a", 0.0, 0.0]]},
    {"hops": [["a", 0.0, 0.0, 0.1, 0.2]]},
    {"hops": [None]},
    {"hops": None},
    {"path": None},
    {"path": 7},
    {"packet_id": [1, 2]},
    {"packet_id": "1"},
    {"ingress_time": "0.0"},
    {"output_time": None},
    {"packet_id": True},
    {"ingress_time": False},
]


def cursor_columns(path) -> ScheduleColumns:
    """Every batch `iter_schedule_columns` yields, concatenated into one table."""
    whole = ScheduleColumns()
    for cols in iter_schedule_columns(path):
        whole.extend(list(cols.rows(range(len(cols.packet_id)))))
    return whole


# --------------------------------------------------------------------- #
# Property: rows -> schedule -> file -> schedule -> rows is the identity
# --------------------------------------------------------------------- #
class TestRoundTripProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=row_lists(), compressed=st.booleans())
    def test_round_trip_is_lossless(self, drawn, compressed, tmp_path):
        path = tmp_path / ("s.jsonl.gz" if compressed else "s.jsonl")
        save_schedule(path, Schedule.from_rows(drawn), meta={"n": len(drawn)})
        loaded, meta = load_schedule(path)
        assert meta == {"n": len(drawn)}
        # Every field of every row, None fields and empty hop lists included,
        # with exact float values, in canonical order.
        assert list(loaded) == canonical(drawn)
        for row in drawn:
            assert loaded.row(row["packet_id"]) == row
            assert Schedule.from_rows([json.loads(json.dumps(row))]).row(row["packet_id"]) == row

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=row_lists())
    def test_columns_lose_nothing_from_rows_accepts(self, drawn, tmp_path):
        # rows -> columns -> rows -> file -> columns -> rows: every field of
        # every row `from_rows` takes (empty hops, hop nodes off the path,
        # None start/departure/deadline/flow size, any order) must come back
        # exactly, in canonical order.
        schedule = Schedule.from_rows(drawn)
        assert list(schedule) == canonical(drawn) and len(schedule) == len(drawn)
        for row in drawn:
            assert schedule.row(row["packet_id"]) == row
            with pytest.raises(ValueError, match=f"duplicate packet id {row['packet_id']}"):
                Schedule.from_rows([*drawn, row])
        assert schedule.queueing_delays() == [  # a left fold of each packet's hop waits
            reduce(add, (0.0 if start is None else start - arrival for _, arrival, start, _ in row["hops"]), 0.0)
            for row in canonical(drawn)
        ]
        path = tmp_path / "s.jsonl.gz"
        save_schedule(path, schedule)
        loaded, _ = load_schedule(path)
        assert list(loaded) == canonical(drawn)
        assert loaded.columns() == schedule.columns()
        # One decode loop, two consumers: the cursor's batches, concatenated,
        # are the loaded table field for field — one file or shards, one
        # batch per file or many, no packets at all.
        save_schedule_sharded(tmp_path / "two.manifest.json", schedule, shard_packets=2)
        save_schedule_sharded(tmp_path / "five.manifest.json", schedule, shard_packets=5)
        for step in (1 << 20, 700, 3):  # one block per file, a few, one per line
            with mock.patch.object(schedule_module, "_DECODE_BYTES", step):
                for stored in (path, tmp_path / "two.manifest.json", tmp_path / "five.manifest.json"):
                    assert cursor_columns(stored) == load_schedule(stored)[0].columns()
                    assert cursor_columns(stored) == schedule.columns()

    @settings(max_examples=15, deadline=None)
    @given(drawn=row_lists())
    def test_rows_sorted_identically_after_reload(self, drawn):
        # Iteration order (ingress, packet id) is what replay injection uses;
        # it must be stable across a round-trip.
        import tempfile

        schedule = Schedule.from_rows(drawn)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.jsonl")
            save_schedule(path, schedule)
            loaded, _ = load_schedule(path)
        assert [row["packet_id"] for row in loaded] == [row["packet_id"] for row in schedule]


class TestPreDeadlineCompatibility:
    def test_records_without_deadline_field_load_as_none(self):
        """Schedule files written before deadlines existed must still load."""
        data = plain_row(1)  # the pre-refactor on-disk shape: no flow size, no deadline
        got = Schedule.from_rows([data]).row(1)
        assert got["deadline"] is None and got["flow_size_bytes"] is None


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
        schedule = Schedule.from_rows(plain_row(i) for i in range(3))
        path = tmp_path / "s.jsonl"
        save_schedule(path, schedule)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last row
        with pytest.raises(ValueError, match="truncated"):
            load_schedule(path)

    @pytest.mark.parametrize("change", MALFORMED_CHANGES, ids=repr)
    def test_malformed_rows_are_value_errors_naming_the_packet(self, change, tmp_path):
        data = {**plain_row(1), **change}
        named = re.escape(f"packet {data['packet_id']!r}: malformed row (")
        with pytest.raises(ValueError, match=named) as raised:
            Schedule.from_rows([plain_row(0, ingress=-1.0), data])
        if change.get("hops") and change["hops"][0]:
            assert "every hop must be [node, arrival, start_service, departure]" in str(raised.value)
        # The file decoder says the same, through both consumers.
        header = {"format": SCHEDULE_FORMAT, "packets": 2, "meta": {}}
        path = tmp_path / "s.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in (header, plain_row(0), data)))
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            load_schedule(path)
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            list(iter_schedule_columns(path))

    def test_a_missing_key_is_named(self):
        data = plain_row(3)
        del data["hops"]
        with pytest.raises(ValueError, match="packet 3: malformed row \\(KeyError: 'hops'\\)"):
            Schedule.from_rows([data])
        with pytest.raises(ValueError, match="packet None: malformed row \\(TypeError"):
            Schedule.from_rows([plain_row(0), [1, 2]])

    def test_a_failed_extend_appends_nothing(self):
        cols = ScheduleColumns()
        cols.extend([plain_row(0)])
        before = ScheduleColumns(**{name: list(getattr(cols, name)) for name in ScheduleColumns.__slots__})
        with pytest.raises(ValueError, match="packet 2: malformed row"):
            cols.extend([plain_row(1), {**plain_row(2), "path": None}])
        assert cols == before

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
        return Schedule.from_rows(plain_row(i, float(i), i + 1.0) for i in range(5))

    def test_on_success(self, gc_state, schedule, tmp_path):
        save_schedule(tmp_path / "s.jsonl.gz", schedule)
        loaded, _ = load_schedule(tmp_path / "s.jsonl.gz")
        assert gc.isenabled() is gc_state
        assert list(loaded) == list(schedule)

    def test_on_sharded_manifest(self, gc_state, schedule, tmp_path):
        manifest = tmp_path / "s.manifest.json"
        assert len(save_schedule_sharded(manifest, schedule, shard_packets=2)) == 3
        loaded, _ = load_schedule(manifest)
        assert gc.isenabled() is gc_state
        assert list(loaded) == list(schedule)

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
        with mock.patch.object(schedule_module, "_DECODE_BYTES", 1):  # a block per line
            batches = iter_schedule_columns(tmp_path / "s.jsonl")
            with mock.patch.object(gc, "disable") as disable, mock.patch.object(gc, "enable") as enable:
                assert [len(cols.packet_id) for cols in batches] == [1, 1, 1, 1, 1]
        assert not disable.called and not enable.called
        assert gc.isenabled() is gc_state


# --------------------------------------------------------------------- #
# The decode loop's two consumers reject a damaged store identically
# --------------------------------------------------------------------- #
class TestBothConsumersRaiseAlike:
    @pytest.fixture
    def manifest(self, tmp_path):
        schedule = Schedule.from_rows(plain_row(i, float(i), i + 1.0) for i in range(7))
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

    def test_a_first_line_that_is_not_an_object(self, manifest):
        for stored, tag in ((manifest.parent / "array.jsonl", SCHEDULE_FORMAT), (manifest, MANIFEST_FORMAT)):
            stored.write_text(json.dumps([tag, 0]) + "\n")
            loaded, cursored = self.both_errors(stored)
            assert loaded == cursored and loaded[0] is ValueError
            assert f"not a {tag} file (its first line is not a JSON object)" in loaded[1]

    @pytest.mark.parametrize(
        "shards",
        [None, 3, "abc", {"file": "x"}, [["x", 3]], [{"file": "x"}], [{"file": None, "packets": 3}]],
        ids=repr,
    )
    def test_manifest_shards_of_the_wrong_shape(self, manifest, shards):
        data = json.loads(manifest.read_text())
        data["shards"] = shards
        manifest.write_text(json.dumps(data) + "\n")
        loaded, cursored = self.both_errors(manifest)
        assert loaded == cursored and loaded[0] is ValueError
        assert "manifest shards must be a list of {file, packets} objects" in loaded[1]

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
        assert list(loaded) == list(schedule)
        rebuilt = Topology.from_dict(meta["topology"])
        fresh = evaluate_replay(topology, schedule, mode="lstf")
        reloaded = evaluate_replay(rebuilt, loaded, mode="lstf")
        assert reloaded.metrics.overdue_count == fresh.metrics.overdue_count
        assert reloaded.metrics.threshold == fresh.metrics.threshold


class TestCanonicalRecords:
    """Iteration order is the comparator's walk order, pinned here."""

    def test_sorted_by_ingress_time_then_packet_id(self):
        # Given deliberately out of order, with an ingress tie on 7/3.
        schedule = Schedule.from_rows(
            [plain_row(7, 0.5), plain_row(1, 0.9), plain_row(3, 0.5), plain_row(2, 0.1)]
        )
        order = [(row["ingress_time"], row["packet_id"]) for row in schedule]
        assert order == [(0.1, 2), (0.5, 3), (0.5, 7), (0.9, 1)]
        assert order == sorted(order)
