"""A save's two encoders write the same bytes: compiled and json.

``_kernel.c``'s ``encode_rows`` writes ``repro-schedule/1`` row lines
straight from the columns; ``json.dumps`` of each row
(``ScheduleColumns.rows``) is the reference it must match byte for byte, and
what writes any block the native encoder declines.  Each test saves the same
schedule both ways: as saves run, and with ``native_codecs`` patched to
report none.
"""

import gzip
import json
import logging
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schedule as schedule_module
from repro.core.schedule import Schedule, load_schedule, save_schedule, save_schedule_sharded
from repro.sim import compiled

from tests.core.test_schedule_decoders import typed


@pytest.fixture(scope="module", autouse=True)
def native_encoder():
    if not compiled.kernel_available():
        pytest.skip(f"compiled kernel unavailable: {compiled.unavailable_reason()}")
    assert schedule_module.native_codecs() is not None, "the native codecs disagree with ScheduleColumns"


def reference_text(schedule):
    """The reference encoding of every row of ``schedule``."""
    return "".join(json.dumps(row) + "\n" for row in schedule).encode()


def native_text(schedule):
    cols = schedule.columns()
    return compiled.kernel_codecs()[1](cols.lists(), 0, len(schedule))


def saved(directory, schedule, native=True, sharded=False, name="s.jsonl.gz"):
    """The raw bytes of every file a save of ``schedule`` leaves in ``directory``."""
    codecs = schedule_module.native_codecs if native else (lambda: None)
    directory.mkdir()
    with mock.patch.object(schedule_module, "native_codecs", codecs):
        if sharded:
            # A fresh schedule over the same columns: a second sharded save of
            # one schedule would reuse the first one's bodies, not encode.
            fresh = Schedule.from_columns(schedule.columns())
            save_schedule_sharded(directory / "s.manifest.json", fresh, meta={"k": 1}, shard_packets=3)
        else:
            save_schedule(directory / name, schedule, meta={"k": 1})
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def encoding_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "repro.core.schedule" and "encoding with json" in r.getMessage()]


# --------------------------------------------------------------------- #
# Valid columns: every value the native encoder spells itself
# --------------------------------------------------------------------- #
EDGE_FLOATS = [
    5e-324, -5e-324, 0.0, -0.0, 1e16, 9999999999999998.0, 1e-05, 0.0001, 1.7976931348623157e308,
    -1.7976931348623157e308, 2.2250738585072014e-308, 0.30000000000000004, 1 / 3, 123456789.12345679, 1460.0,
]
EDGE_INTS = [0, -1, 2**63 - 1, -(2**63 - 1), -(2**63)]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(min_value=-(2**63), max_value=2**63 - 1))
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_. /[]{}:,'`~", max_size=10)
scalars = st.one_of(st.none(), floats, ints, names)


@st.composite
def schedules(draw, ids=ints):
    packet_ids = draw(st.lists(ids, unique=True, max_size=8))
    rows = [
        {
            "packet_id": packet_id,
            "flow_id": draw(scalars),
            "src": draw(scalars),
            "dst": draw(scalars),
            "size_bytes": draw(scalars),
            "ingress_time": draw(st.one_of(floats, ints)),
            "output_time": draw(st.one_of(floats, ints)),
            "path": draw(st.lists(names, max_size=draw(st.sampled_from([0, 5, 60])))),
            "hops": draw(st.lists(st.tuples(scalars, scalars, scalars, scalars), max_size=6)),
            "flow_size_bytes": draw(scalars),
            "deadline": draw(scalars),
        }
        for packet_id in packet_ids
    ]
    return Schedule.from_rows(rows)


class TestBothEncodersAgree:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(schedule=schedules(), sharded=st.booleans(), step=st.sampled_from([1 << 20, 600, 1]))
    def test_native_bytes_and_files_equal_the_references(self, schedule, sharded, step, tmp_path_factory, caplog):
        assert native_text(schedule) == reference_text(schedule)
        root = tmp_path_factory.mktemp("saves")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.core.schedule"), mock.patch.object(
            schedule_module, "_DECODE_BYTES", step
        ):
            native = saved(root / "native", schedule, sharded=sharded)
            assert encoding_lines(caplog) == []  # nothing left the native path
            assert native == saved(root / "json", schedule, native=False, sharded=sharded)

    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules(ids=st.integers(min_value=-(2**70), max_value=2**70)))
    def test_ints_past_64_bits_take_json_and_keep_the_bytes(self, schedule):
        encoded = native_text(schedule)
        if all(-(2**63) <= packet_id < 2**63 for packet_id in schedule.columns().packet_id):
            assert encoded == reference_text(schedule)
        else:
            assert isinstance(encoded, str) and "an int beyond 64 bits [packet_id]" in encoded

    def test_floats_are_spelled_as_repr_spells_them(self):
        values = EDGE_FLOATS + [1e15, 1e17, 0.1, 100.0, 1.5e-7, 123456789012345680.0]
        rows = [{"packet_id": j, "flow_id": 0, "src": "a", "dst": "b", "size_bytes": value, "ingress_time": value,
                 "output_time": 1, "path": [], "hops": [("a", value, None, -value)]} for j, value in enumerate(values)]
        schedule = Schedule.from_rows(rows)
        assert native_text(schedule) == reference_text(schedule)
        assert b"1e+16" in native_text(schedule) and b"1e-05" in native_text(schedule)
        assert b"-0.0" in native_text(schedule)

    def test_many_blocks_write_the_same_file(self, tmp_path, caplog):
        rows = [{"packet_id": j, "flow_id": j % 7, "src": "h1", "dst": "h2", "size_bytes": 1460.0,
                 "ingress_time": j / 3, "output_time": j / 3 + 0.5, "path": ["h1", "r1", "h2"],
                 "hops": [("h1", j / 3, j / 3, j / 3 + 0.1), ("r1", j / 3 + 0.2, None, None)]} for j in range(400)]
        schedule = Schedule.from_rows(rows)
        whole = saved(tmp_path / "whole", schedule)
        for step in (2000, 97, 1):
            with mock.patch.object(schedule_module, "_DECODE_BYTES", step):
                assert saved(tmp_path / f"native-{step}", schedule) == whole
                assert saved(tmp_path / f"json-{step}", schedule, native=False) == whole

    def test_a_native_save_decodes_natively_to_the_same_columns(self, tmp_path):
        schedule = Schedule.from_rows(
            {"packet_id": j, "flow_id": j, "src": "a", "dst": "b", "size_bytes": 1.0, "ingress_time": value,
             "output_time": 2**62, "path": ["a", "b"], "hops": [("a", value, None, 5e-324)], "deadline": -0.0}
            for j, value in enumerate(EDGE_FLOATS)
        )
        saved(tmp_path / "out", schedule)
        loaded, meta = load_schedule(tmp_path / "out" / "s.jsonl.gz")
        cols = schedule.columns()
        assert meta == {"k": 1}
        assert typed(loaded.columns().lists()) == typed(cols.lists())


# --------------------------------------------------------------------- #
# Every decline class: json writes the block, and says so once
# --------------------------------------------------------------------- #
class IntSub(int):
    pass


class FloatSub(float):
    pass


#: ``(column, value)`` the native encoder must decline; json writes each.
DECLINES = {
    "nan": ("deadline", math.nan),
    "infinity": ("size_bytes", math.inf),
    "minus-infinity": ("hop_departure", -math.inf),
    "bool": ("flow_id", True),
    "int-subclass": ("flow_size_bytes", IntSub(3)),
    "float-subclass": ("hop_arrival", FloatSub(0.5)),
    "int-past-64-bits": ("flow_id", 2**64),
    "int-below-64-bits": ("size_bytes", -(2**63) - 1),
    "quote": ("src", 'a"b'),
    "backslash": ("dst", "a\\b"),
    "newline": ("hop_node", "a\nb"),
    "delete": ("src", "a\x7f"),
    "non-ascii": ("dst", "é"),
    "non-latin": ("hop_node", "路由"),
    "dict": ("deadline", {"at": 1.0}),
    "list": ("flow_id", [1, 2]),
    "path-string": ("path", "ab"),
}


def declining_schedule(column, value, position):
    rows = [{"packet_id": 100 + j, "flow_id": 0, "src": "a", "dst": "b", "size_bytes": 100.0,
             "ingress_time": float(j), "output_time": j + 1.0, "path": ("a", "b"),
             "hops": [("a", float(j), float(j), j + 0.5)]} for j in range(5)]
    schedule = Schedule.from_rows(rows)
    cols = schedule.columns()
    getattr(cols, column)[cols.hop_offset[position] if column.startswith("hop_") else position] = value
    return schedule


class TestDeclinedBlocksGoToJson:
    @pytest.mark.parametrize("case", DECLINES.values(), ids=DECLINES)
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_the_file_is_the_reference_and_one_line_names_the_packet(self, case, position, tmp_path, caplog):
        schedule = declining_schedule(*case, position)
        assert isinstance(native_text(schedule), str)
        with caplog.at_level(logging.DEBUG, logger="repro.core.schedule"):
            native = saved(tmp_path / "native", schedule)
        [line] = encoding_lines(caplog)
        assert f"declined at packet {100 + position} (row {position})" in line
        assert str(tmp_path / "native" / "s.jsonl.gz") in line
        assert native == saved(tmp_path / "json", schedule, native=False)

    def test_only_the_declined_block_leaves_the_native_path(self, tmp_path, caplog):
        schedule = declining_schedule("deadline", math.nan, 2)
        with caplog.at_level(logging.DEBUG, logger="repro.core.schedule"), mock.patch.object(
            schedule_module, "_DECODE_BYTES", 1
        ):
            native = saved(tmp_path / "native", schedule)
        assert len(encoding_lines(caplog)) == 1
        assert native == saved(tmp_path / "json", schedule, native=False)

    def test_short_columns_decline_and_json_raises_its_own_error(self):
        schedule = declining_schedule("src", "a", 0)
        cols = schedule.columns()
        del cols.hop_node[-1]
        columns = cols.lists()
        encode = compiled.kernel_codecs()[1]
        assert encode(columns, 0, 4) == reference_text(Schedule.from_rows(list(schedule)[:4]))
        assert encode(columns, 0, 5) == "packet 104 (row 4): hop offsets outside the hop columns [hops]"
        assert encode(columns, 0, 6) == "a column shorter than the rows asked for"
        del cols.src[-1]
        assert encode(columns, 0, 5) == "a column shorter than the rows asked for"


def test_saved_files_name_their_final_path_and_carry_no_mtime(tmp_path):
    schedule = declining_schedule("src", "a", 0)
    [data] = saved(tmp_path / "out", schedule, name="key.jsonl.gz").values()
    assert data[4:8] == b"\0\0\0\0"  # MTIME
    assert data[3] & 0x08 and data[10 : data.index(b"\0", 10)] == b"key.jsonl"  # FNAME
    shards = saved(tmp_path / "sharded", schedule, sharded=True)
    assert [n for n in shards] == ["s.manifest.json", "s.shard-0.jsonl.gz", "s.shard-1.jsonl.gz"]
    assert shards["s.shard-1.jsonl.gz"][10:].startswith(b"s.shard-1.jsonl\0")


def test_the_deflate_stream_is_a_text_mode_writers(tmp_path):
    """Past the header, a save is the stream ``gzip.open(..., "wt")`` writes,
    its closing ``Z_SYNC_FLUSH`` included: the bytes every existing cache holds."""
    schedule = declining_schedule("src", "a", 0)
    [data] = saved(tmp_path / "out", schedule).values()
    header = {"format": schedule_module.SCHEDULE_FORMAT, "packets": len(schedule), "meta": {"k": 1}}
    with gzip.open(tmp_path / "text.gz", "wt", encoding="utf-8", compresslevel=5) as stream:
        stream.write(json.dumps(header) + "\n" + reference_text(schedule).decode())
    text = (tmp_path / "text.gz").read_bytes()
    assert data[data.index(b"\0", 10) + 1 :] == text[text.index(b"\0", 10) + 1 :]
