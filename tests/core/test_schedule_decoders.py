"""The stored-schedule decode loop's two decoders agree: compiled and json.

``_kernel.c``'s ``decode_rows`` parses ``repro-schedule/1`` row lines
straight into columns; ``json`` (``_json_columns``) is the reference it must
match — the same columns, the same types, the same float bits — and what
decodes any block the native decoder declines, raising today's errors.
Each test reads the same file both ways: as loads run, and with
``native_codecs`` patched to report none.
"""

import gzip
import json
import logging
import math
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schedule as schedule_module
from repro.core.schedule import SCHEDULE_FORMAT, iter_schedule_columns, load_schedule
from repro.sim import compiled

from tests.core.test_schedule_io import MALFORMED_CHANGES, plain_row


@pytest.fixture(scope="module", autouse=True)
def native_decoder():
    if not compiled.kernel_available():
        pytest.skip(f"compiled kernel unavailable: {compiled.unavailable_reason()}")
    assert schedule_module.native_codecs() is not None, "the native codecs disagree with ScheduleColumns"


def typed(value):
    """``value`` with every float replaced by its bit pattern, every entry tagged with its type."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return type(value), [typed(item) for item in value]
    return type(value), value


def read(path, native=True):
    """Every batch the cursor yields and the loaded table, typed — or the error, as text."""
    codecs = schedule_module.native_codecs if native else (lambda: None)
    with mock.patch.object(schedule_module, "native_codecs", codecs):
        outcome = []
        for consume in (lambda: list(iter_schedule_columns(path)), lambda: [load_schedule(path)[0].columns()]):
            try:
                batches = consume()
            except (ValueError, EOFError, OSError) as error:
                outcome.append((type(error).__name__, str(error)))
            else:
                outcome.append([typed(cols.lists()) for cols in batches])
        return outcome


def json_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "repro.core.schedule" and "decoding with json" in r.getMessage()]


# --------------------------------------------------------------------- #
# Valid rows, written every way the JSON grammar allows
# --------------------------------------------------------------------- #
EDGE_FLOATS = [
    5e-324, -5e-324, 0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308,
    2.2250738585072014e-308, 0.30000000000000004, 0.1, 1 / 3, 123456789.12345679, 1e22, 1e23, 1460.0,
]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
numbers = st.one_of(floats, st.integers(min_value=-(2**70), max_value=2**70))
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_. /[]{}:,", min_size=0, max_size=10)
scalars = st.one_of(st.none(), numbers, names)


@st.composite
def rows(draw, packet_id):
    row = {
        "packet_id": packet_id,
        "flow_id": draw(scalars),
        "src": draw(scalars),
        "dst": draw(scalars),
        "size_bytes": draw(scalars),
        "ingress_time": draw(numbers),
        "output_time": draw(numbers),
        "path": draw(st.lists(names, max_size=5)),
        "hops": draw(st.lists(st.lists(scalars, min_size=4, max_size=4), max_size=4)),
    }
    for optional in ("flow_size_bytes", "deadline"):
        if draw(st.booleans()):
            row[optional] = draw(st.one_of(st.none(), numbers))
    order = draw(st.permutations(list(row)))
    return {key: row[key] for key in order}


def number_text(value, form):
    """``value`` as one of the JSON spellings of the same number."""
    if isinstance(value, int):
        return str(value)
    text = json.dumps(value)  # repr: "1e-05", "1.5", "5e-324"
    if form == 1:
        text = text.replace("e", "E")
    elif form == 2:
        text = "%.16e" % value  # every float with 17 significant digits: "1.0000000000000000e-05"
    elif form == 3:
        text = ("%.16E" % value).replace("E+", "E")
    return text


def value_text(value, form, ws):
    if isinstance(value, (list, tuple)):
        return "[" + ws + ("," + ws).join(value_text(item, form, ws) for item in value) + ws + "]"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return number_text(value, form)
    return json.dumps(value)


def row_line(row, form, ws):
    fields = (f"{json.dumps(key)}{ws}:{ws}{value_text(value, form, ws)}" for key, value in row.items())
    return ws + "{" + ws + ("," + ws).join(fields) + ws + "}" + ws


@st.composite
def stored_files(draw):
    ids = draw(st.lists(st.integers(min_value=-(2**70), max_value=2**70), unique=True, max_size=8))
    drawn = [draw(rows(packet_id)) for packet_id in ids]
    form, ws = draw(st.integers(0, 3)), draw(st.sampled_from(["", " ", "\t", " \t "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [json.dumps({"format": SCHEDULE_FORMAT, "packets": len(drawn), "meta": {}})]
    for row in drawn:
        lines += [draw(st.sampled_from(["", " ", "\t"])) for _ in range(draw(st.integers(0, 1)))]
        lines.append(row_line(row, form, ws))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def write(tmp_path, text, compressed):
    path = tmp_path / ("s.jsonl.gz" if compressed else "s.jsonl")
    (gzip.open if compressed else open)(path, "wb").write(text.encode("utf-8"))
    return path


class TestBothDecodersAgree:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=stored_files(), compressed=st.booleans(), step=st.sampled_from([1 << 20, 97, 5]))
    def test_valid_rows_decode_natively_to_the_reference_columns(self, text, compressed, step, tmp_path, caplog):
        path = write(tmp_path, text, compressed)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.core.schedule"), mock.patch.object(
            schedule_module, "_DECODE_BYTES", step
        ):
            native = read(path)
            assert json_lines(caplog) == []  # nothing left the native path
            assert native == read(path, native=False)

    def test_floats_keep_their_bits_and_ints_their_type(self, tmp_path):
        values = [5e-324, -0.0, 1.7976931348623157e308, 0.30000000000000004]
        rows = [{**plain_row(j, ingress=value, output=2**70), "deadline": value} for j, value in enumerate(values)]
        header = json.dumps({"format": SCHEDULE_FORMAT, "packets": len(rows), "meta": {}})
        path = write(tmp_path, "\n".join([header, *map(json.dumps, rows)]) + "\n", compressed=True)
        [cols] = list(iter_schedule_columns(path))
        assert [struct.pack("<d", v) for v in cols.deadline] == [struct.pack("<d", v) for v in values]
        assert math.copysign(1.0, cols.ingress_time[1]) == -1.0
        assert cols.output_time == [2**70] * 4 and all(type(t) is int for t in cols.output_time)
        assert read(path) == read(path, native=False)


# --------------------------------------------------------------------- #
# Every decline class: the json path decodes the line, or raises the error
# --------------------------------------------------------------------- #
def _replace(old, new):
    return lambda line: line.replace(old, new, 1)


#: One line edit per class the native decoder must decline, each applied to
#: a row written by ``json.dumps``.  The reference either accepts the result
#: (NaN, true, an escape, an unknown or duplicate key) or rejects it.
DECLINES = {
    "nan": _replace('"ingress_time": 0.0', '"ingress_time": NaN'),
    "infinity": _replace('"size_bytes": 100.0', '"size_bytes": Infinity'),
    "minus-infinity": _replace('"output_time": 1.0', '"output_time": -Infinity'),
    "true": _replace('"flow_id": 0', '"flow_id": true'),
    "false-id": _replace('"packet_id": 1', '"packet_id": false'),
    "escape": _replace('"src": "a"', '"src": "\\u0061"'),
    "escaped-quote": _replace('"dst": "b"', '"dst": "b\\""'),
    "non-ascii": _replace('"src": "a"', '"src": "é"'),
    "unknown-key": _replace('{"packet_id"', '{"colour": 1, "packet_id"'),
    "duplicate-key": _replace('{"packet_id": 1', '{"packet_id": 1, "packet_id": 1'),
    "missing-key": _replace(', "hops": []', ""),
    "path-number": _replace('"path": ["a", "b"]', '"path": ["a", 7]'),
    "path-string": _replace('"path": ["a", "b"]', '"path": "ab"'),
    "hop-three": _replace('"hops": []', '"hops": [["a", 0.0, 0.0]]'),
    "hop-five": _replace('"hops": []', '"hops": [["a", 0.0, 0.0, 0.1, 0.2]]'),
    "hop-string": _replace('"hops": []', '"hops": ["abcd"]'),
    "packet-id-float": _replace('"packet_id": 1', '"packet_id": 1.0'),
    "packet-id-string": _replace('"packet_id": 1', '"packet_id": "1"'),
    "time-string": _replace('"ingress_time": 0.0', '"ingress_time": "0.0"'),
    "time-null": _replace('"output_time": 1.0', '"output_time": null'),
    "trailing-garbage": lambda line: line + " x",
    "two-objects": lambda line: line + ", " + line.replace('"packet_id": 1', '"packet_id": 9'),
    "array": lambda line: "[" + line + "]",
    "lone-cr": _replace(', "src"', ',\r"src"'),
    "form-feed-line": lambda line: "\x0c\n" + line,
    "leading-zero": _replace('"flow_id": 0', '"flow_id": 01'),
    "bare-fraction": _replace('"size_bytes": 100.0', '"size_bytes": 100.'),
    "bare-exponent": _replace('"size_bytes": 100.0', '"size_bytes": 1e'),
    "huge-int": _replace('"flow_id": 0', '"flow_id": ' + "9" * 5000),
    "truncated-line": lambda line: line[: len(line) // 2],
}


class TestDeclinedLinesGoToJson:
    @pytest.mark.parametrize("mutate", DECLINES.values(), ids=DECLINES)
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_result_or_error_equals_the_reference(self, mutate, position, tmp_path, caplog):
        rows = [json.dumps(plain_row(10 + j)) for j in range(3)]
        rows[position] = mutate(json.dumps(plain_row(1)))
        assert rows[position] != json.dumps(plain_row(1))
        header = json.dumps({"format": SCHEDULE_FORMAT, "packets": 3, "meta": {}})
        path = write(tmp_path, "\n".join([header, *rows]) + "\n", compressed=True)
        with caplog.at_level(logging.DEBUG, logger="repro.core.schedule"):
            native = read(path)
        assert native == read(path, native=False)
        [declined, *_] = json_lines(caplog)
        assert f"declined at packet {position}" in declined and str(path) in declined


class TestMalformedRowsThroughBothDecoders:
    """The malformed-row suite of ``test_schedule_io``, read natively and by json."""

    @pytest.mark.parametrize("change", MALFORMED_CHANGES, ids=repr)
    @pytest.mark.parametrize("native", [True, False], ids=["native", "json"])
    def test_value_error_names_the_packet(self, change, native, tmp_path):
        data = {**plain_row(1), **change}
        header = {"format": SCHEDULE_FORMAT, "packets": 2, "meta": {}}
        path = tmp_path / "s.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in (header, plain_row(0), data)))
        named = f"packet {data['packet_id']!r}: malformed row ("
        for outcome in read(path, native):
            assert outcome[0] == "ValueError" and named in outcome[1]
        assert read(path, native) == read(path, not native)
