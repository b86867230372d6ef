"""The native codecs are held to ``ScheduleColumns`` before their first use.

``_kernel.c`` keeps its own table of row keys and the columns they fill.
``native_codecs`` round-trips one synthetic row through ``encode_rows`` and
``decode_rows`` and compares both with ``json``; a kernel whose table
disagrees with the schema is declined for the process, with one WARNING
naming the first key that differs, and every load and save then runs on
``json`` — the same bytes and columns, never a misparse.
"""

import logging
from unittest import mock

import pytest

from repro.core import schedule as schedule_module
from repro.core.schedule import Schedule, ScheduleColumns, load_schedule, save_schedule
from repro.sim import compiled

from tests.core.test_schedule_decoders import typed
from tests.core.test_schedule_io import plain_row

NAMES = list(ScheduleColumns.__slots__)


@pytest.fixture(autouse=True)
def unchecked():
    """A process that has not checked its codecs yet."""
    if not compiled.kernel_available():
        pytest.skip(f"compiled kernel unavailable: {compiled.unavailable_reason()}")
    schedule_module._agreed.cache_clear()
    yield
    schedule_module._agreed.cache_clear()


def swapped(columns, a, b):
    """``columns`` (the lists in field order) with fields ``a`` and ``b`` exchanged."""
    columns = list(columns)
    i, j = NAMES.index(a), NAMES.index(b)
    columns[i], columns[j] = columns[j], columns[i]
    return tuple(columns)


def disagreeing(monkeypatch, codec, a, b):
    """Make ``codec``'s kernel entry point read (or fill) fields ``a`` and ``b`` crossed,
    as a key table that names the wrong columns would."""
    decode, encode = compiled.kernel_codecs()
    if codec == "encode":
        encode = lambda cols, start, stop, encode=encode: encode(swapped(cols, a, b), start, stop)  # noqa: E731
    else:
        decode = lambda block, memo, first, cols, decode=decode: decode(block, memo, first, swapped(cols, a, b))  # noqa: E731
    monkeypatch.setattr(schedule_module, "kernel_codecs", lambda: (decode, encode))


def warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "repro.core.schedule" and r.levelno == logging.WARNING]


def test_the_shipped_kernel_agrees_silently(caplog):
    with caplog.at_level(logging.DEBUG, logger="repro.core.schedule"):
        codecs = schedule_module.native_codecs()
    assert codecs == compiled.kernel_codecs()
    assert warnings(caplog) == []


@pytest.mark.parametrize(
    "codec, a, b, key",
    [
        ("encode", "src", "dst", "src"),
        ("encode", "flow_size_bytes", "deadline", "flow_size_bytes"),
        ("encode", "hop_arrival", "hop_start_service", "hops"),
        ("decode", "flow_id", "size_bytes", "flow_id"),
        ("decode", "hop_start_service", "hop_departure", "hop_start_service"),
        # A list where the kernel reads an array is refused before any row.
        ("decode", "hop_node", "hop_departure", "column 11 must be a list, not array.array"),
    ],
)
def test_a_disagreeing_kernel_is_declined_and_json_serves(monkeypatch, tmp_path, caplog, codec, a, b, key):
    rows = [{**plain_row(j), "deadline": j + 0.25, "hops": [["a", j, j + 0.5, j + 1.0]]} for j in range(5)]
    schedule = Schedule.from_rows(rows)
    with mock.patch.object(schedule_module, "native_codecs", lambda: None):
        save_schedule(tmp_path / "json" / "s.jsonl.gz", schedule, meta={"k": 1})
        reference = load_schedule(tmp_path / "json" / "s.jsonl.gz")[0].columns()
    disagreeing(monkeypatch, codec, a, b)

    with caplog.at_level(logging.DEBUG, logger="repro.core.schedule"):
        save_schedule(tmp_path / "checked" / "s.jsonl.gz", schedule, meta={"k": 1})
        loaded = load_schedule(tmp_path / "checked" / "s.jsonl.gz")[0].columns()
        assert schedule_module.native_codecs() is None
    [line] = warnings(caplog)
    assert f"at {key!r}" in line and "use json" in line
    assert (tmp_path / "checked" / "s.jsonl.gz").read_bytes() == (tmp_path / "json" / "s.jsonl.gz").read_bytes()
    assert typed(loaded.lists()) == typed(reference.lists()) == typed(schedule.columns().lists())
