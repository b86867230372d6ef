"""Per-hop columns are typed ``array`` columns from file to kernel and back.

``ScheduleColumns`` stores ``hop_offset`` as ``array('q')`` and the three hop
times as ``array('d')``; ``None`` in the two optional ones is ``NO_TIME``
(-inf), and a hop time that came in as an int reads back as a float.  Both
decoders and both encoders must agree on that to the bit, and every path
that fills or derives per-hop data — a load, a flat recording, a compiled
replay, ``schedule.derived`` — must hand out arrays, never lists.
"""

import gzip
import json
import math
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schedule as schedule_module
from repro.core.replay import replay_schedule
from repro.core.schedule import NO_TIME, SCHEDULE_FORMAT, Schedule, load_schedule, save_schedule
from repro.experiments import ExperimentScale
from repro.experiments.table1 import default_scenario
from repro.pipeline.experiment import record_scenario_schedule
from repro.sim import compiled

from tests.core.test_schedule_decoders import typed

TYPECODES = {"hop_offset": "q", "hop_arrival": "d", "hop_start_service": "d", "hop_departure": "d"}


@pytest.fixture(scope="module", autouse=True)
def native_codecs():
    if not compiled.kernel_available():
        pytest.skip(f"compiled kernel unavailable: {compiled.unavailable_reason()}")
    assert schedule_module.native_codecs() is not None, "the native codecs disagree with ScheduleColumns"


def assert_typed(cols):
    for name, typecode in TYPECODES.items():
        column = getattr(cols, name)
        assert isinstance(column, array) and column.typecode == typecode, (name, type(column))
    assert isinstance(cols.hop_node, list)


def codecs(native):
    return mock.patch.object(schedule_module, "native_codecs", schedule_module.native_codecs if native else (lambda: None))


# --------------------------------------------------------------------- #
# Round trip: file -> typed columns -> file, through both codec pairs
# --------------------------------------------------------------------- #
times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
)
optional_times = st.one_of(st.none(), times)
hops = st.tuples(st.sampled_from(["a", "b", "core-1"]), times, optional_times, optional_times)


@st.composite
def stored_rows(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=8))
    return [
        {
            "packet_id": packet_id,
            "flow_id": 0,
            "src": "a",
            "dst": "b",
            "size_bytes": 1460.0,
            "ingress_time": draw(st.floats(min_value=0.0, max_value=1.0)),
            "output_time": 2.0,
            "path": ["a", "b"],
            "hops": draw(st.lists(hops.map(list), max_size=4)),  # empty hops included
        }
        for packet_id in ids
    ]


def as_stored(row):
    """``row`` as the columns hand it back: hop times floats, ``None`` kept."""
    hops = [(node, float(a), None if s is None else float(s), None if d is None else float(d)) for node, a, s, d in row["hops"]]
    return {**row, "path": tuple(row["path"]), "hops": hops, "flow_size_bytes": None, "deadline": None}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=stored_rows(), compressed=st.booleans())
def test_file_to_typed_columns_to_file_is_exact_both_ways(rows, compressed, tmp_path):
    suffix = ".jsonl.gz" if compressed else ".jsonl"
    source = tmp_path / f"source{suffix}"
    header = {"format": SCHEDULE_FORMAT, "packets": len(rows), "meta": {}}
    text = "".join(json.dumps(line) + "\n" for line in (header, *rows)).encode()
    source.write_bytes(gzip.compress(text) if compressed else text)

    loaded = {}
    for native in (True, False):
        with codecs(native):
            loaded[native] = load_schedule(source)[0]
        assert_typed(loaded[native].columns())
    assert loaded[True].columns() == loaded[False].columns()
    assert typed(loaded[True].columns().lists()) == typed(loaded[False].columns().lists())
    expected = sorted(map(as_stored, rows), key=lambda row: (row["ingress_time"], row["packet_id"]))
    assert list(loaded[True]) == expected
    assert all(type(t) is float for row in loaded[True] for hop in row["hops"] for t in hop[1:] if t is not None)

    saved = {}
    for native in (True, False):
        target = tmp_path / f"saved-{native}" / f"s{suffix}"  # one name: gzip headers hold it
        target.parent.mkdir(exist_ok=True)
        with codecs(native):
            save_schedule(target, Schedule.from_columns(loaded[True].columns()))
        saved[native] = target.read_bytes()
        with codecs(native):
            again = load_schedule(target)[0].columns()
        assert again == loaded[True].columns()
        assert typed(again.lists()) == typed(loaded[True].columns().lists())
    assert saved[True] == saved[False]


def test_none_is_the_sentinel_and_ints_become_floats():
    rows = [{"packet_id": 0, "flow_id": 0, "src": "a", "dst": "b", "size_bytes": 1.0, "ingress_time": 0,
             "output_time": 1, "path": ["a", "b"], "hops": [["a", 0, None, 3]]}]
    cols = Schedule.from_rows(rows).columns()
    assert list(cols.hop_start_service) == [NO_TIME] and NO_TIME == -math.inf
    assert [type(t) for t in (*cols.hop_arrival, *cols.hop_departure)] == [float, float]
    (row,) = cols.rows([0])
    assert row["hops"] == [("a", 0.0, None, 3.0)]
    assert row["ingress_time"] == 0 and type(row["ingress_time"]) is int  # packet columns keep their objects


# --------------------------------------------------------------------- #
# Every path that fills per-hop data hands out arrays
# --------------------------------------------------------------------- #
def test_loads_recordings_replays_and_derived_buffers_are_arrays(tmp_path):
    scenario = default_scenario(ExperimentScale.smoke())
    topology = scenario.build_topology()
    recorded = record_scenario_schedule(scenario, topology)  # the flat recorder
    assert_typed(recorded.columns())
    path = tmp_path / "s.jsonl.gz"
    save_schedule(path, recorded)
    loaded = load_schedule(path)[0]
    assert_typed(loaded.columns())
    replayed = replay_schedule(topology, loaded, mode="lstf", backend="compiled")
    assert_typed(replayed.columns())
    off, hop_port, hop_node, hop_tx, hop_sum, prop = loaded.derived[1]
    assert [(type(a), a.typecode) for a in (off, hop_port, hop_tx, hop_sum, prop)] == [
        (array, "q"), (array, "q"), (array, "d"), (array, "d"), (array, "d")
    ]
    assert isinstance(hop_node, list)
    assert_typed(replay_schedule(topology, loaded, mode="lstf", backend="python").columns())


# --------------------------------------------------------------------- #
# Memory guard: a load and a compiled replay, per hop
# --------------------------------------------------------------------- #
#: Traced peak bytes per hop of loading the quick ``I2-10G-10G`` schedule
#: (14,163 packets, 79,352 hops) and replaying it once on ``compiled``.
#: Measured at 160 B per hop with typed hop columns (lists of floats took
#: 319); the bound is that figure plus 15 %.
PEAK_BYTES_PER_HOP = 185


def test_a_load_and_a_compiled_replay_stay_under_the_per_hop_bound(tmp_path):
    scenario = default_scenario(ExperimentScale.quick(), name="I2-10G-10G", edge_core_gbps=10.0, host_edge_gbps=10.0)
    topology = scenario.build_topology()
    path = tmp_path / "s.jsonl.gz"
    save_schedule(path, record_scenario_schedule(scenario, topology))
    replay_schedule(topology, load_schedule(path)[0], mode="lstf", backend="compiled")  # routes memoized
    tracemalloc.start()
    try:
        loaded = load_schedule(path)[0]
        replay_schedule(topology, loaded, mode="lstf", backend="compiled")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hops = loaded.columns().hop_offset[-1]
    assert hops > 70_000
    assert peak / hops < PEAK_BYTES_PER_HOP, f"{peak / hops:.0f} B per hop"
