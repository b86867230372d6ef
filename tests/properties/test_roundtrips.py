"""Serialization contracts the cache keys and the repro artifacts lean on.

* every fault kind's and every perturbation's ``to_dict`` names ``kind``
  and every dataclass field — a field it left out would let two different
  definitions share a cache key;
* a saved schedule loads back with its canonical ``(ingress_time,
  packet_id)`` order intact (the comparator's walk order).
"""

import dataclasses
import os
import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule, load_schedule, save_schedule
from repro.faults.defs import FaultDef
from repro.traffic.perturb import Perturbation

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize(
    "cls",
    FaultDef.__subclasses__() + Perturbation.__subclasses__(),
    ids=lambda cls: cls.kind,
)
def test_to_dict_names_kind_and_every_field(cls):
    definition = cls()
    assert list(definition.to_dict()) == ["kind"] + [
        field.name for field in dataclasses.fields(cls)
    ]
    assert definition.to_dict()["kind"] == cls.kind
    assert pickle.loads(pickle.dumps(definition)) == definition


# --------------------------------------------------------------------- #
# Schedule canonical-order preservation
# --------------------------------------------------------------------- #
finite_time = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def rows(draw, packet_id):
    """A schedule row in the shape iterating a schedule yields it."""
    arrival = draw(finite_time)
    node = draw(st.sampled_from(("sw0", "sw1", "edge-a")))
    hop = (node, arrival, arrival + draw(finite_time), arrival + draw(finite_time))
    return {
        "packet_id": packet_id,
        "flow_id": draw(st.integers(min_value=0, max_value=100)),
        "src": "h0",
        "dst": "h1",
        "size_bytes": draw(st.floats(min_value=40.0, max_value=9000.0, allow_nan=False)),
        "ingress_time": draw(finite_time),
        "output_time": draw(finite_time),
        "path": (node, "h1"),
        "hops": draw(st.sampled_from([[hop], []])),
        "flow_size_bytes": draw(st.one_of(st.none(), finite_time)),
        "deadline": draw(st.one_of(st.none(), finite_time)),
    }


@st.composite
def row_lists(draw):
    ids = draw(
        st.lists(st.integers(min_value=0, max_value=2**20), unique=True, max_size=10)
    )
    return [draw(rows(packet_id)) for packet_id in ids]


class TestSchedulePersistenceOrder:
    @RELAXED
    @given(drawn=row_lists(), compressed=st.booleans())
    def test_save_load_preserves_canonical_order(self, drawn, compressed):
        schedule = Schedule.from_rows(drawn)
        suffix = ".jsonl.gz" if compressed else ".jsonl"
        handle = tempfile.NamedTemporaryFile(suffix=suffix, delete=False)
        handle.close()
        try:
            save_schedule(handle.name, schedule, meta={"test": True})
            loaded, meta = load_schedule(handle.name)
        finally:
            os.unlink(handle.name)
        assert meta["test"] is True
        original_order = [(row["ingress_time"], row["packet_id"]) for row in schedule]
        loaded_order = [(row["ingress_time"], row["packet_id"]) for row in loaded]
        assert loaded_order == original_order
        assert loaded_order == sorted(loaded_order)
        # And the rows themselves are lossless, not just ordered: exactly the
        # drawn ones, None fields and empty hop lists included.
        assert list(loaded) == sorted(drawn, key=lambda row: (row["ingress_time"], row["packet_id"]))
