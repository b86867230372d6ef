"""Hypothesis round-trips: fault defs and schedule persistence.

Two serialization contracts the repro artifacts lean on:

* every registered fault kind survives ``fault_from_dict(f.to_dict())``
  losslessly (fuzz artifacts and cache metadata embed fault plans);
* a saved schedule loads back with its canonical ``(ingress_time,
  packet_id)`` order intact (the comparator's walk order).
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schedule import (
    HopTiming,
    PacketRecord,
    Schedule,
    load_schedule,
    save_schedule,
)
from repro.faults import (
    FAULT_KINDS,
    FAULTS,
    BernoulliLoss,
    GilbertElliottLoss,
    JammingIntervals,
    LinkOutage,
    fault_from_dict,
)

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# --------------------------------------------------------------------- #
# Fault-def strategies (one per registered kind, within validation bounds)
# --------------------------------------------------------------------- #
links_strategy = st.lists(
    st.sampled_from(("core0->core1", "edge-a->core0", "*")), max_size=2, unique=True
).map(tuple)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def windowed(draw, cls):
    """LinkOutage / JammingIntervals within their window validation rules."""
    start = draw(st.floats(min_value=0.0, max_value=0.99, allow_nan=False))
    duration = draw(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False))
    count = draw(st.integers(min_value=1, max_value=3))
    period = None
    if count > 1:
        period = duration + draw(
            st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
        )
    return cls(
        start=start,
        duration=duration,
        period=period,
        count=count,
        links=draw(links_strategy),
    )


@st.composite
def bernoulli_losses(draw):
    return BernoulliLoss(rate=draw(probabilities), links=draw(links_strategy))


@st.composite
def gilbert_losses(draw):
    return GilbertElliottLoss(
        p_enter_bad=draw(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)),
        p_exit_bad=draw(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)),
        loss_good=draw(probabilities),
        loss_bad=draw(probabilities),
        links=draw(links_strategy),
    )


fault_defs = st.one_of(
    windowed(LinkOutage),
    windowed(JammingIntervals),
    bernoulli_losses(),
    gilbert_losses(),
)


class TestFaultDefRoundTrip:
    @RELAXED
    @given(fault=fault_defs)
    def test_to_dict_from_dict_is_identity(self, fault):
        assert fault_from_dict(fault.to_dict()) == fault

    @RELAXED
    @given(fault=fault_defs)
    def test_round_trip_survives_json(self, fault):
        payload = json.loads(json.dumps(fault.to_dict()))
        assert fault_from_dict(payload) == fault

    def test_every_registered_schedule_round_trips(self):
        # The curated registry bundles must round-trip too — they are what
        # fuzz artifacts and cache metadata actually embed.
        covered = set()
        for definition in FAULTS:
            for fault in definition.faults:
                assert fault_from_dict(fault.to_dict()) == fault
                covered.add(fault.kind)
        assert covered == set(FAULT_KINDS)  # the registry exercises every kind


# --------------------------------------------------------------------- #
# Schedule canonical-order preservation
# --------------------------------------------------------------------- #
finite_time = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def records(draw, packet_id):
    arrival = draw(finite_time)
    hop = HopTiming(
        node=draw(st.sampled_from(("sw0", "sw1", "edge-a"))),
        arrival_time=arrival,
        start_service_time=arrival + draw(finite_time),
        departure_time=arrival + draw(finite_time),
    )
    return PacketRecord(
        packet_id=packet_id,
        flow_id=draw(st.integers(min_value=0, max_value=100)),
        src="h0",
        dst="h1",
        size_bytes=draw(st.floats(min_value=40.0, max_value=9000.0, allow_nan=False)),
        ingress_time=draw(finite_time),
        output_time=draw(finite_time),
        path=[hop.node, "h1"],
        hops=[hop],
    )


@st.composite
def schedules(draw):
    ids = draw(
        st.lists(st.integers(min_value=0, max_value=2**20), unique=True, max_size=10)
    )
    return Schedule([draw(records(packet_id)) for packet_id in ids])


class TestSchedulePersistenceOrder:
    @RELAXED
    @given(schedule=schedules(), compressed=st.booleans())
    def test_save_load_preserves_canonical_order(self, schedule, compressed):
        suffix = ".jsonl.gz" if compressed else ".jsonl"
        handle = tempfile.NamedTemporaryFile(suffix=suffix, delete=False)
        handle.close()
        try:
            save_schedule(handle.name, schedule, meta={"test": True})
            loaded, meta = load_schedule(handle.name)
        finally:
            os.unlink(handle.name)
        assert meta["test"] is True
        original_order = [
            (record.ingress_time, record.packet_id)
            for record in schedule.records()
        ]
        loaded_order = [
            (record.ingress_time, record.packet_id)
            for record in loaded.records()
        ]
        assert loaded_order == original_order
        assert loaded_order == sorted(loaded_order)
        # And the records themselves are lossless, not just ordered.
        for record in schedule.records():
            assert loaded.record(record.packet_id).to_dict() == record.to_dict()
