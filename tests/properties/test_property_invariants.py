"""Property-based tests (hypothesis) for core data structures and invariants."""

import itertools
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.metrics import compare_schedules
from repro.core.schedule import PacketRecord, Schedule
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.priority import StaticPriorityScheduler
from repro.schedulers.srpt import SrptScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.utils.stats import cdf_points, jain_fairness_index
from repro.utils.units import transmission_delay


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
packet_sizes = st.floats(min_value=40.0, max_value=9000.0)
slacks = st.floats(min_value=0.0, max_value=10.0)
times = st.floats(min_value=0.0, max_value=100.0)

#: Hand-built packets only need distinct ids (schedulers key their queues on them).
_ids = itertools.count()


def make_packet(size=1000.0, slack=None, priority=None, remaining=None, flow_id=1):
    packet = Packet(flow_id=flow_id, src="a", dst="b", size_bytes=size, packet_id=next(_ids))
    packet.header.slack = slack
    packet.header.priority = priority
    packet.header.remaining_flow_bytes = remaining
    return packet


# --------------------------------------------------------------------- #
# Engine invariants
# --------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_engine_executes_events_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# --------------------------------------------------------------------- #
# Scheduler invariants: work conservation and ordering
# --------------------------------------------------------------------- #
@given(st.lists(packet_sizes, min_size=1, max_size=30))
def test_fifo_is_work_conserving_and_preserves_order(sizes):
    scheduler = FifoScheduler()
    packets = [make_packet(size=s) for s in sizes]
    for index, packet in enumerate(packets):
        scheduler.enqueue(packet, float(index))
    served = []
    while len(scheduler):
        served.append(scheduler.dequeue(100.0))
    assert served == packets
    assert scheduler.byte_count == pytest.approx(0.0, abs=1e-6)


@given(st.lists(slacks, min_size=1, max_size=30))
def test_lstf_serves_equal_size_simultaneous_arrivals_in_slack_order(initial_slacks):
    scheduler = LstfScheduler()
    packets = [make_packet(size=1000.0, slack=slack) for slack in initial_slacks]
    for packet in packets:
        scheduler.enqueue(packet, 0.0)
    # Record each packet's slack before dequeue rewrites it.
    slack_of = {id(packet): packet.header.slack for packet in packets}
    served = []
    while len(scheduler):
        served.append(scheduler.dequeue(0.0))
    # All packets served exactly once, in non-decreasing slack order (ties
    # broken by arrival, which here is simultaneous).
    assert sorted(id(p) for p in served) == sorted(id(p) for p in packets)
    served_slacks = [slack_of[id(p)] for p in served]
    assert served_slacks == sorted(served_slacks)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
def test_static_priority_serves_in_priority_order(priorities):
    scheduler = StaticPriorityScheduler()
    packets = [make_packet(priority=p) for p in priorities]
    for packet in packets:
        scheduler.enqueue(packet, 0.0)
    served = []
    while len(scheduler):
        served.append(scheduler.dequeue(0.0))
    served_priorities = [p.header.priority for p in served]
    assert served_priorities == sorted(served_priorities)


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.floats(min_value=1.0, max_value=1e6)),
        min_size=1,
        max_size=40,
    )
)
def test_srpt_never_loses_or_duplicates_packets(items):
    scheduler = SrptScheduler()
    packets = [make_packet(flow_id=flow, remaining=rem) for flow, rem in items]
    for packet in packets:
        scheduler.enqueue(packet, 0.0)
    served = []
    while len(scheduler):
        served.append(scheduler.dequeue(0.0))
    assert sorted(id(p) for p in served) == sorted(id(p) for p in packets)
    assert scheduler.byte_count == 0


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), packet_sizes),
        min_size=2,
        max_size=40,
    )
)
def test_fair_queueing_conserves_packets_and_bytes(items):
    scheduler = FairQueueingScheduler()
    packets = [make_packet(flow_id=flow, size=size) for flow, size in items]
    total_bytes = sum(p.size_bytes for p in packets)
    for packet in packets:
        scheduler.enqueue(packet, 0.0)
    assert scheduler.byte_count == sum(p.size_bytes for p in packets)
    served = []
    while len(scheduler):
        served.append(scheduler.dequeue(0.0))
    assert len(served) == len(packets)
    assert math.isclose(sum(p.size_bytes for p in served), total_bytes)


# --------------------------------------------------------------------- #
# Statistics invariants
# --------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=100))
def test_jain_index_bounds(allocations):
    index = jain_fairness_index(allocations)
    assert 0.0 <= index <= 1.0 + 1e-12


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
def test_cdf_points_monotone_and_normalized(values):
    xs, cdf = cdf_points(values)
    assert xs == sorted(xs)
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] == 1.0


# --------------------------------------------------------------------- #
# Replay metric invariants
# --------------------------------------------------------------------- #
def _schedule_from(outputs, base=None):
    records = []
    for index, output in enumerate(outputs):
        records.append(
            PacketRecord(
                packet_id=index,
                flow_id=index,
                src="a",
                dst="b",
                size_bytes=1000,
                ingress_time=0.0,
                output_time=output if base is None else base[index] + output,
                path=["a", "b"],
            )
        )
    return Schedule(records)


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=50),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=50),
    st.floats(min_value=0.001, max_value=1.0),
)
@settings(suppress_health_check=[HealthCheck.filter_too_much])
def test_overdue_fractions_are_consistent(outputs, deltas, threshold):
    size = min(len(outputs), len(deltas))
    outputs = outputs[:size]
    deltas = deltas[:size]
    # Keep lateness values away from the decision boundaries so the expected
    # counts are not sensitive to floating-point rounding in `base + delta`.
    assume(all(abs(d) > 1e-6 and abs(d - threshold) > 1e-6 for d in deltas))
    original = _schedule_from(outputs)
    replay = _schedule_from(deltas, base=outputs)
    metrics = compare_schedules(original, replay, threshold=threshold)
    assert 0.0 <= metrics.overdue_beyond_threshold_fraction <= metrics.overdue_fraction <= 1.0
    expected_overdue = sum(1 for d in deltas if d > 1e-9)
    assert metrics.overdue_count == expected_overdue
    expected_beyond = sum(1 for d in deltas if d > threshold)
    assert metrics.overdue_beyond_threshold_count == expected_beyond


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=50))
def test_replaying_a_schedule_with_itself_has_no_overdue_packets(outputs):
    schedule = _schedule_from(outputs)
    metrics = compare_schedules(schedule, schedule, threshold=0.01)
    assert metrics.overdue_count == 0
    assert metrics.mean_lateness == 0.0
