"""Unit tests for fair queueing (SCFQ), DRR, and the flow-aware SRPT/SJF schedulers."""

import itertools

import pytest

from repro.schedulers.drr import DrrScheduler
from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.srpt import SjfStarvationFreeScheduler, SrptScheduler
from repro.sim.packet import Packet

#: Hand-built packets only need distinct ids (schedulers key their queues on them).
_ids = itertools.count()


def packet(flow_id, size=1000, remaining=None, flow_size=None):
    pkt = Packet(flow_id=flow_id, src="a", dst="b", size_bytes=size, packet_id=next(_ids))
    pkt.header.remaining_flow_bytes = remaining
    pkt.header.flow_size_bytes = flow_size
    return pkt


def drain(scheduler, now=0.0):
    out = []
    while True:
        item = scheduler.dequeue(now)
        if item is None:
            break
        out.append(item)
    return out


class TestFairQueueing:
    def test_interleaves_two_backlogged_flows(self):
        scheduler = FairQueueingScheduler()
        flow_a = [packet(1) for _ in range(4)]
        flow_b = [packet(2) for _ in range(4)]
        # Flow A's burst arrives first, then flow B's.
        for pkt in flow_a:
            scheduler.enqueue(pkt, 0.0)
        for pkt in flow_b:
            scheduler.enqueue(pkt, 0.0)
        served = drain(scheduler)
        first_four_flows = [p.flow_id for p in served[:4]]
        # Fair queueing must not drain flow A's whole burst before serving B.
        assert set(first_four_flows) == {1, 2}

    def test_equal_service_for_equal_demand(self):
        scheduler = FairQueueingScheduler()
        for index in range(12):
            scheduler.enqueue(packet(1 + index % 3), 0.0)
        served = drain(scheduler)
        counts = {flow: 0 for flow in (1, 2, 3)}
        for pkt in served[:6]:
            counts[pkt.flow_id] += 1
        assert all(count == 2 for count in counts.values())

    def test_weighted_flows_get_proportional_share(self):
        scheduler = FairQueueingScheduler()
        heavy_packets = [packet(1) for _ in range(8)]
        light_packets = [packet(2) for _ in range(8)]
        for pkt in heavy_packets:
            pkt.flow_weight = 2.0
            scheduler.enqueue(pkt, 0.0)
        for pkt in light_packets:
            pkt.flow_weight = 1.0
            scheduler.enqueue(pkt, 0.0)
        served = drain(scheduler)
        first_six = [p.flow_id for p in served[:6]]
        # Flow 1 (weight 2) should receive roughly twice the service early on.
        assert first_six.count(1) > first_six.count(2)

    def test_fairness_is_in_bytes_not_packets(self):
        scheduler = FairQueueingScheduler()
        large = [packet(1, size=1500) for _ in range(3)]
        small = [packet(2, size=100) for _ in range(30)]
        for pkt in large:
            scheduler.enqueue(pkt, 0.0)
        for pkt in small:
            scheduler.enqueue(pkt, 0.0)
        served = drain(scheduler)
        # Byte-fairness: a 1500-byte packet of flow 1 is worth ~15 of flow 2's
        # 100-byte packets, so flow 1's first packet must be interleaved with
        # flow 2's burst (served before flow 2's last packet), and the flow
        # with more total bytes (flow 1, 4500 B vs 3000 B) finishes last.
        first_large_index = min(i for i, p in enumerate(served) if p.flow_id == 1)
        last_small_index = max(i for i, p in enumerate(served) if p.flow_id == 2)
        assert first_large_index < last_small_index
        assert served[-1].flow_id == 1


class TestDrr:
    def test_round_robin_across_flows(self):
        scheduler = DrrScheduler(quantum_bytes=1000)
        for _ in range(3):
            scheduler.enqueue(packet(1, size=1000), 0.0)
            scheduler.enqueue(packet(2, size=1000), 0.0)
        served = [p.flow_id for p in drain(scheduler)]
        # Strict alternation once both flows are active.
        assert served.count(1) == served.count(2) == 3
        assert served[:2] in ([1, 2], [2, 1])

    def test_large_packet_waits_for_enough_deficit(self):
        scheduler = DrrScheduler(quantum_bytes=500)
        scheduler.enqueue(packet(1, size=1400), 0.0)
        scheduler.enqueue(packet(2, size=400), 0.0)
        served = drain(scheduler)
        assert len(served) == 2
        # The small packet from flow 2 should not be blocked behind flow 1's
        # credit accumulation.
        assert served[0].flow_id == 2

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ValueError):
            DrrScheduler(quantum_bytes=0)

    def test_remove_packet(self):
        scheduler = DrrScheduler()
        first = packet(1)
        second = packet(1)
        scheduler.enqueue(first, 0.0)
        scheduler.enqueue(second, 0.0)
        assert scheduler.remove(first)
        assert drain(scheduler) == [second]


class TestSrpt:
    def test_flow_with_least_remaining_bytes_wins(self):
        scheduler = SrptScheduler()
        nearly_done = packet(1, remaining=2000)
        just_started = packet(2, remaining=1e6)
        scheduler.enqueue(just_started, 0.0)
        scheduler.enqueue(nearly_done, 0.0)
        assert drain(scheduler) == [nearly_done, just_started]

    def test_starvation_prevention_serves_flow_in_fifo_order(self):
        scheduler = SrptScheduler()
        # Flow 1's first packet carries a large remaining size but its second
        # carries a small one: the *flow* is selected by its best packet, and
        # within the flow packets go in arrival order (pFabric's rule).
        first = packet(1, remaining=10000)
        second = packet(1, remaining=1000)
        competitor = packet(2, remaining=5000)
        scheduler.enqueue(first, 0.0)
        scheduler.enqueue(competitor, 1.0)
        scheduler.enqueue(second, 2.0)
        served = drain(scheduler)
        assert served == [first, second, competitor]

    def test_drop_victim_is_worst_priority(self):
        scheduler = SrptScheduler()
        keep = packet(1, remaining=100)
        drop = packet(2, remaining=1e9)
        scheduler.enqueue(keep, 0.0)
        scheduler.enqueue(drop, 0.0)
        arriving = packet(3, remaining=500)
        assert scheduler.choose_drop(arriving, 0.0) is drop

    def test_byte_count_tracks_removals(self):
        scheduler = SrptScheduler()
        first = packet(1, remaining=100, size=700)
        second = packet(2, remaining=200, size=300)
        scheduler.enqueue(first, 0.0)
        scheduler.enqueue(second, 0.0)
        assert scheduler.byte_count == 1000
        scheduler.remove(first)
        assert scheduler.byte_count == 300
        assert len(scheduler) == 1


class TestSjfStarvationFree:
    def test_small_flow_first(self):
        scheduler = SjfStarvationFreeScheduler()
        small = packet(1, flow_size=1000)
        large = packet(2, flow_size=1e6)
        scheduler.enqueue(large, 0.0)
        scheduler.enqueue(small, 0.0)
        assert drain(scheduler) == [small, large]

    def test_unsized_flow_served_last(self):
        scheduler = SjfStarvationFreeScheduler()
        unsized = packet(1, flow_size=None)
        sized = packet(2, flow_size=5000)
        scheduler.enqueue(unsized, 0.0)
        scheduler.enqueue(sized, 0.0)
        assert drain(scheduler) == [sized, unsized]
