"""Unit tests for FIFO, LIFO, Random, and static-priority scheduling order."""

import itertools

import pytest

from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.lifo import LifoScheduler
from repro.schedulers.priority import SjfScheduler, StaticPriorityScheduler
from repro.schedulers.random_sched import RandomScheduler
from repro.sim.packet import Packet
from repro.utils.rng import RandomState

#: Hand-built packets only need distinct ids (schedulers key their queues on them).
_ids = itertools.count()


def packet(size=1000, priority=None, flow_size=None, flow_id=1):
    pkt = Packet(flow_id=flow_id, src="a", dst="b", size_bytes=size, packet_id=next(_ids))
    pkt.header.priority = priority
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


class TestFifo:
    def test_serves_in_arrival_order(self):
        scheduler = FifoScheduler()
        packets = [packet() for _ in range(5)]
        for index, pkt in enumerate(packets):
            scheduler.enqueue(pkt, float(index))
        assert drain(scheduler) == packets

    def test_len_and_bytes_track_queue(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(packet(size=100), 0.0)
        scheduler.enqueue(packet(size=200), 0.0)
        assert len(scheduler) == 2
        assert scheduler.byte_count == 300
        scheduler.dequeue(0.0)
        assert len(scheduler) == 1
        assert scheduler.byte_count == 200

    def test_remove_specific_packet(self):
        scheduler = FifoScheduler()
        first, second = packet(), packet()
        scheduler.enqueue(first, 0.0)
        scheduler.enqueue(second, 0.0)
        assert scheduler.remove(first)
        assert not scheduler.remove(first)
        assert drain(scheduler) == [second]

    def test_dequeue_empty_returns_none(self):
        assert FifoScheduler().dequeue(0.0) is None


class TestLifo:
    def test_serves_most_recent_first(self):
        scheduler = LifoScheduler()
        packets = [packet() for _ in range(4)]
        for index, pkt in enumerate(packets):
            scheduler.enqueue(pkt, float(index))
        assert drain(scheduler) == list(reversed(packets))

    def test_remove(self):
        scheduler = LifoScheduler()
        first, second = packet(), packet()
        scheduler.enqueue(first, 0.0)
        scheduler.enqueue(second, 0.0)
        assert scheduler.remove(second)
        assert drain(scheduler) == [first]


class TestRandom:
    def test_serves_all_packets_exactly_once(self):
        scheduler = RandomScheduler(RandomState(1))
        packets = [packet() for _ in range(20)]
        for pkt in packets:
            scheduler.enqueue(pkt, 0.0)
        served = drain(scheduler)
        assert sorted(p.packet_id for p in served) == sorted(p.packet_id for p in packets)

    def test_order_is_seed_dependent_but_reproducible(self):
        def order(seed):
            scheduler = RandomScheduler(RandomState(seed))
            packets = [packet() for _ in range(10)]
            for pkt in packets:
                scheduler.enqueue(pkt, 0.0)
            return [packets.index(pkt) for pkt in drain(scheduler)]

        first = order(5)
        second = order(5)
        different = order(6)
        assert first == second
        assert first != different

    def test_single_entry_dequeue_draws_nothing(self):
        rng = RandomState(7)
        scheduler = RandomScheduler(rng)
        only = packet()
        scheduler.enqueue(only, 0.0)
        before = rng.generator.bit_generator.state
        assert scheduler.dequeue(0.0) is only
        assert rng.generator.bit_generator.state == before

    def test_short_circuit_pops_the_always_draw_sequence(self):
        class AlwaysDraw(RandomScheduler):
            """The pre-short-circuit dequeue: one ``randint`` per service."""

            def dequeue(self, now):
                if not self._queue:
                    return None
                entry = self._queue.pop(self._rng.randint(0, len(self._queue)))
                self._bytes -= entry.packet.size_bytes
                return entry.packet

        script = RandomState(11)  # seeded enqueue/dequeue script, many lone packets
        twins = (RandomScheduler(RandomState(4)), AlwaysDraw(RandomState(4)))
        popped = ([], [])
        for step in range(400):
            if script.uniform() < 0.5:
                pkt = packet()
                for twin in twins:
                    twin.enqueue(pkt, float(step))
            else:
                for out, twin in zip(popped, twins):
                    out.append(twin.dequeue(float(step)))
        assert popped[0] == popped[1]
        assert any(p is not None for p in popped[0])
        assert twins[0]._rng.generator.bit_generator.state == (
            twins[1]._rng.generator.bit_generator.state
        )

    def test_random_order_differs_from_fifo_for_long_queues(self):
        scheduler = RandomScheduler(RandomState(3))
        packets = [packet() for _ in range(30)]
        for pkt in packets:
            scheduler.enqueue(pkt, 0.0)
        assert drain(scheduler) != packets


class TestStaticPriority:
    def test_lowest_priority_value_served_first(self):
        scheduler = StaticPriorityScheduler()
        low = packet(priority=5.0)
        urgent = packet(priority=1.0)
        middle = packet(priority=3.0)
        for pkt in (low, urgent, middle):
            scheduler.enqueue(pkt, 0.0)
        assert drain(scheduler) == [urgent, middle, low]

    def test_missing_priority_served_last(self):
        scheduler = StaticPriorityScheduler()
        unprioritized = packet(priority=None)
        prioritized = packet(priority=10.0)
        scheduler.enqueue(unprioritized, 0.0)
        scheduler.enqueue(prioritized, 1.0)
        assert drain(scheduler) == [prioritized, unprioritized]

    def test_ties_broken_fifo(self):
        scheduler = StaticPriorityScheduler()
        first = packet(priority=2.0)
        second = packet(priority=2.0)
        scheduler.enqueue(first, 0.0)
        scheduler.enqueue(second, 1.0)
        assert drain(scheduler) == [first, second]


class TestSjf:
    def test_smaller_flow_size_wins(self):
        scheduler = SjfScheduler()
        big = packet(flow_size=1e6)
        small = packet(flow_size=1e3)
        scheduler.enqueue(big, 0.0)
        scheduler.enqueue(small, 0.0)
        assert drain(scheduler) == [small, big]

    def test_fallback_order(self):
        scheduler = SjfScheduler()
        sized = packet(flow_size=100.0)
        prioritized = packet(flow_size=None, priority=50.0)
        neither = packet(flow_size=None, priority=None)
        for pkt in (neither, prioritized, sized):
            scheduler.enqueue(pkt, 0.0)
        served = drain(scheduler)
        assert served[-1] is neither
        assert set(served[:2]) == {sized, prioritized}
