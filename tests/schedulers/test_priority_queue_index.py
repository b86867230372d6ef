"""PriorityScheduler queued-id index: O(1) removal semantics and byte-count
exactness (the float-drift guard)."""

import itertools
import random

from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.priority import StaticPriorityScheduler
from repro.sim.packet import Packet

#: Hand-built packets only need distinct ids (schedulers key their queues on them).
_ids = itertools.count()


def packet(size=1000.0, priority=1.0):
    pkt = Packet(flow_id=1, src="a", dst="b", size_bytes=size, packet_id=next(_ids))
    pkt.header.priority = priority
    return pkt


class TestRemoveIndex:
    def test_remove_unknown_packet_returns_false(self):
        scheduler = StaticPriorityScheduler()
        scheduler.enqueue(packet(), 0.0)
        assert not scheduler.remove(packet())

    def test_remove_twice_returns_false(self):
        scheduler = StaticPriorityScheduler()
        victim = packet()
        scheduler.enqueue(victim, 0.0)
        assert scheduler.remove(victim)
        assert not scheduler.remove(victim)

    def test_removed_packet_never_dequeued(self):
        scheduler = StaticPriorityScheduler()
        keep, drop = packet(priority=2.0), packet(priority=1.0)
        scheduler.enqueue(keep, 0.0)
        scheduler.enqueue(drop, 0.0)
        assert scheduler.remove(drop)
        assert scheduler.dequeue(0.0) is keep
        assert scheduler.dequeue(0.0) is None

    def test_remove_already_dequeued_packet_returns_false(self):
        scheduler = StaticPriorityScheduler()
        pkt = packet()
        scheduler.enqueue(pkt, 0.0)
        assert scheduler.dequeue(0.0) is pkt
        assert not scheduler.remove(pkt)

    def test_len_and_bytes_consistent_through_interleaved_ops(self):
        scheduler = StaticPriorityScheduler()
        rng = random.Random(7)
        queued = []
        expected_bytes = 0.0
        for step in range(500):
            action = rng.random()
            if action < 0.5 or not queued:
                pkt = packet(size=float(rng.randint(40, 1500)), priority=rng.random())
                scheduler.enqueue(pkt, float(step))
                queued.append(pkt)
                expected_bytes += pkt.size_bytes
            elif action < 0.75:
                victim = queued.pop(rng.randrange(len(queued)))
                assert scheduler.remove(victim)
                expected_bytes -= victim.size_bytes
            else:
                served = scheduler.dequeue(float(step))
                assert served in queued
                queued.remove(served)
                expected_bytes -= served.size_bytes
            assert len(scheduler) == len(queued)
            assert scheduler.byte_count == expected_bytes

    def test_peek_skips_removed_entries(self):
        scheduler = StaticPriorityScheduler()
        urgent, patient = packet(priority=1.0), packet(priority=2.0)
        scheduler.enqueue(urgent, 0.0)
        scheduler.enqueue(patient, 0.0)
        assert scheduler.remove(urgent)
        assert scheduler.peek(0.0) is patient
        assert scheduler.queued_packets() == [patient]


class TestByteCountDriftGuard:
    def test_bytes_exactly_zero_after_many_float_cycles(self):
        # Sizes chosen so that the running float sum accumulates rounding
        # error; after every queue drain the byte count must still be
        # exactly 0.0, not a small residue.
        scheduler = LstfScheduler()
        sizes = [0.1, 0.2, 0.3, 1e-9, 123.456, 7.7]
        for cycle in range(200):
            packets = [packet(size=size) for size in sizes]
            for pkt in packets:
                pkt.header.slack = 1.0
                scheduler.enqueue(pkt, 0.0)
            # Drain half by dequeue, half by remove.
            scheduler.remove(packets[0])
            scheduler.remove(packets[2])
            while scheduler.dequeue(0.0) is not None:
                pass
            assert scheduler.byte_count == 0.0
            assert len(scheduler) == 0

    def test_bytes_zero_when_emptied_by_remove_alone(self):
        scheduler = StaticPriorityScheduler()
        packets = [packet(size=0.1) for _ in range(10)]
        for pkt in packets:
            scheduler.enqueue(pkt, 0.0)
        for pkt in packets:
            assert scheduler.remove(pkt)
        assert scheduler.byte_count == 0.0
        assert scheduler.dequeue(0.0) is None
