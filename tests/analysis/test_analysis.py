"""Tests for the analysis layer: FCT buckets, delay statistics, fairness index."""

import pytest

from repro.analysis.delay import delay_ccdf, delay_statistics, packet_delays
from repro.analysis.fairness import FairnessTimeseries, fairness_timeseries
from repro.analysis.fct import fct_by_flow_size, mean_fct
from repro.sim.flow import Flow
from repro.sim.packet import Packet, PacketType


def delivered_packet(flow_id=1, ingress=0.0, egress=1.0, size=1000, ptype=PacketType.DATA):
    packet = Packet(flow_id=flow_id, src="a", dst="b", size_bytes=size, ptype=ptype, packet_id=0)
    packet.ingress_time = ingress
    packet.egress_time = egress
    return packet


def completed_flow(size, fct, start=0.0):
    flow = Flow(src="a", dst="b", size_bytes=size, start_time=start)
    flow.completion_time = start + fct
    return flow


class TestFct:
    def test_mean_fct_over_completed_flows_only(self):
        flows = [completed_flow(1000, 0.2), completed_flow(1000, 0.4),
                 Flow(src="a", dst="b", size_bytes=1000, start_time=0.0)]
        assert mean_fct(flows) == pytest.approx(0.3)

    def test_mean_fct_none_when_nothing_completed(self):
        assert mean_fct([Flow(src="a", dst="b", size_bytes=1, start_time=0)]) is None

    def test_bucketing_by_flow_size(self):
        flows = [
            completed_flow(1000, 0.1),
            completed_flow(1500, 0.2),
            completed_flow(50000, 1.0),
        ]
        buckets = fct_by_flow_size(flows, bucket_edges=[1460, 10000])
        assert buckets[0].count == 1 and buckets[0].mean_fct == pytest.approx(0.1)
        assert buckets[1].count == 1 and buckets[1].mean_fct == pytest.approx(0.2)
        assert buckets[2].count == 1 and buckets[2].mean_fct == pytest.approx(1.0)
        assert buckets[2].label.startswith(">")

    def test_bucket_edges_must_be_sorted(self):
        with pytest.raises(ValueError):
            fct_by_flow_size([], bucket_edges=[100, 10])


class TestDelay:
    def test_packet_delays_exclude_acks_by_default(self):
        packets = [
            delivered_packet(egress=1.0),
            delivered_packet(egress=2.0, ptype=PacketType.ACK),
        ]
        assert packet_delays(packets) == [1.0]
        assert len(packet_delays(packets, data_only=False)) == 2

    def test_delay_statistics_values(self):
        packets = [delivered_packet(egress=float(i)) for i in range(1, 101)]
        stats = delay_statistics(packets)
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.p99 == pytest.approx(99.01, rel=0.01)
        assert stats.maximum == 100.0

    def test_delay_statistics_empty(self):
        stats = delay_statistics([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_ccdf_is_decreasing(self):
        packets = [delivered_packet(egress=float(i)) for i in range(1, 11)]
        xs, ccdf = delay_ccdf(packets)
        assert all(b <= a for a, b in zip(ccdf, ccdf[1:]))


class TestFairness:
    def test_equal_flows_give_index_one(self):
        packets = []
        for flow_id in range(4):
            for k in range(10):
                packets.append(delivered_packet(flow_id=flow_id, egress=0.05 + k * 0.01))
        series = fairness_timeseries(packets, bin_width=0.05, end_time=0.2,
                                     flow_ids=list(range(4)))
        assert isinstance(series, FairnessTimeseries)
        # Bins where all four flows delivered equally must have index 1.
        assert max(series.index) == pytest.approx(1.0)

    def test_single_active_flow_gives_one_over_n(self):
        packets = [delivered_packet(flow_id=0, egress=0.01 * k) for k in range(1, 10)]
        series = fairness_timeseries(packets, bin_width=0.05, end_time=0.1,
                                     flow_ids=[0, 1, 2, 3])
        assert series.index[0] == pytest.approx(0.25)

    def test_time_to_reach_and_final_index(self):
        series = FairnessTimeseries(bin_width=0.1, times=[0.1, 0.2, 0.3], index=[0.5, 0.92, 0.99])
        assert series.time_to_reach(0.9) == pytest.approx(0.2)
        assert series.time_to_reach(0.999) is None
        assert series.final_index() == pytest.approx(0.99)

    def test_invalid_bin_width_rejected(self):
        with pytest.raises(ValueError):
            fairness_timeseries([], bin_width=0.0, end_time=1.0)
