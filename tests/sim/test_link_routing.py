"""Tests for links, routing tables, and tmin computation."""

import pytest

from repro.schedulers.factory import uniform_factory
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.routing import RoutingError, RoutingTable
from repro.topology.base import linear_topology
from repro.utils import mbps
from repro.utils.units import transmission_delay


class TestLink:
    def test_transmission_delay(self):
        link = Link("a", "b", bandwidth_bps=mbps(10), propagation_delay=0.001)
        assert link.transmission_delay(1250) == pytest.approx(0.001)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link("a", "b", bandwidth_bps=1e6, propagation_delay=-1)

    def test_name(self):
        assert Link("a", "b", 1e6).name == "a->b"


class TestRoutingTable:
    def _graph(self):
        # The ring a - b - c - d - a, edges added in that order.
        return {"a": ["b", "d"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c", "a"]}

    def test_shortest_path_and_next_hop(self):
        table = RoutingTable(self._graph())
        assert table.path("a", "c") in (["a", "b", "c"], ["a", "d", "c"])
        assert table.next_hop("a", "c") in ("b", "d")

    def test_path_to_self(self):
        table = RoutingTable(self._graph())
        assert table.path("a", "a") == ["a"]
        with pytest.raises(RoutingError):
            table.next_hop("a", "a")

    def test_missing_route_raises(self):
        graph = self._graph()
        graph["isolated"] = []
        table = RoutingTable(graph)
        with pytest.raises(RoutingError):
            table.path("a", "isolated")
        with pytest.raises(RoutingError):
            table.path("a", "unknown")

    def test_paths_are_cached_and_deterministic(self):
        table = RoutingTable(self._graph())
        assert table.path("a", "c") is table.path("a", "c")

    def test_ties_go_to_the_bidirectional_search(self):
        """Two four-hop routes between two aggregation switches of a k=4
        fat-tree, cut down to one 8-ring with one host hanging off it.

        Breadth-first from the source alone would take the first neighbour,
        ``core-0-1``, and the route the other way round the ring.  The
        bidirectional search grows the forward fringe, then (smaller) the
        backward one, then (a tie) the forward one again.  The pendant host
        makes the forward fringe three nodes against two, so the backward
        search takes the next round and meets the forward one at
        ``agg-0-1``.
        """
        adjacency = {
            "core-0-1": ["agg-0-0", "agg-1-0"],
            "core-1-1": ["agg-0-1", "agg-1-1"],
            "agg-0-0": ["core-0-1", "edge-0-1"],
            "agg-0-1": ["core-1-1", "edge-0-1"],
            "edge-0-1": ["agg-0-0", "agg-0-1", "host-0-1-1"],
            "host-0-1-1": ["edge-0-1"],
            "agg-1-0": ["core-0-1", "edge-1-1"],
            "agg-1-1": ["core-1-1", "edge-1-1"],
            "edge-1-1": ["agg-1-0", "agg-1-1"],
        }
        route = RoutingTable(adjacency).path("agg-0-0", "agg-1-1")
        assert route == ["agg-0-0", "edge-0-1", "agg-0-1", "core-1-1", "agg-1-1"]


class TestNetworkTmin:
    def test_tmin_matches_hand_computation(self):
        topo = linear_topology(num_routers=2, bandwidth_bps=mbps(10), hosts_per_end=1)
        sim = Simulator()
        network = topo.build(sim, uniform_factory("fifo"))
        size = 1000.0
        # Path: src0 -> r0 -> r1 -> dst0, three links all at 10 Mbps, no
        # propagation delay.
        expected = 3 * transmission_delay(size, mbps(10))
        assert network.tmin(size, "src0", "dst0") == pytest.approx(expected)

    def test_tmin_single_node_path_is_zero(self):
        topo = linear_topology(num_routers=2, bandwidth_bps=mbps(10))
        network = topo.build(Simulator(), uniform_factory("fifo"))
        assert network.tmin_along(1000.0, ["r0"]) == 0.0

    def test_bottleneck_transmission_time_uses_slowest_link(self):
        topo = linear_topology(
            num_routers=2, bandwidth_bps=mbps(1), access_bandwidth_bps=mbps(100)
        )
        assert topo.bottleneck_transmission_time(1460) == pytest.approx(
            transmission_delay(1460, mbps(1))
        )

    def test_tmin_remaining_honours_source_route(self):
        topo = linear_topology(num_routers=3, bandwidth_bps=mbps(10))
        network = topo.build(Simulator(), uniform_factory("fifo"))
        from repro.sim.packet import Packet

        packet = Packet(
            flow_id=1,
            src="src0",
            dst="dst0",
            size_bytes=1000,
            route=["src0", "r0", "r1", "r2", "dst0"],
            packet_id=0,
        )
        remaining = network.tmin_remaining(packet, "r1")
        expected = network.tmin_along(1000, ["r1", "r2", "dst0"])
        assert remaining == pytest.approx(expected)


class TestForwardingTable:
    """Per-node ``dst -> port`` tables: filled through the routing table,
    cleared on any topology mutation, bypassed by source routes."""

    def _line(self):
        # a - r1 - r2 - r3 - c
        sim = Simulator()
        network = Network(sim, uniform_factory("fifo"))
        network.add_host("a")
        network.add_host("c")
        for name in ("r1", "r2", "r3"):
            network.add_router(name)
        for left, right in (("a", "r1"), ("r1", "r2"), ("r2", "r3"), ("r3", "c")):
            network.add_link(left, right, mbps(10))
        return sim, network

    def _deliver(self, sim, network, **fields):
        packet = Packet(
            flow_id=1, src="a", dst="c", size_bytes=1000, packet_id=next(sim.packet_ids), **fields
        )
        network.host("a").send(packet)
        sim.run()
        return packet

    def test_table_fills_on_first_use_and_add_link_clears_it(self):
        sim, network = self._line()
        assert all(not node.forwarding for node in network.nodes.values())
        for _ in range(2):
            assert self._deliver(sim, network).path_taken == ["a", "r1", "r2", "r3"]
        r1 = network.nodes["r1"]
        assert r1.forwarding == {"c": r1.ports["r2"]}
        assert network.nodes["a"].forwarding == {"c": network.nodes["a"].ports["r1"]}

        network.add_link("r1", "r3", mbps(10))
        assert all(not node.forwarding for node in network.nodes.values())
        shortcut = self._deliver(sim, network)
        assert shortcut.path_taken == ["a", "r1", "r3"]
        assert shortcut.path_taken + ["c"] == network.path("a", "c")
        assert r1.forwarding == {"c": r1.ports["r3"]}

    def test_add_node_clears_the_tables_too(self):
        sim, network = self._line()
        self._deliver(sim, network)
        network.add_router("spare")
        assert all(not node.forwarding for node in network.nodes.values())
        network.add_host("late")
        assert self._deliver(sim, network).egress_time is not None

    def test_unroutable_destination_raises_routing_error(self):
        sim, network = self._line()
        network.add_host("island")
        stray = Packet(flow_id=1, src="a", dst="island", size_bytes=1000, packet_id=0)
        with pytest.raises(RoutingError, match="no route from a to island"):
            network.host("a").send(stray)
        # A router asked to forward to itself has no next hop either.
        with pytest.raises(RoutingError, match="already the destination"):
            network.nodes["r1"].receive(
                Packet(flow_id=1, src="a", dst="r1", size_bytes=1000, packet_id=1)
            )
        assert "island" not in network.nodes["a"].forwarding

    def test_missing_port_raises_the_same_key_error(self):
        sim, network = self._line()
        del network.nodes["r1"].ports["r2"]
        network.host("a").send(Packet(flow_id=1, src="a", dst="c", size_bytes=1000, packet_id=0))
        with pytest.raises(KeyError, match="r1 has no port towards r2"):
            sim.run()
        assert "c" not in network.nodes["r1"].forwarding
        with pytest.raises(KeyError, match="r1 has no port towards r2"):
            network.nodes["r1"].port_to("r2")

    def test_source_routes_bypass_the_table(self):
        sim, network = self._line()
        network.add_link("r1", "r3", mbps(10))  # table route would skip r2
        pinned = self._deliver(sim, network, route=["a", "r1", "r2", "r3", "c"])
        assert pinned.path_taken == ["a", "r1", "r2", "r3"]
        assert all(not node.forwarding for node in network.nodes.values())

    def test_source_routed_packet_off_its_route_fails_loudly(self):
        sim, network = self._line()
        off_route = Packet(
            flow_id=1, src="a", dst="c", size_bytes=1000, route=["a", "r1", "c"], packet_id=0
        )
        with pytest.raises(RuntimeError, match="does not contain node r2"):
            network.nodes["r2"].receive(off_route)
        truncated = Packet(
            flow_id=1, src="a", dst="c", size_bytes=1000, route=["a", "r1"], packet_id=1
        )
        with pytest.raises(RuntimeError, match="reached the end of its source route at r1"):
            network.nodes["r1"].receive(truncated)
        # An out-of-step cursor falls back to the scan and recovers.
        midway = Packet(
            flow_id=1,
            src="a",
            dst="c",
            size_bytes=1000,
            route=["a", "r1", "r2", "r3", "c"],
            packet_id=2,
        )
        network.nodes["r2"].receive(midway)
        sim.run()
        assert midway.path_taken == ["r2", "r3"] and midway.egress_time is not None
