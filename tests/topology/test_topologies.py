"""Tests for topology specifications and generators."""

import pytest

from repro.schedulers.factory import uniform_factory
from repro.sim.engine import Simulator
from repro.sim.routing import RoutingError, RoutingTable
from repro.topology import dumbbell_topology
from repro.topology.base import Topology, linear_topology, single_switch_topology
from repro.topology.fattree import fattree_topology
from repro.topology.internet2 import CORE_LINKS, CORE_ROUTERS, internet2_topology
from repro.topology.rocketfuel import rocketfuel_topology
from repro.utils import mbps
from repro.utils.units import gbps


def connected(topology: Topology) -> bool:
    """Whether the routing table finds a route from one node to every other
    (and so between every pair of hosts)."""
    table = RoutingTable(topology.build(Simulator(), uniform_factory("fifo")).adjacency)
    first, *others = (node.name for node in topology.nodes)
    try:
        for other in others:
            table.path(first, other)
    except RoutingError:
        return False
    return True


class TestTopologySpec:
    def test_validate_rejects_duplicates_and_dangling_links(self):
        topo = Topology("bad")
        topo.add_host("a")
        topo.add_host("a")
        with pytest.raises(ValueError):
            topo.validate()
        topo2 = Topology("bad2")
        topo2.add_host("a")
        topo2.add_link("a", "ghost", mbps(1))
        with pytest.raises(ValueError):
            topo2.validate()

    def test_node_kind_checked(self):
        from repro.topology.base import NodeSpec

        with pytest.raises(ValueError):
            NodeSpec("x", "switchy")
        assert NodeSpec("x", "host").kind == "host"

    def test_host_and_router_listing(self):
        topo = dumbbell_topology(2, mbps(10), mbps(100))
        assert sorted(topo.host_names()) == ["dst0", "dst1", "src0", "src1"]
        assert sorted(topo.router_names()) == ["left", "right"]
        assert len(topo.nodes) == 6
        assert len(topo.links) == 5

    def test_build_is_repeatable(self):
        """The same spec can be instantiated many times (record + replay runs)."""
        topo = linear_topology(3, mbps(10))
        first = topo.build(Simulator(), uniform_factory("fifo"))
        second = topo.build(Simulator(), uniform_factory("lstf"))
        assert set(first.nodes) == set(second.nodes)
        assert set(first.links) == set(second.links)


class TestSyntheticTopologies:
    def test_connected_sees_an_unreachable_node(self):
        topo = linear_topology(2, mbps(10))
        assert connected(topo)
        topo.add_router("island")
        assert not connected(topo)

    def test_linear_requires_router(self):
        with pytest.raises(ValueError):
            linear_topology(0, mbps(1))

    def test_dumbbell_structure(self):
        topo = dumbbell_topology(3, mbps(10), mbps(100))
        assert connected(topo)
        assert len(topo.host_names()) == 6

    def test_single_switch_structure(self):
        topo = single_switch_topology(5, mbps(10))
        assert connected(topo)
        assert len(topo.router_names()) == 1
        with pytest.raises(ValueError):
            single_switch_topology(1, mbps(10))


class TestInternet2:
    def test_core_size_matches_paper(self):
        assert len(CORE_ROUTERS) == 10
        assert len(CORE_LINKS) == 16

    def test_default_counts(self):
        topo = internet2_topology(edge_routers_per_core=10, hosts_per_edge=1)
        assert len(topo.router_names()) == 10 + 10 * 10
        assert len(topo.host_names()) == 100
        assert connected(topo)

    def test_hop_counts_in_paper_range(self):
        """Host-to-host paths traverse 4-7 hops (excluding end hosts)."""
        topo = internet2_topology(edge_routers_per_core=1)
        network = topo.build(Simulator(), uniform_factory("fifo"))
        hosts = topo.host_names()
        samples = [(hosts[i], hosts[-(i + 1)]) for i in range(4)]
        for src, dst in samples:
            if src == dst:
                continue
            routers_on_path = len(network.path(src, dst)) - 2
            assert 2 <= routers_on_path <= 7

    def test_scaling_divides_bandwidths(self):
        base = internet2_topology(edge_routers_per_core=1, scale=1.0)
        scaled = internet2_topology(edge_routers_per_core=1, scale=100.0)
        base_bw = {((l.a, l.b)): l.bandwidth_bps for l in base.links}
        for link in scaled.links:
            assert link.bandwidth_bps == pytest.approx(base_bw[(link.a, link.b)] / 100.0)

    def test_bandwidth_variants(self):
        topo = internet2_topology(
            edge_core_bandwidth_bps=gbps(10),
            host_edge_bandwidth_bps=gbps(10),
            edge_routers_per_core=1,
        )
        host_links = [l for l in topo.links if l.a.startswith("host") or l.b.startswith("host")]
        assert all(l.bandwidth_bps == gbps(10) for l in host_links)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            internet2_topology(edge_routers_per_core=0)
        with pytest.raises(ValueError):
            internet2_topology(scale=0)


class TestRocketfuel:
    def test_core_size_matches_request(self):
        topo = rocketfuel_topology(num_core_routers=83, num_core_links=131,
                                   edge_routers_per_core=1)
        core_links = [l for l in topo.links if l.a.startswith("core") and l.b.startswith("core")]
        core_routers = [r for r in topo.router_names() if r.startswith("core")]
        assert len(core_routers) == 83
        assert len(core_links) == 131
        assert connected(topo)

    def test_half_core_links_slower_than_access(self):
        topo = rocketfuel_topology(num_core_routers=21, num_core_links=33)
        core_links = [l for l in topo.links if l.a.startswith("core") and l.b.startswith("core")]
        slow = [l for l in core_links if l.bandwidth_bps < gbps(1)]
        assert abs(len(slow) - len(core_links) / 2) <= 1

    def test_deterministic_for_same_seed(self):
        first = rocketfuel_topology(num_core_routers=15, num_core_links=22, seed=3)
        second = rocketfuel_topology(num_core_routers=15, num_core_links=22, seed=3)
        assert [(l.a, l.b) for l in first.links] == [(l.a, l.b) for l in second.links]

    def test_too_few_links_rejected(self):
        with pytest.raises(ValueError):
            rocketfuel_topology(num_core_routers=10, num_core_links=5)


class TestFatTree:
    def test_k4_counts(self):
        topo = fattree_topology(k=4)
        assert len(topo.host_names()) == 16
        # 4 core + 8 aggregation + 8 edge switches.
        assert len(topo.router_names()) == 20
        assert connected(topo)

    def test_uniform_bandwidth(self):
        topo = fattree_topology(k=4, bandwidth_bps=gbps(10))
        assert {link.bandwidth_bps for link in topo.links} == {gbps(10)}

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fattree_topology(k=3)

    def test_full_bisection_paths_exist(self):
        topo = fattree_topology(k=4)
        network = topo.build(Simulator(), uniform_factory("fifo"))
        hosts = topo.host_names()
        # Any two hosts in different pods are reachable within 6 hops.
        path = network.path(hosts[0], hosts[-1])
        assert 2 <= len(path) - 2 <= 6
