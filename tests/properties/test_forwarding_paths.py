"""Property: the per-node forwarding tables agree with the routing table.

The hop path looks a table-routed packet's output port up in a per-node
``dst -> port`` table; the routing table it is filled from stays the oracle.
Over small random connected topologies, every delivered packet must have
walked exactly the next hops the routing table names, and a replay of the
recording (source-routed, so it never touches the tables) must visit the
same nodes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replay import replay_schedule
from repro.core.schedule import Schedule
from repro.schedulers.factory import uniform_factory
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.tracer import Tracer
from repro.topology.base import Topology
from repro.utils import mbps


@st.composite
def topologies(draw):
    """A connected router graph with one host per chosen router: ``(topo, hosts)``.

    The extra edges beyond the spanning tree produce equal-cost alternatives
    (``tests/sim/test_flat_record.py`` draws from this too).
    """
    routers = draw(st.integers(min_value=2, max_value=6))
    topo = Topology("random")
    for index in range(routers):
        topo.add_router(f"r{index}")
    edges = set()
    for index in range(1, routers):  # a random spanning tree keeps it connected
        edges.add((draw(st.integers(min_value=0, max_value=index - 1)), index))
    extra = st.tuples(
        st.integers(min_value=0, max_value=routers - 1),
        st.integers(min_value=0, max_value=routers - 1),
    )
    for a, b in draw(st.lists(extra, max_size=4)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for a, b in sorted(edges):
        topo.add_link(f"r{a}", f"r{b}", mbps(10))
    homes = draw(
        st.lists(st.integers(min_value=0, max_value=routers - 1), min_size=2, max_size=4)
    )
    for index, home in enumerate(homes):
        topo.add_host(f"h{index}")
        topo.add_link(f"h{index}", f"r{home}", mbps(10))
    return topo, [f"h{index}" for index in range(len(homes))]


@st.composite
def topologies_with_traffic(draw):
    """A random topology plus host-pair sends."""
    topo, hosts = draw(topologies())
    host = st.sampled_from(hosts)
    sends = draw(st.lists(st.tuples(host, host).filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    return topo, sends


@given(topologies_with_traffic())
@settings(max_examples=40, deadline=None)
def test_table_routed_path_equals_the_routing_tables_path(case):
    topo, sends = case
    sim, tracer = Simulator(), Tracer()
    network = topo.build(sim, uniform_factory("fifo"), tracer=tracer)
    packets = []
    for index, (src, dst) in enumerate(sends):
        packet = Packet(flow_id=index, src=src, dst=dst, size_bytes=1000, packet_id=index)
        packets.append(packet)
        sim.schedule_at(index * 0.0001, network.host(src).send, packet)
    sim.run()

    for packet in packets:
        assert packet.egress_time is not None
        walked = packet.path_taken + [packet.dst]
        # Hop by hop, the table handed out what the routing table names ...
        for node, following in zip(walked, walked[1:]):
            assert following == network.routing.next_hop(node, packet.dst)
        # ... so the walk is a shortest path (and *the* path when it is
        # unique: test_a_unique_shortest_path_is_the_one_walked).
        oracle = network.path(packet.src, packet.dst)
        assert len(walked) == len(oracle)

    recording = Schedule.from_packets(tracer.delivered_data_packets())
    replay = replay_schedule(topo, recording, mode="lstf", backend="python")
    assert replay.columns().packet_id == recording.columns().packet_id
    for packet_id in recording.columns().packet_id:
        assert replay.row(packet_id)["path"] == recording.row(packet_id)["path"]


@given(topologies_with_traffic())
@settings(max_examples=40, deadline=None)
def test_a_unique_shortest_path_is_the_one_walked(case):
    """Where networkx finds one shortest path, next hops walk exactly it."""
    nx = pytest.importorskip("networkx")
    topo, sends = case
    network = topo.build(Simulator(), uniform_factory("fifo"))
    graph = nx.Graph([(link.a, link.b) for link in topo.links])
    for src, dst in sends:
        walked = [src]
        while walked[-1] != dst:
            walked.append(network.routing.next_hop(walked[-1], dst))
        shortest = list(nx.all_shortest_paths(graph, src, dst))
        if len(shortest) == 1:
            assert walked == shortest[0]
