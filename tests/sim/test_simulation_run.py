"""``Simulation.run``: one run, under a paused cycle collector, that leaves no
per-packet cyclic garbage behind.

A live closed-loop simulation allocates a packet, its hop list and a few heap
entries per hop.  All of that is acyclic, so refcounting frees it, and the
run pauses the collector, which would only rescan the growing live set.
That is safe only while the cyclic garbage a finished run leaves scales with
the network (flows, ports), not with its packets: the first test holds that.
"""

import gc

import pytest

from repro.schedulers.factory import uniform_factory
from repro.sim.engine import SimulationError
from repro.sim.flow import Flow
from repro.sim.simulation import Simulation
from repro.topology.base import dumbbell_topology
from repro.utils import mbps, paused_gc

#: Long-lived TCP flows over a 10 Mb/s bottleneck with 64-packet buffers: a
#: second delivers about 1,400 packets (data and ACKs), two seconds 3,100.
FLOWS = 3
BUFFER_BYTES = 64 * 1460.0


def static_tcp_simulation() -> Simulation:
    topology = dumbbell_topology(
        num_pairs=FLOWS, bottleneck_bandwidth_bps=mbps(10), access_bandwidth_bps=mbps(100)
    )
    simulation = Simulation(topology, uniform_factory("fifo"), default_buffer_bytes=BUFFER_BYTES)
    flows = [
        Flow(f"src{index}", f"dst{index}", size_bytes=1e9, start_time=0.001 * index)
        for index in range(FLOWS)
    ]
    simulation.add_flows(flows, transport="tcp")
    return simulation


def cyclic_garbage_after_run(duration: float):
    """(objects ``gc.collect()`` finds once the run is dropped, packets delivered)."""
    simulation = static_tcp_simulation()
    delivered = len(simulation.run(until=duration).delivered_packets)
    del simulation
    return gc.collect(), delivered


def test_cyclic_garbage_does_not_grow_with_the_packets_a_run_delivers():
    with paused_gc():
        gc.collect()
        short_garbage, short_delivered = cyclic_garbage_after_run(1.0)
        long_garbage, long_delivered = cyclic_garbage_after_run(2.0)
    assert long_delivered >= 1.9 * short_delivered > 1000
    # About 550 objects either way; were packets held by the network's own
    # reference cycle (or in cycles of their own), the doubled run would
    # leave about 10,000 more.
    assert abs(long_garbage - short_garbage) <= 300, (short_garbage, long_garbage)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_run_pauses_the_collector_and_restores_its_state(enabled, raises):
    simulation = static_tcp_simulation()
    seen = []

    def probe():
        seen.append(gc.isenabled())
        if raises:
            raise ValueError("boom")

    simulation.sim.schedule(0.01, probe)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(ValueError, match="boom"):
                simulation.run(until=0.02)
        else:
            simulation.run(until=0.02)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]


def test_a_simulation_runs_once_and_hands_its_packets_to_the_result():
    simulation = static_tcp_simulation()
    result = simulation.run(until=0.05)
    assert result.delivered_packets and result.injected_packets
    tracer = simulation.tracer
    assert not (tracer.sent or tracer.delivered or tracer.dropped)
    with pytest.raises(SimulationError, match="runs once"):
        simulation.run(until=0.1)
