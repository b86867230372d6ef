"""Streaming replay injector: equivalence with the upfront reference.

The streaming cursor (``ReplayInjector.install``) must inject exactly the
same packets at exactly the same times, in the same order, as the original
pre-schedule-everything implementation (kept as ``install_upfront``), and a
full replay driven by it must produce a bit-identical schedule.
"""

import random

import pytest

from repro.core.replay import (
    ReplayInjector,
    ReplayExperiment,
    replay_initializer,
    replay_scheduler_factory,
)
from repro.core.schedule import Schedule
from repro.core.slack import ZeroSlackInitializer
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.tracer import Tracer
from repro.topology import dumbbell_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps


class _LoggingInjector(ReplayInjector):
    """Records (now, packet_id) instead of touching a network."""

    def __init__(self, sim, schedule):
        super().__init__(sim, None, schedule, ZeroSlackInitializer(), link_params={})
        self.log = []

    def _inject(self, row):  # overrides the network-touching injection
        self.log.append((self.sim.now, self.schedule.columns().packet_id[row]))
        self.injected += 1


def _row(packet_id, ingress_time):
    return {
        "packet_id": packet_id,
        "flow_id": packet_id,
        "src": "src0",
        "dst": "dst0",
        "size_bytes": 1000.0,
        "ingress_time": ingress_time,
        "output_time": ingress_time + 1.0,
        "path": ["src0", "dst0"],
        "hops": [],
    }


def _random_schedule(rng, packets):
    """Random ingress times with deliberate exact duplicates."""
    times = []
    for _ in range(packets):
        if times and rng.random() < 0.3:
            times.append(rng.choice(times))  # share an ingress time exactly
        else:
            times.append(rng.uniform(0.0, 2.0))
    return Schedule.from_rows(_row(index, time) for index, time in enumerate(times))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_streaming_matches_upfront_on_random_record_sets(seed):
    rng = random.Random(seed)
    schedule = _random_schedule(rng, packets=rng.randint(1, 60))

    streaming_sim = Simulator()
    streaming = _LoggingInjector(streaming_sim, schedule)
    streaming.install()
    streaming_sim.run()

    upfront_sim = Simulator()
    upfront = _LoggingInjector(upfront_sim, schedule)
    upfront.install_upfront()
    upfront_sim.run()

    assert streaming.log == upfront.log
    assert streaming.injected == upfront.injected == len(schedule)


def test_streaming_keeps_heap_small():
    schedule = Schedule.from_rows(_row(index, float(index)) for index in range(50))
    sim = Simulator()
    injector = _LoggingInjector(sim, schedule)
    injector.install()
    # Only the cursor is scheduled, not one event per record.  The heap's
    # length bounds the live events from above.
    assert len(sim._heap) == 1
    sim.run()
    assert injector.injected == 50


def test_empty_schedule_installs_nothing():
    sim = Simulator()
    injector = _LoggingInjector(sim, Schedule())
    injector.install()
    assert not sim._heap


def _replay_with(installer_name, original_schedule, topology, mode="lstf"):
    sim = Simulator()
    tracer = Tracer()
    network = topology.build(sim, replay_scheduler_factory(mode), tracer=tracer)
    injector = ReplayInjector(
        sim, network, original_schedule, replay_initializer(mode), topology.link_params()
    )
    getattr(injector, installer_name)()
    sim.run()
    return Schedule.from_packets(tracer.delivered_data_packets())


def test_full_replay_bit_identical_across_injectors():
    """End to end on a real network: streaming replay == upfront replay."""
    topology = dumbbell_topology(4, mbps(10), mbps(100))
    workload = WorkloadSpec(
        utilization=0.6,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        transport="udp",
        duration=0.25,
    )
    experiment = ReplayExperiment(
        topology,
        "random",
        workload,
        seed=5,
        sources=[f"src{i}" for i in range(4)],
        destinations=[f"dst{i}" for i in range(4)],
    )
    original = experiment.record()
    assert len(original) > 0

    streaming = _replay_with("install", original, topology)
    upfront = _replay_with("install_upfront", original, topology)

    assert streaming.packet_ids() == upfront.packet_ids()
    for packet_id in streaming.packet_ids():
        assert streaming.row(packet_id) == upfront.row(packet_id)  # exact, floats included
