"""The flat live loop against its oracle: the OO engine under the ``python`` pin.

Every comparison is exact: the events executed, the clock and sequence
counter the run leaves, every packet the tracer saw — sent, delivered and
dropped, in order, with its ids, ingress and egress times, flat ``hops``,
header (slack and accumulated wait included), drop flag and node — and every
field of every flow.  The flat loop either reproduces the OO run or declines.
"""

import dataclasses
import math
import os
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core.slack import SlackPolicy
from repro.core.slack_policy import SLACK_POLICIES
from repro.experiments import figure2, figure3, figure4
from repro.experiments.config import ExperimentScale
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.experiment import default_registry
from repro.schedulers.factory import uniform_factory
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.sim import compiled, flat_live
from repro.sim.backend import BACKEND_ENV_VAR
from repro.sim.engine import Simulator
from repro.sim.flow import Flow
from repro.sim.simulation import Simulation
from repro.topology.base import Topology, linear_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps

SMOKE = ExperimentScale.smoke()
#: Figure 2 at smoke scale sends 9 flows; quick scale's 289 overflow small buffers hundreds of times.
QUICK = ExperimentScale.quick()


@contextmanager
def live_engine(pin):
    """Run the block unpinned (``None``) or pinned; yields the driver's log lines."""
    with mock.patch.dict(os.environ), flat_live.log_lines() as lines:
        os.environ.pop(BACKEND_ENV_VAR, None)
        if pin is not None:
            os.environ[BACKEND_ENV_VAR] = pin
        yield lines


def packet_state(packet) -> tuple:
    """Everything a packet carries (``==`` on floats: bit for bit, bar -0.0)."""
    return (
        packet.packet_id,
        packet.flow_id,
        packet.src,
        packet.dst,
        packet.size_bytes,
        packet.seq,
        packet.ptype,
        packet.ingress_time,
        packet.egress_time,
        packet.dropped,
        packet.drop_node,
        tuple(packet.hops),
        dataclasses.astuple(packet.header),
        packet.route,
        packet.route_cursor,
        packet.remaining_tx_bytes,
        packet.flow_weight,
        packet.flow_deadline,
    )


@dataclasses.dataclass
class Leg:
    """Everything one run can be held to (``==`` ignores the log)."""

    events: int
    now: float
    sequence: int
    sent: list
    delivered: list
    dropped: list
    flows: list
    log: list = dataclasses.field(compare=False)


def run_leg(build, until, pin) -> Leg:
    """Build a fresh simulation and run it to ``until`` on the chosen engine."""
    with live_engine(pin) as log:
        simulation = build()
        before = Simulator.events_executed_total
        result = simulation.run(until=until)
        events = Simulator.events_executed_total - before
    return Leg(
        events,
        simulation.sim.now,
        simulation.sim._sequence,
        [packet_state(packet) for packet in result.injected_packets],
        [packet_state(packet) for packet in result.delivered_packets],
        [packet_state(packet) for packet in result.dropped_packets],
        [dataclasses.astuple(flow) for flow in result.flows],
        log,
    )


def assert_flat_equals_reference(build, until) -> Leg:
    """The two legs, equal; returns the reference's."""
    flat = run_leg(build, until, None)
    reference = run_leg(build, until, "python")
    assert flat.log == [f"ran {flat.events} events on the flat loop"]
    assert reference.log == ["declined (backend pinned to python); running on the OO engine"]
    for name in ("events", "now", "sequence", "flows", "sent", "delivered", "dropped"):
        assert getattr(flat, name) == getattr(reference, name), name
    return reference


def in_flight(leg: Leg) -> int:
    return sum(state[8] is None and not state[9] for state in leg.sent)


# ---------------------------------------------------------------------- #
# (a) The figures' own runs
# ---------------------------------------------------------------------- #
def fct_build(scale, label):
    scheduler, policy = figure2.FIGURE2_SCHEDULERS[label]

    def build():
        live = None if policy is None else SLACK_POLICIES.get(policy).build_live()
        return figure2.fct_simulation(scale, scheduler, live)

    return build


def delay_build(scale, label):
    scheduler, policy = figure3.FIGURE3_SCHEDULERS[label]

    def build():
        live = None if policy is None else SLACK_POLICIES.get(policy).build_live()
        return figure3.delay_simulation(scale, scheduler, live)

    return build


#: Figure 4's cells here: FIFO, FQ and LSTF with the fairness policy at half the fair share.
FAIRNESS = {"fifo": None, "fq": None, "lstf": 0.5}


def fairness_build(label):
    scale = figure4.fairness_scale(SMOKE)
    fraction = FAIRNESS[label]
    rest = None if fraction is None else scale.scaled_bandwidth(2.4) / figure4.NUM_FLOWS * fraction

    def build():
        return figure4.fairness_simulation(scale, label, rest_bps=rest)[0]

    return build


@pytest.mark.parametrize("label", sorted(figure2.FIGURE2_SCHEDULERS))
def test_figure2_runs_equal_the_oo_runs(label):
    reference = assert_flat_equals_reference(
        fct_build(SMOKE, label), SMOKE.duration * figure2.DRAIN_FACTOR
    )
    assert len(reference.flows) > 5 and reference.events > 1000
    assert all(flow[11] is not None for flow in reference.flows)  # every flow completed


@pytest.mark.parametrize("label", sorted(figure3.FIGURE3_SCHEDULERS))
def test_figure3_runs_equal_the_oo_runs(label):
    reference = assert_flat_equals_reference(
        delay_build(SMOKE, label), SMOKE.duration * figure3.DRAIN_FACTOR
    )
    assert len(reference.delivered) == len(reference.sent) > 20


@pytest.mark.parametrize("label", sorted(FAIRNESS))
def test_figure4_runs_equal_the_oo_runs(label):
    reference = assert_flat_equals_reference(fairness_build(label), figure4.DURATION)
    assert len(reference.delivered) > 1000 and in_flight(reference) > 0


# ---------------------------------------------------------------------- #
# (b) Buffers small enough to overflow
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("label", sorted(figure2.FIGURE2_SCHEDULERS))
def test_figure2_with_overflowing_buffers(label, monkeypatch):
    """Drop-tail (FIFO), the worst flow-aware priority (SRPT, SJF) and the
    most remaining slack (LSTF), with TCP retransmitting what was lost."""
    monkeypatch.setattr(figure2, "BUFFER_PACKETS", 3)
    reference = assert_flat_equals_reference(
        fct_build(QUICK, label), QUICK.duration * figure2.DRAIN_FACTOR
    )
    assert len(reference.dropped) > 300
    assert sum(flow[16] for flow in reference.flows) > 0  # retransmissions


@pytest.mark.parametrize("label", sorted(FAIRNESS))
def test_figure4_with_overflowing_buffers(label, monkeypatch):
    monkeypatch.setattr(figure4, "BUFFER_PACKETS", 6)
    reference = assert_flat_equals_reference(fairness_build(label), figure4.DURATION / 5)
    assert len(reference.dropped) > 20


#: One MSS on an access link takes exactly ACCESS_TICK seconds and on the
#: bottleneck four times that, so every time and slack below is a binary
#: fraction and remaining slacks tie exactly.
ACCESS_TICK = 2.0**-10
MSS = 1460


class SourceSlack(SlackPolicy):
    """A constant slack per source host."""

    def __init__(self, slacks):
        self.slacks = slacks

    def on_packet_sent(self, packet, now):
        packet.header.slack = self.slacks[packet.src]


def tie_simulation() -> Simulation:
    """Host ``a`` floods an 8-packet LSTF buffer with slack-5 packets, every
    one of which reaches it with the same remaining slack; host ``b`` then
    sends slack-0 bursts, each arrival of which evicts one of the tied ones,
    several between two dequeues, so the victim scan walks past lazily
    removed entries in heapq's array order."""
    topology = Topology("tie")
    topology.add_router("r")
    for host in ("a", "b", "d"):
        topology.add_host(host)
    for host in ("a", "b"):
        topology.add_link(host, "r", MSS * 8 / ACCESS_TICK)
    topology.add_link("r", "d", MSS * 8 / (4 * ACCESS_TICK), buffer_bytes=8.0 * MSS)
    simulation = Simulation(
        topology, uniform_factory("lstf"), slack_policy=SourceSlack({"a": 5.0, "b": 0.0, "d": 0.0})
    )
    flows = [Flow("a", "d", 40 * MSS, 0.0)]
    flows += [Flow("b", "d", 6 * MSS, start) for start in (0.02, 0.03, 0.05, 0.06)]
    simulation.add_flows(flows, transport="udp")
    return simulation


def test_lstf_victims_tied_on_remaining_slack(monkeypatch):
    ties = []
    choose_drop = LstfScheduler.choose_drop

    def counting(self, arriving, now):
        slacks = [self.remaining_slack(e.packet, e.enqueue_time, now) for e in self.queued_entries()]
        if slacks and max(slacks) > self.remaining_slack(arriving, now, now):
            ties.append(slacks.count(max(slacks)))
        return choose_drop(self, arriving, now)

    monkeypatch.setattr(LstfScheduler, "choose_drop", counting)
    reference = assert_flat_equals_reference(tie_simulation, None)
    assert max(ties) > 2 and len(ties) > 10
    assert len(reference.dropped) > len(ties)  # and arrivals tied with the queue were dropped


class SourceWeight(SlackPolicy):
    """A fair-queueing weight per source host, stamped as packets are sent."""

    def __init__(self, weights):
        self.weights = weights

    def on_packet_sent(self, packet, now):
        packet.flow_weight = self.weights[packet.src]


def incomparable_simulation() -> Simulation:
    """Three hosts each send 12 packets at once into an 8-packet FQ buffer
    at ``r``; host ``a``'s weight is NaN, so its finish tags compare false
    with every key, their own included.

    On keys that order totally, heapq's pop (the hole to a leaf, then the
    last item up) and the classic sift (the last item down from the root)
    leave the same array, so only incomparable keys tell them apart: here
    they reorder ``a``'s packets, and the order is heapq's only if the
    kernel pops a finite buffer's heap exactly as heapq does.  The hosts'
    own ports are FIFO, so every incomparable key meets a finite heap.
    """
    topology = Topology("incomparable")
    topology.add_router("r")
    for host in ("a", "b", "c", "z"):
        topology.add_host(host)
    for host in ("a", "b", "c"):
        topology.add_link(host, "r", MSS * 8 / ACCESS_TICK)
    topology.add_link("r", "z", MSS * 8 / (4 * ACCESS_TICK), buffer_bytes=8.0 * MSS)

    def factory(node, link):
        return FairQueueingScheduler() if node == "r" else FifoScheduler()

    weights = SourceWeight({"a": math.nan, "b": 1.0, "c": 2.0, "z": 1.0})
    simulation = Simulation(topology, factory, slack_policy=weights)
    simulation.add_flows([Flow(host, "z", 12 * MSS, 0.0) for host in "abc"], transport="udp")
    return simulation


def test_a_finite_heap_pops_in_heapqs_order_on_incomparable_keys():
    reference = assert_flat_equals_reference(incomparable_simulation, None)
    served = [state[0] for state in reference.delivered if state[2] == "a"]
    assert served != sorted(served)  # the NaN tags did reorder a's packets
    assert len(reference.dropped) > 10


# ---------------------------------------------------------------------- #
# (c) Cut mid-flight by ``until``
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("label", ["fifo", "lstf", "srpt"])
def test_a_run_cut_by_until_leaves_the_oo_partial_state(label, monkeypatch):
    """Packets queued, in service and on a wire are written back as the OO
    engine leaves them; TCP timers past ``until`` stay on the simulator's heap."""
    monkeypatch.setattr(figure2, "BUFFER_PACKETS", 5)
    reference = assert_flat_equals_reference(fct_build(QUICK, label), QUICK.duration / 2)
    partial = [state for state in reference.sent if state[8] is None and not state[9]]
    assert sum(state[11][-1] is None for state in partial) > 100  # queued or in service
    assert sum(state[11][-1] is not None for state in partial) > 10  # on a wire
    assert reference.now == QUICK.duration / 2


def test_a_run_cut_before_its_first_event_only_moves_the_clock():
    reference = assert_flat_equals_reference(tie_simulation, -1.0)
    assert reference.events == 0 and reference.now == 0.0 and reference.sent == []


# ---------------------------------------------------------------------- #
# (d) Source routes, declines and the log
# ---------------------------------------------------------------------- #
def routed_simulation() -> Simulation:
    """UDP on a line whose packets carry explicit source routes."""
    topology = linear_topology(3, mbps(10), propagation_delay=1e-4, hosts_per_end=2)
    simulation = Simulation(topology, uniform_factory("fq"), default_buffer_bytes=6.0 * MSS)
    workload = WorkloadSpec(
        utilization=1.2,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        duration=0.05,
    )
    simulation.add_poisson_traffic(workload)
    send = type(simulation.network.host("src0")).send
    network = simulation.network

    def routed_send(host, packet):
        packet.route = network.path(host.name, packet.dst)
        send(host, packet)

    for host in network.hosts():
        host.send = routed_send.__get__(host)
    return simulation


def test_source_routed_packets_follow_their_routes():
    reference = assert_flat_equals_reference(routed_simulation, 0.04)
    assert all(state[13] for state in reference.sent)
    assert len(reference.dropped) > 0 and in_flight(reference) > 0


DECLINES = {
    "max-events": "max_events budget",
    "lstf-preemptive": "scheduler PreemptiveLstfScheduler at r0->r1",
    "edf": "scheduler EdfScheduler at r0->r1",
    "faults": "faults",
}


def line_simulation(scheduler="fifo") -> Simulation:
    topology = linear_topology(2, mbps(10), hosts_per_end=2)
    simulation = Simulation(topology, uniform_factory(scheduler), default_buffer_bytes=4.0 * MSS)
    workload = WorkloadSpec(
        utilization=0.9,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        transport="tcp",
        duration=0.05,
    )
    simulation.add_poisson_traffic(workload)
    return simulation


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_declines_run_on_the_oo_engine_with_a_reason(case, monkeypatch):
    from repro.faults import FAULTS, FaultPlan

    monkeypatch.setattr(flat_live, "run", None)  # calling it would raise

    def build():
        simulation = line_simulation(case if case in ("lstf-preemptive", "edf") else "fifo")
        if case == "faults":
            simulation.network.install_faults(FaultPlan(FAULTS.get("loss-5pct"), seed=3), 0.05)
        return simulation

    max_events = 2_000 if case == "max-events" else None
    with live_engine(None) as log:
        build().run(until=0.2, max_events=max_events)
    assert log == [f"declined ({DECLINES[case]}); running on the OO engine"]


def test_without_a_kernel_the_oo_engine_runs_the_same(monkeypatch):
    flat = run_leg(line_simulation, 0.2, None)
    assert flat.log[0].endswith("on the flat loop")
    monkeypatch.setattr(compiled, "_kernel", lambda: compiled._Kernel(None, "no kernel here"))
    declined = run_leg(line_simulation, 0.2, None)
    assert declined.log == ["declined (compiled kernel unavailable); running on the OO engine"]
    assert declined == flat


def test_the_intercepts_are_removed_and_a_kept_injector_raises():
    simulation = line_simulation()
    port = next(iter(simulation.network.host("src0").ports.values()))
    kept = []
    real = flat_live._intercept

    def keep(network, port_ids, port, inject, tag_slots):
        kept.append(inject)
        return real(network, port_ids, port, inject, tag_slots)

    with mock.patch.object(flat_live, "_intercept", keep), live_engine(None) as log:
        simulation.run(until=0.2)
    assert log[0].endswith("on the flat loop")
    assert "enqueue" not in vars(port)
    with pytest.raises(RuntimeError, match="the live run is over"):
        kept[0](None, ((0,), (1.0,), (-1,)))


@pytest.mark.parametrize("name", ["figure2", "figure3", "figure4"])
def test_every_live_figure_cell_runs_on_the_flat_loop(name):
    """No silent fallback: every cell's simulation logs the flat-loop line."""
    definition = default_registry().get(name)
    for cell in definition.cells(SMOKE):
        with live_engine(None) as log:
            definition.run_cell(cell, SMOKE, ScheduleCache(None))
        assert len(log) == 1 and log[0].endswith("events on the flat loop"), (cell.label, log)
