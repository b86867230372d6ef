"""The flat recording loop against its oracle: the OO engine under the ``python`` pin.

Every comparison is exact — columns with ``==``, saved bytes after gunzip
(ids included) and executed-event counts — because the flat loop either
reproduces the OO recording or declines.
"""

import dataclasses
import gzip
import os
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replay import original_scheduler_factory, record_schedule
from repro.core.schedule import Schedule, ScheduleColumns, save_schedule
from repro.core.slack_policy import SLACK_POLICIES
from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import default_scenario, table1_scenarios
from repro.faults import FAULTS, FaultPlan
from repro.pipeline.experiment import default_registry, record_scenario_schedule, recording_twin
from repro.pipeline.scenario import Scenario
from repro.schedulers.factory import uniform_factory
from repro.schedulers.random_sched import RandomScheduler
from repro.sim import compiled, flat_record
from repro.sim.backend import BACKEND_ENV_VAR
from repro.sim.engine import Simulator
from repro.sim.flow import Flow
from repro.sim.simulation import Simulation
from repro.topology.base import Topology, linear_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.traffic.distributions import ConstantSize
from repro.transport.udp import start_udp_flow
from repro.utils import mbps
from repro.utils.rng import RandomState
from tests.properties.test_forwarding_paths import topologies

FLAT_ORIGINALS = ("fifo", "lifo", "sjf", "random", "srpt", "lstf", "fq", "fifo+", "fq+fifo+")

#: The live slack policies the flat loop stamps itself.
LIVE_POLICIES = ("zero", "static-delay", "flow-size")


@contextmanager
def recording_engine(pin):
    """Run the block unpinned (``None``) or pinned; yields the recorder's log lines."""
    with mock.patch.dict(os.environ), flat_record.log_lines() as lines:
        os.environ.pop(BACKEND_ENV_VAR, None)
        if pin is not None:
            os.environ[BACKEND_ENV_VAR] = pin
        yield lines


@dataclasses.dataclass
class Leg:
    """Everything one recording can be held to (``==`` ignores the log)."""

    columns: object
    saved: bytes
    events: int
    log: list = dataclasses.field(compare=False)


def record_leg(record, pin, tmp_path) -> Leg:
    """``record()`` on the chosen engine."""
    before = Simulator.events_executed_total
    with recording_engine(pin) as log:
        schedule = record()
    events = Simulator.events_executed_total - before
    path = tmp_path / f"{pin or 'flat'}.jsonl.gz"
    save_schedule(path, schedule, meta={"leg": "either"})
    return Leg(
        schedule.columns(),
        gzip.decompress(path.read_bytes()),
        events,
        log,
    )


def assert_flat_equals_reference(record, tmp_path) -> Leg:
    flat = record_leg(record, None, tmp_path)
    reference = record_leg(record, "python", tmp_path)
    assert len(flat.log) == 1 and flat.log[0].endswith("on the flat loop"), flat.log
    assert flat.log[0] == (
        f"recorded {len(flat.columns.packet_id)} packets / {flat.events} events on the flat loop"
    )
    assert reference.log == ["declined (backend pinned to python); recording on the OO engine"]
    assert flat.columns == reference.columns
    assert flat == reference
    return flat


# ---------------------------------------------------------------------- #
# (a) The scenarios the pipeline actually records
# ---------------------------------------------------------------------- #
def accepted_scenarios(scale):
    scenarios = [s for s in table1_scenarios(scale) if s.original in FLAT_ORIGINALS]
    scenarios.append(default_scenario(scale, name="incast", workload="incast-burst"))
    scenarios.append(
        default_scenario(scale, name="deadlines", original="lifo", workload="deadline-tagged-tight")
    )
    return scenarios


SMOKE = ExperimentScale.smoke()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", [s.name for s in accepted_scenarios(SMOKE)])
def test_accepted_scenarios_record_byte_identically(name, seed, tmp_path):
    scale = dataclasses.replace(SMOKE, seed=seed)
    scenario = next(s for s in accepted_scenarios(scale) if s.name == name)
    flat = assert_flat_equals_reference(lambda: record_scenario_schedule(scenario), tmp_path)
    cols = flat.columns
    assert len(cols.packet_id) > 0
    if name == "incast":  # injected extra flows: synchronized senders
        flows_at = {}
        for flow, ingress in zip(cols.flow_id, cols.ingress_time):
            flows_at.setdefault(ingress, set()).add(flow)
        assert max(map(len, flows_at.values())) > 1
    if name == "deadlines":
        assert any(deadline is not None for deadline in cols.deadline)


def test_every_table1_original_records_flat():
    originals = {s.original for s in table1_scenarios(SMOKE)}
    assert {"fq", "fq+fifo+"} <= originals <= set(FLAT_ORIGINALS)


def test_every_shipped_recording_logs_the_flat_loop():
    """Every experiment's every original — the recording twin of each scenario
    cell, live slack policies included — records on the flat loop."""
    twins = {
        recording_twin(cell.spec)
        for definition in default_registry()
        for cell in definition.cells(SMOKE)
        if isinstance(cell.spec, Scenario)
    }
    assert any(twin.slack_mode == "live" for twin in twins)
    for twin in sorted(twins, key=lambda twin: twin.name):
        with recording_engine(None) as log:
            record_scenario_schedule(twin)
        assert len(log) == 1 and log[0].endswith("on the flat loop"), (twin.name, log)


# ---------------------------------------------------------------------- #
# (b) Property: small random topologies with equal-cost alternatives
# ---------------------------------------------------------------------- #
@given(
    topologies(),
    st.sampled_from(FLAT_ORIGINALS),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from((0.3, 0.7, 1.1)),
)
@settings(max_examples=40, deadline=None)
def test_flat_recording_equals_the_oo_recording(tmp_path_factory, case, original, seed, utilization):
    topo, _ = case
    workload = WorkloadSpec(
        utilization=utilization,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        duration=0.05,
    )

    def record():
        factory = original_scheduler_factory(original, topo, rng=RandomState(seed + 1))
        return record_schedule(topo, factory, workload, seed=seed)

    assert_flat_equals_reference(record, tmp_path_factory.mktemp("legs"))


@given(
    topologies(),
    st.sampled_from(("lstf", "fifo")),
    st.sampled_from(LIVE_POLICIES),
    st.sampled_from((ConstantSize(4 * 1460), paper_default_workload())),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from((0.3, 0.7, 1.1)),
)
@settings(max_examples=40, deadline=None)
def test_flat_recording_under_a_live_slack_policy_equals_the_oo_recording(
    tmp_path_factory, case, original, policy, sizes, seed, utilization
):
    """Equal stamps (``zero``, ``static-delay``, ``flow-size`` over one size)
    leave LSTF to its enqueue order and charged waits; unequal ones order by
    flow size."""
    topo, _ = case
    workload = WorkloadSpec(
        utilization=utilization,
        reference_bandwidth_bps=mbps(10),
        size_distribution=sizes,
        duration=0.05,
    )

    def record():
        factory = original_scheduler_factory(original, topo)
        live = SLACK_POLICIES.get(policy).build_live()
        return record_schedule(topo, factory, workload, seed=seed, slack_policy=live)

    assert_flat_equals_reference(record, tmp_path_factory.mktemp("legs"))


def test_a_route_is_the_next_hop_chain_not_the_source_path(tmp_path):
    """Six routers are the smallest case where the two differ: ``h1 -> h2`` has
    two equal-cost routes, ``routing.path`` from the source picks one, and
    hop-by-hop forwarding — each node asking for *its* path — walks the other."""
    topo = Topology("equal-cost")
    for index in range(6):
        topo.add_router(f"r{index}")
    for a, b in [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4)]:
        topo.add_link(f"r{a}", f"r{b}", mbps(10))
    for index, home in enumerate((4, 3, 5)):
        topo.add_host(f"h{index}")
        topo.add_link(f"h{index}", f"r{home}", mbps(10))
    routing = topo.build(Simulator(), uniform_factory("fifo")).routing
    walked = ("h1", "r3", "r4", "r0", "r5", "h2")
    assert tuple(routing.path("h1", "h2")) == ("h1", "r3", "r2", "r1", "r5", "h2")
    assert all(routing.next_hop(a, "h2") == b for a, b in zip(walked, walked[1:]))

    def record():
        return record_schedule(topo, uniform_factory("lifo"), line_workload(), seed=2)

    paths = set(assert_flat_equals_reference(record, tmp_path).columns.path)
    assert walked in paths and tuple(routing.path("h1", "h2")) not in paths


# ---------------------------------------------------------------------- #
# (c) Declines: the OO loop records, the reason is logged, nothing changes
# ---------------------------------------------------------------------- #
def line_workload(transport="udp"):
    return WorkloadSpec(
        utilization=0.9,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        transport=transport,
        duration=0.1,
    )


def line(buffer_link=None):
    """A 2-router line, two hosts per end; optionally one finite per-link buffer."""
    topo = linear_topology(2, mbps(10), hosts_per_end=2)
    if buffer_link is not None:
        topo.links[buffer_link] = dataclasses.replace(topo.links[buffer_link], buffer_bytes=1e9)
    return topo


def multi_homed():
    topo = line()
    topo.add_link("src0", "r1", mbps(10))
    return topo


DECLINES = {
    "tcp": (dict(workload=line_workload("tcp")), "closed-loop transport"),
    "lstf-preemptive": (
        dict(original="lstf-preemptive"),
        "scheduler PreemptiveLstfScheduler at r0->r1",
    ),
    "sjf-flow": (dict(original="sjf-flow"), "scheduler SjfStarvationFreeScheduler at r0->r1"),
    "link-buffer": (dict(topology=line(buffer_link=0)), "finite buffer at r0->r1"),
    "faults": (
        dict(faults=FaultPlan(FAULTS.get("loss-5pct"), seed=3)),
        "record-time faults",
    ),
    "fairness-policy": (
        dict(original="lstf", slack_policy="fairness"),
        "live slack policy FairnessSlackPolicy",
    ),
    "max-events": (dict(max_events=500), "max_events budget"),
    "multi-homed": (dict(topology=multi_homed()), "multi-homed host src0"),
}


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_declines_record_on_the_oo_engine_with_a_reason(case, tmp_path, monkeypatch):
    arguments, reason = DECLINES[case]
    arguments = dict(arguments)
    topology = arguments.pop("topology", line())
    original = arguments.pop("original", "random")
    workload = arguments.pop("workload", line_workload())
    policy = arguments.pop("slack_policy", None)

    def record():
        factory = original_scheduler_factory(original, topology, rng=RandomState(12))
        # A fresh policy per leg: the fairness policy keeps per-flow state.
        live = None if policy is None else SLACK_POLICIES.get(policy).build_live()
        return record_schedule(topology, factory, workload, seed=11, slack_policy=live, **arguments)

    reference = record_leg(record, "python", tmp_path)
    monkeypatch.setattr(flat_record, "record_into", None)  # calling it would raise
    declined = record_leg(record, None, tmp_path)
    assert declined.log == [f"declined ({reason}); recording on the OO engine"]
    assert len(declined.columns.packet_id) > 0
    assert declined == reference


def test_a_decline_after_the_build_does_not_build_again(tmp_path):
    """``uniform_factory(RandomScheduler, rng=...)`` spawns one child stream per
    port as the network is built, so a decline that rebuilt the simulation
    would hand every port a different stream than the reference build."""
    topology = line(buffer_link=2)  # the last link: seen only after every port exists

    def record():
        factory = uniform_factory(RandomScheduler, rng=RandomState(99))
        return record_schedule(topology, factory, line_workload(), seed=4)

    declined = record_leg(record, None, tmp_path)
    reference = record_leg(record, "python", tmp_path)
    assert declined.log == ["declined (finite buffer at r1->dst0); recording on the OO engine"]
    assert declined == reference
    # The streams matter here: another deployment seed records another schedule.
    other = uniform_factory(RandomScheduler, rng=RandomState(100))
    assert record_schedule(topology, other, line_workload(), seed=4).columns() != declined.columns


def test_without_a_kernel_the_oo_engine_records_the_same_bytes(tmp_path, monkeypatch):
    """The flat loop is the kernel's: without one, recordings take the OO
    engine — unpinned, with the reason logged — and save what the kernel did."""

    topology = line()

    def record():
        factory = original_scheduler_factory("random", topology, rng=RandomState(12))
        return record_schedule(topology, factory, line_workload(), seed=11)

    flat = record_leg(record, None, tmp_path)
    assert flat.log[0].endswith("on the flat loop")
    monkeypatch.setattr(compiled, "_kernel", lambda: compiled._Kernel(None, "no kernel here"))
    declined = record_leg(record, None, tmp_path)
    assert declined.log == ["declined (compiled kernel unavailable); recording on the OO engine"]
    assert declined == flat


def test_other_backend_pins_do_not_pin_the_recorder():
    with recording_engine("compiled") as log:
        record_schedule(line(), uniform_factory("fifo"), line_workload(), seed=1)
    assert log[0].endswith("on the flat loop")


def test_the_log_capture_leaves_the_logger_as_it_found_it():
    logger = flat_record.logger
    before = (list(logger.handlers), logger.level)
    with flat_record.log_lines() as lines:
        record_schedule(line(), uniform_factory("fifo"), line_workload(), seed=1)
        record_schedule(line(), uniform_factory("fq"), line_workload(), seed=1)
    assert len(lines) == 2  # one line per record_schedule call
    assert (list(logger.handlers), logger.level) == before


# ---------------------------------------------------------------------- #
# (d) Same-instant finish / arrival pairs really occur
# ---------------------------------------------------------------------- #
MSS_TIME = 1460.0 * 8 / mbps(10)


@pytest.mark.parametrize("propagation", [0.0, MSS_TIME], ids=["no-propagation", "propagation=tx"])
@pytest.mark.parametrize("original", FLAT_ORIGINALS)
def test_same_instant_finish_and_arrival_at_one_port(original, propagation, tmp_path):
    """Equal bandwidth everywhere and flows of ten back-to-back MSS packets: a
    packet arrives at a router at the very instant the router finishes its
    predecessor, so which fires first is settled by sequence number alone —
    the rules the flat loop must share with the OO engine.  With a
    propagation delay of exactly one MSS transmission time, a finish's
    downstream delivery also ties with the port's own next finish."""
    topology = linear_topology(3, mbps(10), propagation_delay=propagation, hosts_per_end=2)
    workload = WorkloadSpec(
        utilization=0.8,
        reference_bandwidth_bps=mbps(10),
        size_distribution=ConstantSize(10 * 1460),
        duration=0.2,
    )

    def record():
        factory = original_scheduler_factory(original, topology, rng=RandomState(8))
        return record_schedule(topology, factory, workload, seed=5)

    reference = record_leg(record, "python", tmp_path).columns
    finishes = set(zip(reference.hop_node, reference.hop_departure))
    arrivals = set(zip(reference.hop_node, reference.hop_arrival))
    routers = {"r0", "r1", "r2"}
    ties = [(node, when) for node, when in finishes & arrivals if node in routers]
    assert len(ties) > 50
    assert_flat_equals_reference(record, tmp_path)


# ---------------------------------------------------------------------- #
# (e) Generator events tie with hop events: the sequence-counter handoff
# ---------------------------------------------------------------------- #
#: One MSS transmission at TICK_BANDWIDTH takes exactly TICK seconds, so every
#: finish, zero-propagation delivery and arrival below lands on a multiple of
#: TICK, with no rounding to separate them.
TICK = 2.0**-10
TICK_BANDWIDTH = 1460 * 8 * 1024


def ticking_simulation(original: str, seed: int) -> Simulation:
    """A 3-router line with zero propagation delay and two generator chains
    whose flow arrivals land on transmission boundaries.  Like
    ``PoissonFlowGenerator``, each arrival starts one UDP flow — its emission
    scheduled at delay 0, taking the next sequence number — and schedules the
    chain's next arrival, so generator events also tie with each other."""
    topology = linear_topology(3, TICK_BANDWIDTH, propagation_delay=0.0, hosts_per_end=2)
    factory = original_scheduler_factory(original, topology, rng=RandomState(seed + 1))
    simulation = Simulation(topology, factory, seed=seed)
    sim, network, draws = simulation.sim, simulation.network, random.Random(seed)

    def arrive(pairs: tuple, left: int) -> None:
        src, dst = draws.choice(pairs)
        size = 1460 * draws.choice((1, 2, 3))
        start_udp_flow(sim, network, Flow(src, dst, size_bytes=size, start_time=sim.now))
        if left:
            sim.schedule(TICK * draws.choice((0, 1, 2, 3, 4)), arrive, pairs, left - 1)

    sim.schedule(0.0, arrive, (("src0", "dst0"), ("dst1", "src0")), 150)
    sim.schedule(0.0, arrive, (("src1", "dst1"), ("dst0", "src1"), ("src0", "dst1")), 150)
    return simulation


def record_built(simulation: Simulation) -> Schedule:
    """``record_schedule``'s two loops, for a simulation the test attached traffic to."""
    if flat_record.decline_reason(simulation) is None:
        cols = ScheduleColumns()
        flat_record.record_into(simulation, cols)
        return Schedule.from_columns(cols)
    simulation.sim.run()
    return Schedule.from_tracer(simulation.tracer)


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("original", FLAT_ORIGINALS)
def test_generator_events_tied_with_hop_events_keep_the_oo_order(original, seed, tmp_path):
    """The kernel keeps hop events on its own heap and the generator's on the
    simulator's, merging them by ``(time, seq)`` with one counter handed across
    every callback.  Here flows arrive and emit at the very instants ports
    finish and deliver, so a counter handed over late, early or not read back
    reorders a tie and changes the saved bytes."""

    def record():
        return record_built(ticking_simulation(original, seed))

    reference = record_leg(record, "python", tmp_path).columns
    finishes = set(reference.hop_departure)
    ties = sum(ingress in finishes for ingress in reference.ingress_time)
    assert ties > 100
    assert_flat_equals_reference(record, tmp_path)


def test_a_cancelled_generator_event_is_discarded_uncounted(tmp_path):
    """A cancelled entry on the simulator's heap surfaces mid-run: ``Simulator.run``
    pops it uncounted, and so must the flat loop (running it would start a flow)."""

    def record():
        simulation = ticking_simulation("fifo", 2)
        sim, network = simulation.sim, simulation.network
        doomed = Flow("src0", "dst0", size_bytes=4 * 1460, start_time=TICK * 40)
        sim.cancel(sim.schedule(TICK * 40, start_udp_flow, sim, network, doomed))
        return record_built(simulation)

    flat = assert_flat_equals_reference(record, tmp_path)
    assert flat.columns.ingress_time[-1] > TICK * 40  # the run went past it
