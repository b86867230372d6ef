"""Deterministic call budgets: the OO engine's per-hop path, and a whole recording.

Wall-clock cannot guard the hop path on a noisy box, but the number of
Python-level function calls the engine makes per executed event is exact
and repeats run to run.  The budgets sit ~10 % above the measured values,
so a change that re-grows the per-hop call chain (a routing indirection, a
second hop-record lookup, a helper frame in the dequeue) fails here — and so
does a per-event helper frame creeping into the flat recording loop.
"""

import dataclasses
import sys

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.table1 import table1_scenarios
from repro.pipeline.experiment import record_scenario_schedule
from repro.schedulers import uniform_factory
from repro.sim import Simulator
from repro.sim.backend import BACKEND_ENV_VAR
from repro.sim.packet import Packet
from repro.topology import linear_topology
from repro.utils import mbps

PACKETS = 400

#: scheduler -> (measured Python calls per event, budget).  Measured on the
#: 3-router line below: 400 packets x 4 transmitting nodes x 2 events + the
#: 400 injections = 3,600 events.  (The routing-chain engine this replaced
#: measured 10.76 and 13.13.)
BUDGETS = {
    "fifo": (5.76, 6.35),
    "lstf": (6.58, 7.25),
}


def count_python_calls(run) -> int:
    """Python-level function calls made while ``run()`` executes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def python_calls_per_event(scheduler: str) -> float:
    sim = Simulator()
    network = linear_topology(num_routers=3, bandwidth_bps=mbps(10)).build(
        sim, uniform_factory(scheduler)
    )
    send = network.host("src0").send
    for index in range(PACKETS):
        packet = Packet(
            flow_id=1 + index % 4, src="src0", dst="dst0", size_bytes=1000, packet_id=index
        )
        packet.header.slack = 0.001 * (index % 7)
        # Faster than the 0.8 ms transmission time, so queues build and the
        # busy-port and idle-port transitions are both exercised.
        sim.schedule_at(index * 0.0007, send, packet)

    calls = count_python_calls(sim.run)
    assert sim.events_processed == PACKETS * 9
    assert len(network.tracer.delivered) == PACKETS
    return calls / sim.events_processed


@pytest.mark.parametrize("scheduler", sorted(BUDGETS))
def test_hop_path_stays_within_its_call_budget(scheduler):
    measured, budget = BUDGETS[scheduler]
    per_event = python_calls_per_event(scheduler)
    assert per_event <= budget, (
        f"{scheduler}: {per_event:.2f} Python calls per event, budget {budget} "
        f"(was {measured} when the budget was set)"
    )


#: recording engine -> (measured Python calls per event, budget) for one whole
#: ``record_schedule`` call — topology build, routing and traffic generation
#: included — of quick-scale Table 1 ``Datacenter`` (Random on a fat-tree,
#: 49,944 events).  What is left on the flat loop is the flow generator, one
#: ``randint`` per contended Random dequeue, and the build; a process's
#: first recording pays ~0.04 more for first-use imports.
RECORDING_BUDGETS = {
    "flat": (1.21, 1.33),
    "python": (7.64, 8.4),
}


@pytest.mark.parametrize("engine", sorted(RECORDING_BUDGETS))
def test_a_whole_recording_stays_within_its_call_budget(engine, monkeypatch):
    measured, budget = RECORDING_BUDGETS[engine]
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    if engine != "flat":
        monkeypatch.setenv(BACKEND_ENV_VAR, engine)
    scale = dataclasses.replace(ExperimentScale.quick(), seed=1)
    scenario = next(s for s in table1_scenarios(scale) if s.name == "Datacenter")
    before = Simulator.events_executed_total
    calls = count_python_calls(lambda: record_scenario_schedule(scenario))
    events = Simulator.events_executed_total - before
    assert events == 49_944
    assert calls / events <= budget, (
        f"{engine}: {calls / events:.2f} Python calls per recorded event, budget "
        f"{budget} (was {measured} when the budget was set)"
    )
