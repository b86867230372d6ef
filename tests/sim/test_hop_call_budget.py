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
from repro.experiments.heuristics import HeuristicsDefinition
from repro.experiments.table1 import table1_scenarios
from repro.pipeline.experiment import record_scenario_schedule
from repro.schedulers.factory import uniform_factory
from repro.sim.backend import BACKEND_ENV_VAR
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.topology.base import linear_topology
from repro.utils import mbps

PACKETS = 400

#: scheduler -> (measured Python calls per event, budget).  Measured on the
#: 3-router line below: 400 packets x 4 transmitting nodes x 2 events + the
#: 400 injections = 3,600 events.  (The routing-chain engine this replaced
#: measured 10.76 and 13.13; per-hop record objects and ``Simulator.post``
#: calls, 5.76 and 6.58.)
BUDGETS = {
    "fifo": (4.44, 4.9),
    "lstf": (5.24, 5.8),
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

    before = Simulator.events_executed_total
    calls = count_python_calls(sim.run)
    executed = Simulator.events_executed_total - before
    assert executed == PACKETS * 9
    assert len(network.tracer.delivered) == PACKETS
    return calls / executed


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
    "python": (6.07, 6.7),
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


#: quick-scale heuristics recording -> (measured Python calls per event,
#: budget) on the flat loop, 11,694 events each.  Counted on a second
#: recording of the scenario, so first-use imports and the process-wide route
#: memo (``repro.sim.routing``) are warm and the count is the loop's own:
#: SRPT's per-flow queues and LSTF's live-policy slack add no frame per event.
WARM_RECORDING_BUDGETS = {
    "HEU-deadline-tagged/srpt": (1.07, 1.18),
    "HEU-deadline-tagged/lstf-live-flow-size": (1.07, 1.18),
}


@pytest.mark.parametrize("name", sorted(WARM_RECORDING_BUDGETS))
def test_a_warm_flat_recording_stays_within_its_call_budget(name, monkeypatch):
    measured, budget = WARM_RECORDING_BUDGETS[name]
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    scale = dataclasses.replace(ExperimentScale.quick(), seed=1)
    scenario = next(s for s in HeuristicsDefinition().scenarios(scale) if s.name == name)
    record_scenario_schedule(scenario)
    before = Simulator.events_executed_total
    calls = count_python_calls(lambda: record_scenario_schedule(scenario))
    events = Simulator.events_executed_total - before
    assert events == 11_694
    assert calls / events <= budget, (
        f"{name}: {calls / events:.2f} Python calls per recorded event, budget "
        f"{budget} (was {measured} when the budget was set)"
    )
