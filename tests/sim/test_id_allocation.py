"""An id is data, not process state: nothing a process simulated earlier can show in a result.

Each ``Simulator`` numbers the packets and flows born in it from 0, and a
replay allocates nothing — its packets carry their recorded ids.  These tests
look for the *class* of bug (a result that depends on history), so each one
runs the same thing at two different points of a process's life and holds the
outcomes equal, ids included.
"""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.replay import (
    ReplayInjector,
    replay_initializer,
    replay_scheduler_factory,
    replay_schedule,
)
from repro.core.schedule import Schedule, load_schedule, save_schedule
from repro.experiments.config import ExperimentScale
from repro.experiments.figure2 import run_fct_scenario
from repro.experiments.table1 import table1_scenarios
from repro.pipeline import ScheduleCache, default_registry, record_scenario_schedule
from repro.pipeline.runner import backend_scope
from repro.schedulers import uniform_factory
from repro.sim import Flow, Simulator, Tracer, flat_record
from repro.sim.backend import BACKEND_ENV_VAR
from repro.topology import single_switch_topology
from repro.transport import start_tcp_flow, start_udp_flow
from repro.utils import mbps

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE = ExperimentScale.smoke()
SCENARIO = "I2-1G-10G@70"


def table1_scenario():
    return next(s for s in table1_scenarios(SMOKE) if s.name == SCENARIO)


# ---------------------------------------------------------------------- #
# (a) Recording: same bytes whenever, and on whichever loop, it happens
# ---------------------------------------------------------------------- #
def test_a_recording_saves_the_same_bytes_at_any_point_of_any_process(tmp_path, monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    fresh = tmp_path / "fresh-process.jsonl.gz"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    argv = ["-m", "repro", "record", SCENARIO, "--scale", "smoke", "--out", str(fresh)]
    done = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    expected = gzip.decompress(fresh.read_bytes())
    _, meta = load_schedule(fresh)

    scenario = table1_scenario()
    for pin, loop in ((None, "on the flat loop"), ("python", "on the OO engine")):
        for attempt in ("first", "second"):
            with backend_scope(pin), flat_record.log_lines() as log:
                schedule = record_scenario_schedule(scenario)
            assert log[0].endswith(loop), log
            path = tmp_path / f"{pin}-{attempt}.jsonl.gz"
            save_schedule(path, schedule, meta=meta)
            assert gzip.decompress(path.read_bytes()) == expected, (pin, attempt)
    assert schedule.packet_ids()[:3] == [0, 1, 2]


# ---------------------------------------------------------------------- #
# (b) A closed-loop cell: TCP data, ACKs and retransmissions
# ---------------------------------------------------------------------- #
def test_a_live_cell_is_the_same_as_the_first_and_as_the_fourth_simulation():
    definition = default_registry().get("figure2")
    cell = next(c for c in definition.cells(SMOKE) if c.label == "fifo")

    def outcome():
        flows = run_fct_scenario(SMOKE, cell.label)
        row = definition.run_cell(cell, SMOKE, ScheduleCache(None)).row
        return row, [(f.flow_id, f.fct, f.packets_sent, f.num_packets) for f in flows]

    first, *_, fourth = [outcome() for _ in range(4)]
    assert fourth == first
    row, flows = first
    assert [flow_id for flow_id, *_ in flows] == list(range(row["flows"]))
    # The loop really closed: some packets went out more than once.
    assert sum(sent for _, _, sent, _ in flows) > sum(needed for *_, needed in flows)


# ---------------------------------------------------------------------- #
# (c) A replayed packet is the recorded packet, in another simulator
# ---------------------------------------------------------------------- #
def test_a_python_replay_delivers_the_recorded_packets_under_their_own_ids():
    scenario = table1_scenario()
    topology = scenario.build_topology()
    records = record_scenario_schedule(scenario).records()[:200]
    for record in records:  # ids no counter starting anywhere near 0 would hand out
        record.packet_id = 10_000 + 3 * record.packet_id
    schedule = Schedule(records)

    sim, tracer = Simulator(), Tracer()
    network = topology.build(sim, replay_scheduler_factory("lstf"), tracer=tracer)
    initializer = replay_initializer("lstf")
    ReplayInjector(sim, network, schedule, initializer, topology.link_params()).install()
    sim.run()
    delivered = tracer.delivered_data_packets()
    assert sorted(packet.packet_id for packet in delivered) == sorted(schedule.packet_ids())
    # ... and that id is its only identity: no second, replay-side field beside it.
    assert [slot for slot in type(delivered[0]).__slots__ if "replay" in slot] == []
    assert next(sim.packet_ids) == 0  # a replay allocates nothing

    replayed = replay_schedule(topology, schedule, mode="lstf", backend="python")
    assert replayed.packet_ids() == schedule.packet_ids()


# ---------------------------------------------------------------------- #
# (d) The counters belong to the simulator
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("start_flow", [start_udp_flow, start_tcp_flow])
def test_each_simulator_numbers_from_zero(start_flow):
    def simulate():
        sim, tracer = Simulator(), Tracer()
        network = single_switch_topology(3, mbps(10)).build(
            sim, uniform_factory("fifo"), tracer=tracer
        )
        flows = [
            Flow(src="h0", dst="h1", size_bytes=4000, start_time=0.0),
            Flow(src="h2", dst="h1", size_bytes=3000, start_time=0.001),
        ]
        assert [flow.flow_id for flow in flows] == [None, None]  # on no simulator yet
        for flow in flows:
            start_flow(sim, network, flow)
        sim.run()
        return [flow.flow_id for flow in flows], sorted(p.packet_id for p in tracer.sent)

    flow_ids, packet_ids = simulate()
    assert flow_ids == [0, 1]
    assert packet_ids == list(range(len(packet_ids))) and len(packet_ids) >= 6
    assert simulate() == (flow_ids, packet_ids)  # the second simulator starts over
