"""Which engine an unflagged replay lands on (``replay_candidates``).

No selector means the fastest *available builtin* engine that accepts the
replay configuration; any selector (argument, ``Scenario.backend``,
``$REPRO_BACKEND``) pins the engine, with the reference engine behind it for
configurations it declines.  The engine actually used is observed by spying
on the backends' ``replay`` methods.
"""

import dataclasses

import pytest

from repro.core.replay import PythonBackend, ReplayExperiment, replay_schedule
from repro.core.replay_vectorized import VectorizedBackend
from repro.core.slack import ZeroSlackInitializer
from repro.core.slack_policy import SLACK_POLICIES
from repro.faults import FAULTS, FaultPlan
from repro.sim import backend as backend_mod
from repro.sim.backend import (
    BACKEND_ENV_VAR,
    SimBackend,
    describe_backends,
    register_backend,
    replay_candidates,
    resolve_backend,
)
from repro.sim.compiled import kernel_available
from repro.topology import dumbbell_topology
from repro.topology.base import Topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps

#: What "fastest available" means in this environment.
FASTEST = "compiled" if kernel_available() else "vectorized"


@pytest.fixture(autouse=True)
def unselected(monkeypatch):
    """No ambient ``$REPRO_BACKEND`` (CI runs some files under one)."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def topology():
    return dumbbell_topology(2, mbps(10), mbps(100))


@pytest.fixture(scope="module")
def schedule(topology):
    workload = WorkloadSpec(
        utilization=0.5,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        transport="udp",
        duration=0.1,
    )
    return ReplayExperiment(
        topology,
        "fifo",
        workload,
        seed=11,
        sources=["src0", "src1"],
        destinations=["dst0", "dst1"],
    ).record()


@pytest.fixture
def used(monkeypatch):
    """Names of the engines whose ``replay`` ran, in call order."""
    log = []
    # CompiledBackend inherits VectorizedBackend.replay; ``self.name`` tells them apart.
    for cls in (PythonBackend, VectorizedBackend):

        def spy(self, *args, _replay=cls.replay, **kwargs):
            log.append(self.name)
            return _replay(self, *args, **kwargs)

        monkeypatch.setattr(cls, "replay", spy)
    return log


def rows(replayed):
    return [record.to_dict() for record in replayed.records()]


class TestUnselectedReplay:
    @pytest.mark.parametrize("mode", ["lstf", "edf", "priority", "omniscient"])
    def test_supported_modes_take_the_fastest_engine(self, topology, schedule, used, mode):
        replay_schedule(topology, schedule, mode=mode)
        assert used == [FASTEST]

    def test_fault_plan_lands_on_the_reference_engine(self, topology, schedule, used):
        plan = FaultPlan(FAULTS.get("loss-5pct"), seed=3)
        assert not plan.is_empty()
        replay_schedule(topology, schedule, faults=plan)
        assert used == ["python"]

    def test_empty_fault_plan_counts_as_fault_free(self, topology, schedule, used):
        replay_schedule(topology, schedule, faults=FaultPlan(FAULTS.get("empty")))
        assert used == [FASTEST]

    def test_finite_default_buffer_lands_on_the_reference_engine(self, topology, schedule, used):
        replay_schedule(topology, schedule, default_buffer_bytes=1e9)
        assert used == ["python"]

    def test_finite_buffer_topology_lands_on_the_reference_engine(self, topology, schedule, used):
        links = [dataclasses.replace(topology.links[0], buffer_bytes=1e9), *topology.links[1:]]
        finite = Topology(name="finite", nodes=topology.nodes, links=links)
        replay_schedule(finite, schedule)
        assert used == ["python"]

    def test_preemptive_lstf_lands_on_the_reference_engine(self, topology, schedule, used):
        replay_schedule(topology, schedule, mode="lstf-preemptive")
        assert used == ["python"]

    def test_slack_policy_initializer_stays_accelerated(self, topology, schedule, used):
        initializer = SLACK_POLICIES.get("zero").build_initializer()
        replay_schedule(topology, schedule, initializer=initializer)
        assert used == [FASTEST]

    def test_unknown_initializer_runs_for_real_on_the_accelerated_engine(
        self, topology, schedule, used
    ):
        calls = []

        class CountingZeroSlack(ZeroSlackInitializer):
            def initialize(self, packet, record, network):
                calls.append(record.packet_id)
                super().initialize(packet, record, network)

        auto = replay_schedule(topology, schedule, initializer=CountingZeroSlack())
        assert used == [FASTEST]
        assert calls == [record.packet_id for record in schedule.records()]
        reference = replay_schedule(
            topology, schedule, initializer=ZeroSlackInitializer(), backend="python"
        )
        assert rows(auto) == rows(reference)

    def test_auto_equals_forced_reference_record_for_record(self, topology, schedule, used):
        auto = replay_schedule(topology, schedule)
        forced = replay_schedule(topology, schedule, backend="python")
        assert used == [FASTEST, "python"]
        assert rows(auto) == rows(forced)
        assert len(auto) == len(schedule) > 0


class TestSelectorsPinTheEngine:
    def test_backend_argument(self, topology, schedule, used):
        replay_schedule(topology, schedule, backend="python")
        assert used == ["python"]

    def test_environment_variable(self, monkeypatch, topology, schedule, used):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        replay_schedule(topology, schedule)
        assert used == ["python"]

    def test_argument_beats_environment(self, monkeypatch, topology, schedule, used):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        replay_schedule(topology, schedule, backend="vectorized")
        assert used == ["vectorized"]

    def test_scenario_backend_field(self, used):
        from repro.experiments.config import ExperimentScale
        from repro.experiments.table1 import default_scenario
        from repro.pipeline.experiment import replay_scenario

        scenario = default_scenario(ExperimentScale.smoke())
        replay_scenario(scenario)
        replay_scenario(dataclasses.replace(scenario, backend="python"))
        assert used == [FASTEST, "python"]

    def test_selected_engine_that_declines_hands_over_to_the_reference(
        self, topology, schedule, used
    ):
        replay_schedule(topology, schedule, mode="lstf-preemptive", backend="vectorized")
        assert used == ["python"]

    def test_resolve_backend_none_still_names_the_reference(self):
        # It sees no configuration; benchmarks/perf stages its replay span by it.
        assert resolve_backend(None).name == "python"


class _NeverDeclines(SimBackend):
    name = "third-party"

    def replay(self, *args, **kwargs):  # pragma: no cover - must never be auto-selected
        raise AssertionError("a registered third-party backend was auto-selected")


@pytest.fixture
def third_party():
    register_backend("third-party", _NeverDeclines)
    yield
    backend_mod._REGISTRY.pop("third-party", None)
    backend_mod._INSTANCES.pop("third-party", None)
    backend_mod._builtin_candidates.cache_clear()


class TestCandidateList:
    def test_unselected_list_is_the_available_builtins_fastest_first(self):
        names = [backend.name for backend in replay_candidates()]
        assert names == ["compiled", "vectorized", "python"][-len(names) :]
        assert names[0] == FASTEST

    def test_registered_backend_is_opt_in_by_name(self, third_party, topology, schedule, used):
        assert "third-party" not in [backend.name for backend in replay_candidates()]
        replay_schedule(topology, schedule)
        assert used == [FASTEST]
        assert replay_candidates("third-party")[0].name == "third-party"

    def test_availability_is_probed_once_until_a_registration(self, monkeypatch, third_party):
        probes = []
        real = backend_mod.get_backend

        def counting(name):
            probes.append(name)
            return real(name)

        monkeypatch.setattr(backend_mod, "get_backend", counting)
        first = replay_candidates()
        assert probes == ["compiled", "vectorized", "python"]
        assert replay_candidates() is first
        assert len(probes) == 3  # remembered, not re-probed
        register_backend("third-party", _NeverDeclines)
        replay_candidates()
        assert len(probes) == 6  # the registration invalidated the memo

    def test_listing_marks_exactly_the_fastest_available_builtin(self):
        default = [entry["name"] for entry in describe_backends() if entry["default"]]
        assert default == [FASTEST]
