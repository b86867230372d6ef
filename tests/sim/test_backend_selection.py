"""Which engine a replay lands on, and why the faster ones did not take it.

No selector means the fastest *available* engine that accepts the replay's
configuration; a selector (the ``backend`` argument, else ``$REPRO_BACKEND``)
pins the engine, with the reference engine behind it for configurations it
declines.  ``select_engine`` is that decision — ``replay_schedule`` obeys and
logs it — so these tests ask it, rather than spying on the engines.
"""

import dataclasses
import logging
import math

import pytest

import repro.sim.compiled as compiled_mod
from repro.core.replay import ReplayExperiment, replay_schedule
from repro.core.slack import ReplayInitializer
from repro.core.slack_policy import SLACK_POLICIES
from repro.faults import FAULTS, BernoulliLoss, FaultPlan, FaultScheduleDef
from repro.sim.backend import (
    BACKEND_ENV_VAR,
    available_backend_names,
    describe_backends,
    get_backend,
    replay_candidates,
    resolve_backend,
    select_engine,
)
from repro.sim.compiled import kernel_available
from repro.topology import dumbbell_topology
from repro.topology.base import Topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps

#: What "fastest available" means in this environment, and what sits above the reference.
FASTEST = "compiled" if kernel_available() else "vectorized"
ACCELERATED = ["compiled", "vectorized"] if kernel_available() else ["vectorized"]


@pytest.fixture(autouse=True)
def unselected(monkeypatch):
    """No ambient ``$REPRO_BACKEND`` (CI runs some files under one)."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def topology():
    return dumbbell_topology(2, mbps(10), mbps(100))


@pytest.fixture(scope="module")
def finite_topology(topology):
    links = [dataclasses.replace(topology.links[0], buffer_bytes=1e9), *topology.links[1:]]
    return Topology(name="finite", nodes=topology.nodes, links=links)


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


def loss_plan():
    plan = FaultPlan(FAULTS.get("loss-5pct"), seed=3)
    assert not plan.is_empty()
    return plan


def decide(topology, selector=None, **config):
    """``select_engine``'s answer as ``(engine name, [(declined name, reason), ...])``."""
    engine, declined = select_engine(selector, topology, **config)
    return engine.name, declined


def replayed_on(caplog, topology, schedule, **config):
    """``(mode, engine, declined)`` from the one DEBUG record a replay logs.

    Header initializers play no part in the engine choice, so a replay that
    carries one is asked what it ran on rather than ``select_engine``.
    """
    caplog.set_level(logging.DEBUG, logger="repro.core.replay")
    caplog.clear()
    replay_schedule(topology, schedule, **config)
    [record] = [r for r in caplog.records if r.name == "repro.core.replay"]
    return record.args


def every_accelerated_engine_says(reason):
    return [(name, reason) for name in ACCELERATED]


#: A fault plan is declined by ``compiled`` alone (its C loop calls no Python
#: drop filter): the offer falls through to ``vectorized``.
FAULT_PLAN_DECLINES = [("compiled", "fault plan")] if kernel_available() else []


def rows(replayed):
    return [record.to_dict() for record in replayed.records()]


class ZeroSlackByHand(ReplayInitializer):
    """A custom initializer that defines ``headers`` and nothing else."""

    def headers(self, cols, link_params):
        rows = len(cols.packet_id)
        return [0.0] * rows, [math.inf] * rows, [math.inf] * rows, [[]] * rows


class TestUnselectedReplay:
    @pytest.mark.parametrize("mode", ["lstf", "edf", "priority", "omniscient", "fifo"])
    def test_supported_modes_take_the_fastest_engine(self, topology, mode):
        assert decide(topology, mode=mode) == (FASTEST, [])

    def test_fault_plan_lands_on_the_flat_kernel(self, topology):
        for mode in ("lstf", "fifo"):
            assert decide(topology, mode=mode, faults=loss_plan()) == (
                "vectorized",
                FAULT_PLAN_DECLINES,
            )

    @pytest.mark.parametrize("name", sorted(FAULTS.names()))
    def test_every_shipped_fault_schedule_stays_off_the_reference_engine(self, topology, name):
        engine, declined = decide(topology, faults=FaultPlan(FAULTS.get(name), seed=1))
        assert engine != "python" and all(reason == "fault plan" for _, reason in declined)

    def test_a_fault_kind_the_flat_kernel_does_not_know_lands_on_the_reference_engine(
        self, topology
    ):
        @dataclasses.dataclass(frozen=True)
        class OversizeLoss(BernoulliLoss):  # its filter would read the packet
            kind = "oversize-loss"

        plan = FaultPlan(FaultScheduleDef("custom", faults=(OversizeLoss(rate=0.5),)))
        assert decide(topology, faults=plan) == (
            "python",
            [*FAULT_PLAN_DECLINES, ("vectorized", "fault kind oversize-loss")],
        )

    def test_empty_fault_plan_counts_as_fault_free(self, topology):
        assert decide(topology, faults=FaultPlan(FAULTS.get("empty"))) == (FASTEST, [])

    def test_finite_default_buffer_lands_on_the_reference_engine(self, topology):
        assert decide(topology, default_buffer_bytes=1e9) == (
            "python",
            every_accelerated_engine_says("finite default buffer"),
        )

    def test_finite_buffer_topology_lands_on_the_reference_engine(self, finite_topology):
        link = finite_topology.links[0]
        assert decide(finite_topology) == (
            "python",
            every_accelerated_engine_says(f"finite buffer at {link.a}<->{link.b}"),
        )

    def test_preemptive_lstf_lands_on_the_reference_engine(self, topology):
        assert decide(topology, mode="lstf-preemptive") == (
            "python",
            every_accelerated_engine_says("replay mode lstf-preemptive"),
        )

    def test_slack_policy_initializer_stays_accelerated(self, topology, schedule, caplog):
        initializer = SLACK_POLICIES.get("zero").build_initializer()
        assert replayed_on(caplog, topology, schedule, initializer=initializer) == (
            "lstf", FASTEST, []
        )

    @pytest.mark.parametrize("mode", ["lstf", "edf", "priority", "omniscient", "fifo"])
    def test_custom_initializer_runs_on_every_engine(self, topology, schedule, mode, caplog):
        initializer = ZeroSlackByHand()
        assert replayed_on(caplog, topology, schedule, mode=mode, initializer=initializer) == (
            mode, FASTEST, []
        )
        auto = rows(replay_schedule(topology, schedule, mode=mode, initializer=initializer))
        for name in ["python", *ACCELERATED]:
            pinned = replay_schedule(
                topology, schedule, mode=mode, initializer=initializer, backend=name
            )
            assert rows(pinned) == auto, name

    def test_auto_equals_forced_reference_record_for_record(self, topology, schedule):
        assert decide(topology) == (FASTEST, [])
        assert decide(topology, "python") == ("python", [])
        auto = replay_schedule(topology, schedule)
        forced = replay_schedule(topology, schedule, backend="python")
        assert rows(auto) == rows(forced)
        assert len(auto) == len(schedule) > 0


class TestSelectorsPinTheEngine:
    def test_backend_argument(self, topology):
        assert decide(topology, "python") == ("python", [])

    def test_environment_variable(self, monkeypatch, topology):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert decide(topology) == ("python", [])

    def test_argument_beats_environment(self, monkeypatch, topology):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert decide(topology, "vectorized") == ("vectorized", [])

    def test_selected_engine_that_declines_hands_over_to_the_reference(self, topology):
        assert decide(topology, "vectorized", mode="lstf-preemptive") == (
            "python",
            [("vectorized", "replay mode lstf-preemptive")],
        )

    def test_resolve_backend_none_still_names_the_reference(self):
        # It sees no configuration; benchmarks/perf stages its replay span by it.
        assert resolve_backend(None).name == "python"


#: Every way a configuration leaves the flat kernels, as ``select_engine`` keywords
#: (the finite link buffer is a property of the topology, not a keyword).
DECLINING = {
    "finite default buffer": dict(default_buffer_bytes=1e9),
    "finite link buffer": {},
    "lstf-preemptive": dict(mode="lstf-preemptive"),
    "unknown mode": dict(mode="no-such-mode"),
}


class TestDeclineReasons:
    @pytest.mark.parametrize("case", sorted(DECLINING))
    @pytest.mark.parametrize("name", ACCELERATED)
    def test_every_declining_configuration_says_why_and_python_never_declines(
        self, topology, finite_topology, name, case
    ):
        on = finite_topology if case == "finite link buffer" else topology
        config = DECLINING[case]
        engine, declined = decide(on, name, **config)
        [(who, reason)] = declined
        assert (engine, who) == ("python", name)
        assert reason and "\n" not in reason
        assert decide(on, name, **config)[1] == declined  # stable: asked twice, same words
        assert get_backend("python").decline_reason(on, **{"mode": "lstf", **config}) is None

    @pytest.mark.skipif(not kernel_available(), reason="compiled is the only engine that declines it")
    def test_a_fault_plan_is_declined_by_compiled_only(self, topology):
        assert decide(topology, "compiled", faults=loss_plan()) == (
            "python",  # a named engine has only the reference behind it
            [("compiled", "fault plan")],
        )
        assert decide(topology, "vectorized", faults=loss_plan()) == ("vectorized", [])

    def test_a_replay_logs_its_decision_exactly_once(self, topology, schedule, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.core.replay")
        replay_schedule(topology, schedule, faults=loss_plan())
        replay_schedule(topology, schedule, mode="edf")
        faulted, clean = [r for r in caplog.records if r.name == "repro.core.replay"]
        assert faulted.levelno == clean.levelno == logging.DEBUG
        assert faulted.args == ("lstf", "vectorized", FAULT_PLAN_DECLINES)
        assert clean.args == ("edf", FASTEST, [])
        assert f"mode=edf on {FASTEST}" in clean.getMessage()
        assert "mode=lstf on vectorized" in faulted.getMessage()
        if kernel_available():
            assert "[('compiled', 'fault plan')]" in faulted.getMessage()


class TestCandidateList:
    def test_unselected_list_is_the_available_builtins_fastest_first(self):
        names = [backend.name for backend in replay_candidates()]
        assert names == ["compiled", "vectorized", "python"][-len(names) :]
        assert names[0] == FASTEST

    def test_a_named_engine_is_followed_by_the_reference_once(self):
        assert [backend.name for backend in replay_candidates("vectorized")] == [
            "vectorized",
            "python",
        ]
        assert [backend.name for backend in replay_candidates("python")] == ["python"]

    def test_availability_is_probed_once_per_process(self, no_compiler, monkeypatch):
        """The kernel loader's memo is the only one: two unselected lists, one probe."""
        probes = []
        real = compiled_mod._probe
        monkeypatch.setattr(compiled_mod, "_probe", lambda *a, **k: probes.append(a) or real(*a, **k))
        assert [backend.name for backend in replay_candidates()] == ["vectorized", "python"]
        assert [entry["name"] for entry in describe_backends() if entry["available"]] == [
            "vectorized",
            "python",
        ]
        assert len(probes) == 1

    def test_listing_marks_exactly_the_fastest_available_builtin(self):
        default = [entry["name"] for entry in describe_backends() if entry["default"]]
        assert default == [FASTEST]

    def test_the_benchmark_shim_lists_available_engines_reference_first(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")  # a pin does not change what exists
        assert available_backend_names("lstf") == ["python", *reversed(ACCELERATED)]
        assert available_backend_names("fifo") == ["python", *reversed(ACCELERATED)]
        assert available_backend_names("lstf-preemptive") == ["python"]
