"""Cross-backend equivalence: every backend must match the reference engine.

The two engines' contract (``docs/backends.md``) is bit-identity: a replay
run under any engine must produce the *exact* rows the reference python
engine produces — same floats, same tie-breaks, same record order.  These
tests hold the compiled engine to that contract directly, with no twin in
between: on a recorded fixture schedule (the golden test), on adversarial
synthetic record sets (the hypothesis property tests), at every event budget
(the bisect a divergence is hunted with) and under fault plans; and they
check the seam itself: fallback for declined configurations and clean
configuration errors.  (The OO engine's own
cancel-then-peek contract lives in ``test_engine.py``.)
"""

import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import replay_compiled
from repro.core.replay import ReplayExperiment, evaluate_replay, replay_schedule
from repro.core.schedule import Schedule
from repro.faults import FAULTS, BernoulliLoss, FaultPlan, FaultScheduleDef
from repro.faults.defs import GilbertElliottLoss, JammingIntervals, LinkOutage
from repro.pipeline.scenario import PipelineConfigError
from repro.sim.compiled import kernel_available, kernel_loop, unavailable_reason
from repro.sim.engine import Simulator
from repro.topology import dumbbell_topology
from repro.topology.base import LinkSpec, NodeSpec, Topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps

#: Modes the flat kernel implements (lstf-preemptive falls back).
FLAT_MODES = ("lstf", "edf", "priority", "omniscient", "fifo")

#: Skip-marked — not silently dropped — with the loader's own reason where
#: the kernel cannot be built, so a toolchain-less environment reports the gap.
needs_kernel = pytest.mark.skipif(not kernel_available(), reason=unavailable_reason() or "")

OPTIMIZED_BACKENDS = (pytest.param("compiled", id="compiled", marks=needs_kernel),)


def small_workload(duration=0.25, utilization=0.6):
    return WorkloadSpec(
        utilization=utilization,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        transport="udp",
        duration=duration,
    )


@pytest.fixture(scope="module")
def fixture_topology():
    return dumbbell_topology(4, mbps(10), mbps(100))


@pytest.fixture(scope="module")
def recorded_schedule(fixture_topology):
    """A real recorded schedule: the golden fixture for bit-identity."""
    experiment = ReplayExperiment(
        fixture_topology,
        "random",
        small_workload(),
        seed=5,
        sources=[f"src{i}" for i in range(4)],
        destinations=[f"dst{i}" for i in range(4)],
    )
    return experiment.record()


def rows(schedule: Schedule):
    return list(schedule)


def replayed_and_events(topology, schedule, backend, **config):
    """One replay's columns and the number of events its engine executed."""
    before = Simulator.events_executed_total
    replayed = replay_schedule(topology, schedule, backend=backend, **config)
    return replayed.columns(), Simulator.events_executed_total - before


def routes_of(schedule):
    """The distinct source routes of a recorded schedule, so synthetic rows are routable."""
    return sorted(set(schedule.columns().path))


# --------------------------------------------------------------------- #
# Golden fixture: bit-identical rows on a real recorded schedule
# --------------------------------------------------------------------- #
class TestGoldenEquivalence:
    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    @pytest.mark.parametrize("mode", FLAT_MODES)
    def test_rows_bit_identical(
        self, fixture_topology, recorded_schedule, mode, backend
    ):
        assert replay_compiled.decline_reason(fixture_topology, mode) is None
        reference = replay_schedule(
            fixture_topology, recorded_schedule, mode=mode, backend="python"
        )
        candidate = replay_schedule(
            fixture_topology, recorded_schedule, mode=mode, backend=backend
        )
        # Exact equality, not approx: the contract is bit-identity.
        assert rows(candidate) == rows(reference)

    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    def test_metrics_identical(self, fixture_topology, recorded_schedule, backend):
        reference = evaluate_replay(
            fixture_topology, recorded_schedule, mode="lstf", backend="python"
        )
        candidate = evaluate_replay(
            fixture_topology, recorded_schedule, mode="lstf", backend=backend
        )
        assert candidate.overdue_fraction == reference.overdue_fraction
        assert (
            candidate.overdue_beyond_threshold_fraction
            == reference.overdue_beyond_threshold_fraction
        )

    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    def test_empty_schedule(self, fixture_topology, backend):
        replayed = replay_schedule(
            fixture_topology, Schedule(), mode="lstf", backend=backend
        )
        assert len(replayed) == 0

    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    def test_max_events_budget_bit_identical(
        self, fixture_topology, recorded_schedule, backend
    ):
        """An exhausted event budget must strand the same in-flight packets."""
        reference = replay_schedule(
            fixture_topology,
            recorded_schedule,
            mode="lstf",
            backend="python",
            max_events=500,
        )
        candidate = replay_schedule(
            fixture_topology,
            recorded_schedule,
            mode="lstf",
            backend=backend,
            max_events=500,
        )
        assert rows(candidate) == rows(reference)
        assert len(reference) < len(recorded_schedule)


# --------------------------------------------------------------------- #
# Property test: synthetic row sets, adversarial ties included
# --------------------------------------------------------------------- #
@st.composite
def row_sets(draw, paths):
    """A list of synthetic schedule rows routed over ``paths``.

    Ingress times are drawn from a tiny grid so identical timestamps — the
    tie-breaking cases the ``(time, seq)`` contract exists for — occur
    constantly rather than never.
    """
    count = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for packet_id in range(count):
        path = list(draw(st.sampled_from(paths)))
        ingress = draw(st.sampled_from([0.0, 1e-4, 2e-4, 1e-3]))
        span = draw(st.floats(min_value=1e-6, max_value=0.5, allow_nan=False))
        size = draw(st.floats(min_value=40.0, max_value=9000.0, allow_nan=False))
        hops = []
        t = ingress
        for node in path[:-1]:
            wait = draw(st.sampled_from([0.0, 1e-5]))
            start = draw(st.sampled_from([True, True, False]))
            hops.append((node, t, t + wait if start else None, t + wait + 1e-5))
            t += wait + 1e-5
        rows.append(
            {
                "packet_id": packet_id,
                "flow_id": draw(st.integers(min_value=0, max_value=3)),
                "src": path[0],
                "dst": path[-1],
                "size_bytes": size,
                "ingress_time": ingress,
                "output_time": ingress + span,
                "path": path,
                "hops": hops,
                "flow_size_bytes": draw(
                    st.one_of(
                        st.none(),
                        st.floats(min_value=40.0, max_value=1e6, allow_nan=False),
                    )
                ),
                "deadline": draw(
                    st.one_of(
                        st.none(),
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    )
                ),
            }
        )
    return rows


class TestPropertyEquivalence:
    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    @pytest.mark.parametrize("mode", FLAT_MODES)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_record_sets(
        self, fixture_topology, recorded_schedule, mode, backend, data
    ):
        # Harvest real source-routed paths so every synthetic row is
        # routable on the fixture topology.
        schedule = Schedule.from_rows(data.draw(row_sets(routes_of(recorded_schedule))))
        reference = replay_schedule(
            fixture_topology, schedule, mode=mode, backend="python"
        )
        candidate = replay_schedule(
            fixture_topology, schedule, mode=mode, backend=backend
        )
        assert rows(candidate) == rows(reference)

    @needs_kernel
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("mode", FLAT_MODES)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_budgeted_bisect_against_the_reference(
        self, fixture_topology, recorded_schedule, mode, faulted, data
    ):
        """Stopped after any number of events, or drained, ``compiled`` has
        written exactly what the reference has, after as many events — so a
        divergence bisects on ``max_events`` with no twin in between."""
        if faulted:
            schedule, plan = data.draw(faulted_replays(recorded_schedule))
        else:
            schedule = Schedule.from_rows(data.draw(row_sets(routes_of(recorded_schedule))))
            plan = None
        config = dict(mode=mode, faults=plan)
        drained = replayed_and_events(fixture_topology, schedule, "python", **config)[1]
        drawn = data.draw(st.lists(st.integers(min_value=0, max_value=drained), max_size=4))
        for budget in [0, drained, None, *drawn]:
            reference = replayed_and_events(
                fixture_topology, schedule, "python", max_events=budget, **config
            )
            assert reference[1] == (drained if budget is None else min(budget, drained))
            assert (
                replayed_and_events(
                    fixture_topology, schedule, "compiled", max_events=budget, **config
                )
                == reference
            ), budget


def kernel_runner(topology, schedule, mode):
    """``run(**options)``: the compiled kernel on the arrays a replay hands it,
    ``options`` overriding its keywords."""
    kernel = kernel_loop("run_flat_replay")

    def run(**options):
        results = []

        def capturing(*args, **kwargs):
            results.append(kernel(*args, **{**kwargs, **options}))
            return results[-1]

        with mock.patch.object(replay_compiled, "kernel_loop", lambda name: capturing):
            replay_compiled.replay(topology, schedule, mode=mode)
        return results[0]

    return run


# --------------------------------------------------------------------- #
# Fault plans: the flat kernel against sim/port.py + faults/injector.py
# --------------------------------------------------------------------- #
def plan_of(*faults, seed=0):
    return FaultPlan(FaultScheduleDef(name="test", faults=tuple(faults)), seed=seed)


FAULT_KIND_NAMES = ("link-outage", "jamming", "bernoulli-loss", "gilbert-loss")


@st.composite
def fault_defs(draw, link_names, kinds=FAULT_KIND_NAMES):
    """One fault of one of ``kinds``, on all links or a few named ones.

    Fractions come from a small grid and the synthetic schedules span about
    a millisecond, so windows open and close in the middle of transmissions
    and two outages of a composed plan regularly overlap on a link.
    """
    links = draw(
        st.one_of(
            st.just(()),
            st.lists(st.sampled_from(link_names), min_size=1, max_size=2, unique=True).map(tuple),
        )
    )
    if draw(st.booleans()):
        windows = dict(start=draw(st.sampled_from([0.0, 0.1, 0.2, 0.5])), count=2, period=0.4)
        windows["duration"] = draw(st.sampled_from([0.05, 0.3]))
    else:
        windows = dict(start=draw(st.sampled_from([0.0, 0.1, 0.2, 0.5, 0.9])))
        windows["duration"] = draw(st.sampled_from([0.05, 0.3, 1.0]))
    probability = st.sampled_from([0.0, 0.3, 1.0])
    kind = draw(st.sampled_from(kinds))
    if kind == "link-outage":
        return LinkOutage(links=links, **windows)
    if kind == "jamming":
        return JammingIntervals(links=links, **windows)
    if kind == "bernoulli-loss":
        return BernoulliLoss(rate=draw(probability), links=links)
    return GilbertElliottLoss(
        p_enter_bad=draw(probability),
        p_exit_bad=draw(st.sampled_from([0.25, 1.0])),
        loss_good=draw(st.sampled_from([0.0, 0.1])),
        loss_bad=draw(st.sampled_from([0.5, 1.0])),
        links=links,
    )


@st.composite
def faulted_replays(draw, recorded_schedule, kinds=FAULT_KIND_NAMES, max_faults=3):
    """``(schedule, plan)``: a synthetic row set and some faults of ``kinds`` on its links."""
    routes = routes_of(recorded_schedule)
    link_names = sorted({f"{a}->{b}" for route in routes for a, b in zip(route, route[1:])})
    schedule = Schedule.from_rows(draw(row_sets(routes)))
    faults = draw(st.lists(fault_defs(link_names, kinds), min_size=1, max_size=max_faults))
    return schedule, plan_of(*faults, seed=draw(st.integers(min_value=0, max_value=3)))


@needs_kernel
class TestFaultEquivalence:
    """``python`` (the oracle) against ``compiled``: every column and the event count, ``==``."""

    @pytest.mark.parametrize("mode", FLAT_MODES)
    @pytest.mark.parametrize("fault", sorted(FAULTS.names()))
    def test_shipped_schedules_on_a_recorded_schedule(
        self, fixture_topology, recorded_schedule, fault, mode
    ):
        config = dict(mode=mode, faults=FaultPlan(FAULTS.get(fault), seed=3))
        assert replay_compiled.decline_reason(fixture_topology, **config) is None
        reference = replayed_and_events(fixture_topology, recorded_schedule, "python", **config)
        candidate = replayed_and_events(fixture_topology, recorded_schedule, "compiled", **config)
        assert candidate == reference
        if fault != "empty":
            assert 0 < len(reference[0].packet_id) < len(recorded_schedule)

    @pytest.mark.parametrize("mode", FLAT_MODES)
    @pytest.mark.parametrize("kind", FAULT_KIND_NAMES)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_fault_kind_alone(self, fixture_topology, recorded_schedule, kind, mode, data):
        schedule, plan = data.draw(faulted_replays(recorded_schedule, [kind], max_faults=1))
        config = dict(mode=mode, faults=plan)
        assert replayed_and_events(
            fixture_topology, schedule, "compiled", **config
        ) == replayed_and_events(fixture_topology, schedule, "python", **config)

    @pytest.mark.parametrize("mode", FLAT_MODES)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_composed_plans(self, fixture_topology, recorded_schedule, mode, data):
        schedule, plan = data.draw(faulted_replays(recorded_schedule))
        config = dict(mode=mode, faults=plan)
        assert replayed_and_events(
            fixture_topology, schedule, "compiled", **config
        ) == replayed_and_events(fixture_topology, schedule, "python", **config)

    @pytest.mark.parametrize("mode", FLAT_MODES)
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_event_budget(self, fixture_topology, recorded_schedule, mode, data):
        """Stopped after any number of events — between a down-toggle and the
        finish it cancelled included — the same packets have exited, at the
        same times, after the same number of executed events."""
        schedule, plan = data.draw(faulted_replays(recorded_schedule, ["link-outage"]))
        config = dict(mode=mode, faults=plan)
        drained = replayed_and_events(fixture_topology, schedule, "python", **config)[1]
        for budget in range(drained + 2):
            config["max_events"] = budget
            reference = replayed_and_events(fixture_topology, schedule, "python", **config)
            assert reference[1] == min(budget, drained)
            assert (
                replayed_and_events(fixture_topology, schedule, "compiled", **config) == reference
            ), budget

    @pytest.mark.parametrize("mode", FLAT_MODES)
    def test_a_plan_that_touches_nothing_is_no_plan_bit_for_bit(
        self, fixture_topology, recorded_schedule, mode
    ):
        run = kernel_runner(fixture_topology, recorded_schedule, mode)
        timings, events = run()
        # Neither an empty plan nor a faulted port with no filter and no
        # window changes anything.
        assert run(faults=[]) == (timings, events)
        assert run(faults=[(0, (), [])]) == (timings, events)
        # W windows nothing runs into (here: after the last exit) are 2W events.
        end = max(timings[-1])
        late = [(end + 1.0 + k, end + 1.5 + k) for k in range(3)]
        assert run(faults=[(0, (), late), (1, (), late[:1])]) == (timings, events + 2 * 4)

    def test_a_rate_zero_plan_replays_as_no_plan(self, fixture_topology, recorded_schedule):
        clean = replayed_and_events(fixture_topology, recorded_schedule, "compiled")
        for plan in (plan_of(), plan_of(BernoulliLoss(rate=0.0))):
            assert (
                replayed_and_events(fixture_topology, recorded_schedule, "compiled", faults=plan)
                == clean
            )

    @pytest.mark.parametrize("mode", FLAT_MODES)
    def test_every_filter_draws_at_every_finish(self, fixture_topology, recorded_schedule, mode):
        """Two stochastic losses on every link: the second draws even where the first destroys."""
        plan = plan_of(
            BernoulliLoss(rate=0.5),
            GilbertElliottLoss(p_enter_bad=0.3, p_exit_bad=0.25, loss_good=0.1, loss_bad=0.5),
        )
        config = dict(mode=mode, faults=plan)
        reference = replayed_and_events(fixture_topology, recorded_schedule, "python", **config)
        assert 0 < len(reference[0].packet_id) < len(recorded_schedule) / 2
        candidate = replayed_and_events(fixture_topology, recorded_schedule, "compiled", **config)
        assert candidate == reference

    def test_an_empty_schedule_still_fires_its_outages(self, fixture_topology):
        plan = plan_of(LinkOutage(links=(), start=0.1, duration=0.3, count=2, period=0.4))
        reference = replayed_and_events(fixture_topology, Schedule(), "python", faults=plan)
        assert reference[1] > 0  # toggles are events, and are counted
        candidate = replayed_and_events(fixture_topology, Schedule(), "compiled", faults=plan)
        assert candidate == reference

    def test_a_raising_filter_reaches_the_caller_and_leaks_nothing(
        self, fixture_topology, recorded_schedule
    ):
        def explode(packet, now):
            raise RuntimeError("filter failed")

        filters = (explode,)
        faults = [(port, filters, []) for port in range(len(fixture_topology.link_params()))]
        held = sys.getrefcount(filters)
        run = kernel_runner(fixture_topology, recorded_schedule, "lstf")
        with pytest.raises(RuntimeError, match="filter failed"):
            run(faults=faults)
        assert sys.getrefcount(filters) == held
        # The next replay in the same process is unaffected.
        config = dict(mode="lstf", faults=plan_of(BernoulliLoss(rate=0.3)))
        assert replayed_and_events(
            fixture_topology, recorded_schedule, "compiled", **config
        ) == replayed_and_events(fixture_topology, recorded_schedule, "python", **config)


# --------------------------------------------------------------------- #
# The seam: fallback, selection, and configuration errors
# --------------------------------------------------------------------- #
class TestBackendSeam:
    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    def test_unsupported_mode_falls_back(
        self, fixture_topology, recorded_schedule, backend
    ):
        assert replay_compiled.decline_reason(fixture_topology, "lstf-preemptive")
        # replay_schedule routes the run to the reference engine.
        reference = replay_schedule(
            fixture_topology, recorded_schedule, mode="lstf-preemptive",
            backend="python",
        )
        candidate = replay_schedule(
            fixture_topology, recorded_schedule, mode="lstf-preemptive",
            backend=backend,
        )
        assert rows(candidate) == rows(reference)

    def test_finite_buffers_decline(self):
        topo = Topology(
            name="finite-buffers",
            nodes=[NodeSpec("a", "host"), NodeSpec("r", "router"), NodeSpec("b", "host")],
            links=[
                LinkSpec("a", "r", mbps(10), 0.001, buffer_bytes=15000),
                LinkSpec("r", "b", mbps(10), 0.001),
            ],
        )
        assert replay_compiled.decline_reason(topo, "lstf")

    def test_unknown_backend_raises(self, fixture_topology, recorded_schedule):
        with pytest.raises(PipelineConfigError, match="unknown backend"):
            replay_schedule(
                fixture_topology, recorded_schedule, mode="lstf", backend="nope"
            )
