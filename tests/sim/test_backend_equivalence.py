"""Cross-backend equivalence: every backend must match the reference engine.

The ``SimBackend`` contract (``docs/backends.md``) is bit-identity: a replay
run under any engine must produce the *exact* rows the reference python
engine produces — same floats, same tie-breaks, same record order.  These
tests hold the accelerated engines to that contract on a recorded fixture
schedule (the golden test) and on adversarial synthetic record sets (the
hypothesis property test), and check the seam itself: fallback for declined
configurations and clean configuration errors.  (The OO engine's own
cancel-then-peek contract lives in ``test_engine.py``.)
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.replay import (
    ReplayExperiment,
    evaluate_replay,
    replay_schedule,
)
from repro.core.replay_compiled import CompiledBackend
from repro.core.replay_vectorized import VectorizedBackend
from repro.core.schedule import HopTiming, PacketRecord, Schedule
from repro.pipeline.scenario import PipelineConfigError
from repro.sim.compiled import kernel_available, kernel_run_flat_replay, unavailable_reason
from repro.sim.vectorized import run_flat_replay
from repro.topology import dumbbell_topology
from repro.topology.base import LinkSpec, NodeSpec, Topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps

#: Modes the flat-kernel backends implement (lstf-preemptive falls back).
VECTORIZED_MODES = ("lstf", "edf", "priority", "omniscient")

#: Backend classes under equivalence test, keyed by registry name.  The
#: compiled backend is skip-marked — not silently dropped — with the loader's
#: own reason where its kernel cannot be built, so a toolchain-less environment
#: reports the gap.
OPTIMIZED_BACKEND_CLASSES = {
    "vectorized": VectorizedBackend,
    "compiled": CompiledBackend,
}

OPTIMIZED_BACKENDS = (
    pytest.param("vectorized", id="vectorized"),
    pytest.param(
        "compiled",
        id="compiled",
        marks=pytest.mark.skipif(not kernel_available(), reason=unavailable_reason() or ""),
    ),
)


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
    return [record.to_dict() for record in schedule.records()]


# --------------------------------------------------------------------- #
# Golden fixture: bit-identical rows on a real recorded schedule
# --------------------------------------------------------------------- #
class TestGoldenEquivalence:
    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    @pytest.mark.parametrize("mode", VECTORIZED_MODES)
    def test_rows_bit_identical(
        self, fixture_topology, recorded_schedule, mode, backend
    ):
        backend_cls = OPTIMIZED_BACKEND_CLASSES[backend]
        assert backend_cls().decline_reason(fixture_topology, mode) is None
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
# Property test: synthetic record sets, adversarial ties included
# --------------------------------------------------------------------- #
@st.composite
def record_sets(draw, paths):
    """A list of synthetic PacketRecords routed over ``paths``.

    Ingress times are drawn from a tiny grid so identical timestamps — the
    tie-breaking cases the ``(time, seq)`` contract exists for — occur
    constantly rather than never.
    """
    count = draw(st.integers(min_value=0, max_value=12))
    records = []
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
            hops.append(
                HopTiming(
                    node=node,
                    arrival_time=t,
                    start_service_time=t + wait if start else None,
                    departure_time=t + wait + 1e-5,
                )
            )
            t += wait + 1e-5
        records.append(
            PacketRecord(
                packet_id=packet_id,
                flow_id=draw(st.integers(min_value=0, max_value=3)),
                src=path[0],
                dst=path[-1],
                size_bytes=size,
                ingress_time=ingress,
                output_time=ingress + span,
                path=path,
                hops=hops,
                flow_size_bytes=draw(
                    st.one_of(
                        st.none(),
                        st.floats(min_value=40.0, max_value=1e6, allow_nan=False),
                    )
                ),
                deadline=draw(
                    st.one_of(
                        st.none(),
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    )
                ),
            )
        )
    return records


class TestPropertyEquivalence:
    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    @pytest.mark.parametrize("mode", VECTORIZED_MODES)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_record_sets(
        self, fixture_topology, recorded_schedule, mode, backend, data
    ):
        # Harvest real source-routed paths so every synthetic record is
        # routable on the fixture topology.
        paths = sorted({tuple(r.path) for r in recorded_schedule.records()})
        records = data.draw(record_sets(paths))
        schedule = Schedule()
        for record in records:
            schedule.add(record)
        reference = replay_schedule(
            fixture_topology, schedule, mode=mode, backend="python"
        )
        candidate = replay_schedule(
            fixture_topology, schedule, mode=mode, backend=backend
        )
        assert rows(candidate) == rows(reference)

    @pytest.mark.skipif(not kernel_available(), reason=unavailable_reason() or "")
    @pytest.mark.parametrize("mode", VECTORIZED_MODES)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_kernels_in_lock_step(self, fixture_topology, recorded_schedule, mode, data):
        """``sim/vectorized.py`` is the C kernel's executable spec: stopped after
        any number of events, both have written exactly the same state."""
        paths = sorted({tuple(r.path) for r in recorded_schedule.records()})
        schedule = Schedule(data.draw(record_sets(paths)))
        assume(len(schedule))  # an empty replay never reaches a kernel
        captured = []

        def copied(args):
            # LSTF's slack column is the kernels' one in-place output: every run gets its own.
            return [list(a) if isinstance(a, list) else a for a in args]

        class Capturing(VectorizedBackend):
            def _kernel(self, *args, **kwargs):
                captured.append(copied(args))
                return super()._kernel(*args, **kwargs)

        Capturing().replay(fixture_topology, schedule, mode=mode)
        (inputs,) = captured

        def run(kernel, budget):
            return kernel(*copied(inputs), max_events=budget)

        drained = run(run_flat_replay, None)[-1]
        for budget in range(drained + 1):
            assert run(kernel_run_flat_replay(), budget) == run(run_flat_replay, budget), budget


# --------------------------------------------------------------------- #
# The seam: fallback, selection, and configuration errors
# --------------------------------------------------------------------- #
class TestBackendSeam:
    @pytest.mark.parametrize("backend", OPTIMIZED_BACKENDS)
    def test_unsupported_mode_falls_back(
        self, fixture_topology, recorded_schedule, backend
    ):
        instance = OPTIMIZED_BACKEND_CLASSES[backend]()
        assert instance.decline_reason(fixture_topology, "lstf-preemptive")
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

    @pytest.mark.parametrize("name", sorted(OPTIMIZED_BACKEND_CLASSES))
    def test_finite_buffers_decline(self, name):
        topo = Topology(
            name="finite-buffers",
            nodes=[NodeSpec("a", "host"), NodeSpec("r", "router"), NodeSpec("b", "host")],
            links=[
                LinkSpec("a", "r", mbps(10), 0.001, buffer_bytes=15000),
                LinkSpec("r", "b", mbps(10), 0.001),
            ],
        )
        assert OPTIMIZED_BACKEND_CLASSES[name]().decline_reason(topo, "lstf")

    @pytest.mark.parametrize("name", sorted(OPTIMIZED_BACKEND_CLASSES))
    def test_finite_default_buffer_declines(self, fixture_topology, name):
        backend = OPTIMIZED_BACKEND_CLASSES[name]()
        assert backend.decline_reason(fixture_topology, "lstf", default_buffer_bytes=15000.0)

    def test_unknown_backend_raises(self, fixture_topology, recorded_schedule):
        with pytest.raises(PipelineConfigError, match="unknown backend"):
            replay_schedule(
                fixture_topology, recorded_schedule, mode="lstf", backend="nope"
            )
