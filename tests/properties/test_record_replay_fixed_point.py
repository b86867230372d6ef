"""The recorder ↔ replayer fixed point: a replay gives its recording back.

Two laws, each held for every recorder — the OO engine (under the
``python`` pin) and the flat loop (unpinned; :func:`repro.sim.flat_record.
decline_reason` picks it) — against every replayer, ``python`` and
``compiled``:

* record under FIFO and replay in ``fifo`` mode: every ``output_time`` is
  the recording's, bit for bit;
* an omniscient replay of a FIFO, LIFO or Random original has no overdue
  packet (the paper's Appendix B).

The equivalence suites compare replayers with each other and recorders with
each other; this is the test that ties a recorder to a replayer.  Its one
known boundary — an ingress, which a replay injects as a front event, tied
in time with a link delivery at the same port — is stated in
``docs/backends.md`` (*Recording and replay agree*); the topologies drawn
here cannot reach it, because a host never forwards.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replay import (
    evaluate_replay,
    original_scheduler_factory,
    record_schedule,
    replay_schedule,
)
from repro.sim.backend import select_engine
from repro.sim.compiled import kernel_available, unavailable_reason
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import RandomState, mbps
from tests.properties.test_forwarding_paths import topologies
from tests.sim.test_flat_record import recording_engine

#: ``None`` records unpinned (the flat loop), ``"python"`` on the OO engine.
RECORDERS = (pytest.param(None, id="flat-loop"), pytest.param("python", id="oo"))

REPLAYERS = (
    pytest.param("python", id="python"),
    pytest.param(
        "compiled",
        id="compiled",
        marks=pytest.mark.skipif(not kernel_available(), reason=unavailable_reason() or ""),
    ),
)


def record(topo, original, seed, utilization, recorder):
    """One recording on ``recorder``, checked to have run on that loop."""
    workload = WorkloadSpec(
        utilization=utilization,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        duration=0.05,
    )
    factory = original_scheduler_factory(original, topo, rng=RandomState(seed + 1))
    with recording_engine(recorder) as log:
        schedule = record_schedule(topo, factory, workload, seed=seed)
    assert log[0].endswith("on the flat loop" if recorder is None else "on the OO engine"), log
    return schedule


@pytest.mark.parametrize("replayer", REPLAYERS)
@pytest.mark.parametrize("recorder", RECORDERS)
@given(
    topologies(),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from((0.3, 0.7, 1.1)),
)
@settings(max_examples=15, deadline=None)
def test_a_fifo_replay_of_a_fifo_recording_is_the_recording(
    recorder, replayer, case, seed, utilization
):
    topo, _ = case
    recorded = record(topo, "fifo", seed, utilization, recorder)
    assert select_engine(replayer, topo, "fifo")[0].name == replayer
    replayed = replay_schedule(topo, recorded, mode="fifo", backend=replayer).columns()
    want = recorded.columns()
    assert replayed.packet_id == want.packet_id
    assert replayed.output_time == want.output_time


@pytest.mark.parametrize("replayer", REPLAYERS)
@pytest.mark.parametrize("recorder", RECORDERS)
@given(
    topologies(),
    st.sampled_from(("fifo", "lifo", "random")),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from((0.3, 0.7, 1.1)),
)
@settings(max_examples=15, deadline=None)
def test_an_omniscient_replay_is_never_late(recorder, replayer, case, original, seed, utilization):
    topo, _ = case
    recorded = record(topo, original, seed, utilization, recorder)
    assert select_engine(replayer, topo, "omniscient")[0].name == replayer
    result = evaluate_replay(topo, recorded, mode="omniscient", backend=replayer)
    assert result.overdue_fraction == 0.0
