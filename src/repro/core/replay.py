"""The record-and-replay engine (Section 2.3's experiment harness).

The workflow mirrors the paper exactly:

1. **Record**: run the input workload through the topology with some
   collection of "original" scheduling algorithms (Random, FIFO, FQ, SJF,
   LIFO, a FQ/FIFO+ mixture, ...) and record the resulting schedule — every
   packet's ingress time ``i(p)``, path, per-hop service times, and network
   output time ``o(p)``.
2. **Replay**: rebuild the *same* topology, deploy the candidate universal
   scheduler (LSTF by default) at every port, re-inject exactly the same
   packets at exactly the same ingress times along exactly the same paths
   (source routing), with headers initialized from the recorded schedule
   (black-box slack, static output-time priority, or the omniscient per-hop
   vector).
3. **Compare**: count overdue packets and packets overdue by more than one
   bottleneck-link transmission time, and collect queueing-delay ratios.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.metrics import ReplayMetrics, compare_schedules
from repro.core.schedule import Schedule, ScheduleColumns
from repro.core.slack import (
    BlackBoxSlackInitializer,
    LinkParams,
    OmniscientInitializer,
    OutputTimePriorityInitializer,
    ReplayInitializer,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.factory import alternating_factory, uniform_factory
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.lstf import LstfScheduler, PreemptiveLstfScheduler
from repro.schedulers.omniscient import OmniscientReplayScheduler
from repro.schedulers.priority import StaticPriorityScheduler
from repro.sim import flat_record
from repro.sim.backend import SimBackend, select_engine
from repro.sim.engine import Simulator
from repro.sim.flow import DEFAULT_MSS
from repro.sim.network import Network, SchedulerFactory
from repro.sim.packet import Packet
from repro.sim.tracer import Tracer
from repro.topology.base import Topology
from repro.traffic.workload import WorkloadSpec
from repro.utils.rng import RandomState

logger = logging.getLogger(__name__)


#: Replay modes: the candidate universal scheduler deployed during the replay
#: and the header initializer that goes with it.
REPLAY_MODES: Dict[str, tuple] = {
    "lstf": (LstfScheduler, BlackBoxSlackInitializer),
    "lstf-preemptive": (PreemptiveLstfScheduler, BlackBoxSlackInitializer),
    "edf": (EdfScheduler, BlackBoxSlackInitializer),
    "priority": (StaticPriorityScheduler, OutputTimePriorityInitializer),
    "omniscient": (OmniscientReplayScheduler, OmniscientInitializer),
    # FIFO replay: the slack-oblivious baseline the faults experiments
    # degrade against (headers still carry black-box slack; FIFO ignores it).
    "fifo": (FifoScheduler, BlackBoxSlackInitializer),
}


class ReplayInjector:
    """Re-injects the packets of a recorded schedule into a fresh network.

    Headers come from one :meth:`~repro.core.slack.ReplayInitializer.headers`
    call per replay, over the schedule's columns; each packet is built from
    its row and stamped with its row of the four header fields.

    Injection is *streaming*: instead of pre-scheduling one heap event per
    recorded packet (which made the engine heap O(total packets) before the
    first packet even moved), :meth:`install` arms a single self-rescheduling
    cursor that walks the ingress-time-sorted rows.  The heap stays
    O(in-flight packets), so every push/pop sifts a far shallower heap.

    The cursor is scheduled with
    :meth:`~repro.sim.engine.Simulator.schedule_at_front`, so injections at
    time ``t`` fire before any simulation event at ``t``, and rows sharing
    one ingress time are injected back-to-back in row order — exactly what
    :meth:`install_upfront`, the reference the equivalence tests hold it to,
    does by pre-scheduling one event per row.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schedule: Schedule,
        initializer: ReplayInitializer,
        link_params: LinkParams,
    ) -> None:
        self.sim = sim
        self.network = network
        self.schedule = schedule
        self.initializer = initializer
        self.link_params = link_params
        self.injected = 0
        self._cursor = 0

    def _prepare(self) -> List[float]:
        """Compute every row's headers once; returns the rows' ingress times."""
        self._cols = self.schedule.columns()
        self._headers = self.initializer.headers(self._cols, self.link_params)
        self._cursor = 0
        return self._cols.ingress_time

    def install(self) -> None:
        """Arm the streaming cursor at the first recorded ingress time."""
        ingress = self._prepare()
        if ingress:
            self.sim.schedule_at_front(ingress[0], self._advance)

    def install_upfront(self) -> None:
        """Reference implementation: pre-schedule one event per row.

        Kept (and exercised by the determinism test suite) as the behavioural
        specification the streaming cursor must match bit-for-bit; prefer
        :meth:`install` everywhere else.
        """
        for row, ingress in enumerate(self._prepare()):
            self.sim.schedule_at(ingress, self._inject, row)

    def _advance(self) -> None:
        """Inject every row due now, then reschedule at the next ingress time."""
        ingress = self._cols.ingress_time
        total = len(ingress)
        index = self._cursor
        now = self.sim.now
        inject = self._inject
        while index < total and ingress[index] <= now:
            inject(index)
            index += 1
        self._cursor = index
        if index < total:
            self.sim.schedule_at_front(ingress[index], self._advance)

    def _inject(self, row: int) -> None:
        """Send the packet of ``row``, header stamped, from its source host."""
        cols = self._cols
        slack, priority, deadline, vectors = self._headers
        packet = Packet(
            flow_id=cols.flow_id[row],
            src=cols.src[row],
            dst=cols.dst[row],
            size_bytes=cols.size_bytes[row],
            route=list(cols.path[row]),
            packet_id=cols.packet_id[row],
        )
        packet.flow_deadline = cols.deadline[row]
        header = packet.header
        header.flow_size_bytes = cols.flow_size_bytes[row]
        header.slack = slack[row]
        header.priority = priority[row]
        header.deadline = deadline[row]
        if vectors[row]:
            header.hop_output_times = deque(vectors[row])
        self.network.host(packet.src).send(packet)
        self.injected += 1


@dataclass
class ReplayResult:
    """Outcome of replaying one original schedule with one candidate UPS."""

    mode: str
    original: Schedule
    replayed: Schedule
    metrics: ReplayMetrics

    @property
    def overdue_fraction(self) -> float:
        """Fraction of packets that exited later than in the original schedule."""
        return self.metrics.overdue_fraction

    @property
    def overdue_beyond_threshold_fraction(self) -> float:
        """Fraction of packets overdue by more than the bottleneck transmission time."""
        return self.metrics.overdue_beyond_threshold_fraction

    # ------------------------------------------------------------------ #
    # Deadline-aware evaluation (deadline-tagged workloads)
    # ------------------------------------------------------------------ #
    @property
    def has_deadlines(self) -> bool:
        """Whether the original schedule carried any flow deadlines."""
        return self.metrics.deadline_total > 0

    @property
    def deadline_met_fraction_original(self) -> float:
        """Fraction of deadline-tagged flows on time in the original run."""
        return self.metrics.deadline_met_fraction_original

    @property
    def deadline_met_fraction_replay(self) -> float:
        """Fraction of deadline-tagged flows on time in the replay."""
        return self.metrics.deadline_met_fraction_replay


def replay_fault_horizon(schedule: Schedule) -> float:
    """The span a replay's fault plan is stretched over, the same on every engine.

    That is the span traffic actually enters over: the last recorded ingress
    time (columns are ingress-sorted), or 1.0 when that is not positive.
    """
    ingress = schedule.columns().ingress_time
    horizon = ingress[-1] if ingress else 0.0
    return horizon if horizon > 0.0 else 1.0


def replay_scheduler_factory(mode: str) -> SchedulerFactory:
    """Scheduler factory deploying the replay-mode scheduler at every port."""
    scheduler_cls, _ = _lookup_mode(mode)
    return uniform_factory(scheduler_cls)


def replay_initializer(mode: str) -> ReplayInitializer:
    """Header initializer matching a replay mode."""
    _, initializer_cls = _lookup_mode(mode)
    return initializer_cls()


def _lookup_mode(mode: str):
    try:
        return REPLAY_MODES[mode]
    except KeyError:
        known = ", ".join(sorted(REPLAY_MODES))
        raise KeyError(f"unknown replay mode {mode!r}; known modes: {known}") from None


class PythonBackend(SimBackend):
    """The reference backend: the OO engine, unchanged behaviour.

    This is the behavioural specification every other backend must match
    bit-for-bit; it supports every replay configuration (all modes, finite
    buffers, preemption, any fault kind).
    """

    name = "python"
    replay_note = (
        "reference OO engine; supports every replay configuration "
        "(all modes, finite buffers, preemption, any fault kind)"
    )

    def replay(
        self,
        topology: Topology,
        schedule: Schedule,
        mode: str = "lstf",
        default_buffer_bytes: Optional[float] = None,
        max_events: Optional[int] = None,
        initializer: Optional[ReplayInitializer] = None,
        faults=None,
    ) -> Schedule:
        sim = Simulator()
        tracer = Tracer()
        network = topology.build(
            sim,
            replay_scheduler_factory(mode),
            tracer=tracer,
            default_buffer_bytes=default_buffer_bytes,
        )
        if initializer is None:
            initializer = replay_initializer(mode)
        injector = ReplayInjector(sim, network, schedule, initializer, topology.link_params())
        injector.install()
        if faults is not None and not faults.is_empty():
            network.install_faults(faults, horizon=replay_fault_horizon(schedule))
        # Without faults there are no feedback loops and no drops, and with
        # them destroyed packets simply never reach their sink: either way
        # the event queue drains once every surviving packet has exited.
        sim.run(until=None, max_events=max_events)
        return Schedule.from_packets(tracer.delivered_data_packets())


def replay_schedule(
    topology: Topology,
    schedule: Schedule,
    mode: str = "lstf",
    default_buffer_bytes: Optional[float] = None,
    max_events: Optional[int] = None,
    initializer: Optional[ReplayInitializer] = None,
    backend: Optional[str] = None,
    faults=None,
) -> Schedule:
    """Replay a recorded schedule on a fresh instance of ``topology``.

    Returns the replay's schedule, keyed by the *original* packet ids so it
    can be compared directly against ``schedule``.

    Args:
        topology: Topology to rebuild for the replay run.
        schedule: The recorded original schedule supplying the traffic.
        mode: Replay mode selecting the candidate scheduler (and, when
            ``initializer`` is not given, the matching header initializer).
        default_buffer_bytes: Buffer capacity (``None`` = infinite).
        max_events: Safety valve forwarded to the engine.
        initializer: Header initializer overriding the mode's default —
            how slack-policy replays (:mod:`repro.core.slack_policy`) stamp
            heuristic slack instead of recorded output times.
        backend: Engine name, or ``None`` for ``$REPRO_BACKEND`` if set,
            else the fastest available engine that accepts this exact
            configuration.  A named engine that declines hands over to the
            reference engine; results are bit-identical either way.  The
            decision is :func:`~repro.sim.backend.select_engine`'s, and is
            logged here — one DEBUG record per replay on this module's
            logger: the mode, the engine used, and ``(engine, reason)`` for
            each that declined.
        faults: Optional :class:`repro.faults.FaultPlan` installed on the
            replay network (``None`` or an empty plan replays fault-free).
            ``compiled`` declines fault-bearing replays (drop filters are
            Python closures), so unselected ones run on ``vectorized``.
    """
    engine, declined = select_engine(backend, topology, mode, default_buffer_bytes, faults)
    logger.debug("replaying mode=%s on %s; declined: %s", mode, engine.name, declined)
    return engine.replay(
        topology,
        schedule,
        mode=mode,
        default_buffer_bytes=default_buffer_bytes,
        max_events=max_events,
        initializer=initializer,
        faults=faults,
    )


def replay_pair(
    topology: Topology,
    schedule: Schedule,
    backend_a: Optional[str],
    backend_b: Optional[str],
    mode: str = "lstf",
    initializer: Optional[ReplayInitializer] = None,
    faults=None,
) -> tuple:
    """Replay ``schedule`` twice — once per backend — for differential comparison.

    This is the diff tool's replay entry (:mod:`repro.diff`): both legs
    replay the *same* recorded schedule on fresh instances of the same
    topology, and a replay shares no state with any other run.  By the
    backend bit-identity contract the two replayed schedules must be
    identical — any difference is a backend bug, and
    :func:`repro.diff.first_divergence` pinpoints it.

    Passing the same backend twice is the determinism twin: it verifies a
    single engine replays reproducibly run-over-run.

    Returns:
        ``(replayed_a, replayed_b)`` — both keyed by original packet ids.
    """
    return tuple(
        replay_schedule(
            topology,
            schedule,
            mode=mode,
            initializer=initializer,
            backend=backend,
            faults=faults,
        )
        for backend in (backend_a, backend_b)
    )


def evaluate_replay(
    topology: Topology,
    original: Schedule,
    mode: str = "lstf",
    threshold: Optional[float] = None,
    threshold_packet_bytes: float = float(DEFAULT_MSS),
    default_buffer_bytes: Optional[float] = None,
    initializer: Optional[ReplayInitializer] = None,
    backend: Optional[str] = None,
    faults=None,
) -> ReplayResult:
    """Replay ``original`` with ``mode`` and compute the Table-1 metrics.

    Args:
        topology: The topology both runs share.
        original: The recorded original schedule.
        mode: Replay mode (see :data:`REPLAY_MODES`).
        threshold: Lateness threshold ``T``; defaults to one transmission
            time of ``threshold_packet_bytes`` on the slowest link.
        threshold_packet_bytes: Packet size used for the default threshold.
        default_buffer_bytes: Buffer capacity in the replay network (``None``
            = infinite, the paper's setting).
        initializer: Header initializer overriding the mode's default (see
            :func:`replay_schedule`); used by slack-policy replays.
        backend: Engine selector forwarded to :func:`replay_schedule`
            (``None`` = ``$REPRO_BACKEND``, else the fastest available
            engine that supports the configuration).
        faults: Optional fault plan forwarded to :func:`replay_schedule`;
            destroyed packets surface as ``missing`` in the metrics (see
            :attr:`~repro.core.metrics.ReplayMetrics.delivered_fraction`).
    """
    replayed = replay_schedule(
        topology,
        original,
        mode=mode,
        default_buffer_bytes=default_buffer_bytes,
        initializer=initializer,
        backend=backend,
        faults=faults,
    )
    if threshold is None:
        threshold = topology.bottleneck_transmission_time(threshold_packet_bytes)
    metrics = compare_schedules(original, replayed, threshold=threshold)
    return ReplayResult(mode=mode, original=original, replayed=replayed, metrics=metrics)


# ---------------------------------------------------------------------- #
# Original-schedule recording
# ---------------------------------------------------------------------- #
def original_scheduler_factory(
    name: str, topology: Topology, rng: Optional[RandomState] = None
) -> SchedulerFactory:
    """Scheduler factory for an "original schedule" algorithm by name.

    Supports every per-port algorithm in the registry plus the Table-1
    mixture ``"fq+fifo+"`` (half the routers run fair queueing, half FIFO+;
    hosts keep FIFO since the mixture in the paper applies to routers).
    """
    normalized = name.lower()
    if normalized in ("fq+fifo+", "fifo+ & fq", "fq/fifo+"):
        return alternating_factory(
            topology.router_names(),
            uniform_factory("fq"),
            uniform_factory("fifo+"),
            default=uniform_factory("fifo"),
        )
    return uniform_factory(normalized, rng=rng)


def record_schedule(
    topology: Topology,
    scheduler_factory: SchedulerFactory,
    workload: WorkloadSpec,
    seed: int = 0,
    sources: Optional[Sequence[str]] = None,
    destinations: Optional[Sequence[str]] = None,
    default_buffer_bytes: Optional[float] = None,
    max_events: Optional[int] = None,
    slack_policy=None,
    faults=None,
) -> Schedule:
    """Run the workload under the original schedulers and record the schedule.

    Flow arrivals stop at ``workload.duration``; the run then continues until
    every in-flight packet has drained so that each recorded packet has a
    complete path and output time.

    The simulation is built once, then run by whichever loop can: the flat
    recording loop (:mod:`repro.sim.flat_record`) for open-loop originals
    under FIFO / LIFO / SJF / Random with infinite buffers, the OO engine —
    the reference, and what a ``python`` backend pin selects — for
    everything else.  The two agree to the byte of the saved schedule.

    Args:
        slack_policy: Optional send-time
            :class:`~repro.core.slack.SlackPolicy` installed on the network
            while recording, so every injected packet is stamped as sources
            emit it (the live application mode of
            :mod:`repro.core.slack_policy`).  ``None`` records exactly as
            before.
        faults: Optional :class:`repro.faults.FaultPlan` installed while
            recording, with the workload duration as the fault horizon.
            The pipeline records fault-free and injects faults at replay
            time only; this parameter exists for direct API use (e.g.
            recording what FIFO itself does under loss).
    """
    from repro.sim.simulation import Simulation

    simulation = Simulation(
        topology,
        scheduler_factory,
        default_buffer_bytes=default_buffer_bytes,
        slack_policy=slack_policy,
        seed=seed,
    )
    if faults is not None and not faults.is_empty():
        simulation.network.install_faults(faults, horizon=float(workload.duration))
    simulation.add_poisson_traffic(
        workload, sources=sources, destinations=destinations, stop_time=workload.duration
    )
    if flat_record.decline_reason(simulation, max_events) is None:
        cols = ScheduleColumns()
        flat_record.record_into(simulation, cols)
        return Schedule.from_columns(cols)
    simulation.sim.run(until=None, max_events=max_events)
    schedule = Schedule.from_tracer(simulation.tracer)
    # The built network is cyclic garbage from here on; emptying the tracer
    # lets refcounting free the run's packets (the bulk of it) now rather
    # than at the next full collection, which GC-paused replays push out.
    simulation.tracer.reset()
    return schedule


class ReplayExperiment:
    """End-to-end record-then-replay experiment for one scenario.

    Args:
        topology: Topology specification shared by both runs.
        original: Name of the original scheduling algorithm (registry name or
            ``"fq+fifo+"``) or an explicit scheduler factory.
        workload: Offered traffic description.
        seed: Seed for the workload (and for the Random scheduler if used).
        sources: Source hosts (defaults to every host).
        destinations: Destination hosts (defaults to every host).
    """

    def __init__(
        self,
        topology: Topology,
        original,
        workload: WorkloadSpec,
        seed: int = 0,
        sources: Optional[Sequence[str]] = None,
        destinations: Optional[Sequence[str]] = None,
    ) -> None:
        self.topology = topology
        self.workload = workload
        self.seed = seed
        self.sources = sources
        self.destinations = destinations
        rng = RandomState(seed + 1)
        if callable(original):
            self.original_name = getattr(original, "__name__", "custom")
            self.original_factory = original
        else:
            self.original_name = str(original)
            self.original_factory = original_scheduler_factory(
                self.original_name, topology, rng=rng
            )
        self._recorded: Optional[Schedule] = None

    def record(self) -> Schedule:
        """Run the original schedule once (cached across replay modes)."""
        if self._recorded is None:
            self._recorded = record_schedule(
                self.topology,
                self.original_factory,
                self.workload,
                seed=self.seed,
                sources=self.sources,
                destinations=self.destinations,
            )
        return self._recorded

    def replay(self, mode: str = "lstf", threshold: Optional[float] = None) -> ReplayResult:
        """Replay the recorded schedule with the given candidate UPS."""
        return evaluate_replay(
            self.topology,
            self.record(),
            mode=mode,
            threshold=threshold,
            threshold_packet_bytes=float(self.workload.mss),
        )

    def run(self, modes: Sequence[str] = ("lstf",)) -> Dict[str, ReplayResult]:
        """Record once, then replay with every requested mode."""
        return {mode: self.replay(mode) for mode in modes}
