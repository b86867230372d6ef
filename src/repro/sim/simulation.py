"""High-level simulation orchestration.

:class:`Simulation` wires together the pieces a typical experiment needs —
engine, topology, schedulers, tracer, traffic — behind a small API so that
examples and experiment scripts read like the paper's experiment
descriptions rather than like plumbing.  :meth:`Simulation.run` runs on the
compiled kernel's flat live loop (:mod:`repro.sim.flat_live`: routers in C,
hosts and transports in Python) unless that declines, and on the OO engine
otherwise; the two leave the same packets, flows and clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.sim.engine import SimulationError, Simulator
from repro.sim.flow import Flow
from repro.sim.network import Network, SchedulerFactory
from repro.sim.packet import Packet
from repro.sim.tracer import Tracer
from repro.utils import paused_gc
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.base import Topology
    from repro.traffic.flowgen import PoissonFlowGenerator, StaticFlowSet
    from repro.traffic.workload import WorkloadSpec


@dataclass
class SimulationResult:
    """Summary of one simulation run.

    Attributes:
        duration: Simulated time in seconds.
        flows: Every flow that was generated during the run.
        delivered_packets: Packets that reached their destination host.
        dropped_packets: Packets dropped at full buffers.
        injected_packets: Packets injected by hosts.
    """

    duration: float
    flows: List[Flow] = field(default_factory=list)
    delivered_packets: List[Packet] = field(default_factory=list)
    dropped_packets: List[Packet] = field(default_factory=list)
    injected_packets: List[Packet] = field(default_factory=list)


class Simulation:
    """One simulation run: a topology, a scheduler deployment, and traffic.

    Args:
        topology: Topology specification to instantiate.
        scheduler_factory: Scheduler deployed at every output port.
        default_buffer_bytes: Buffer capacity of every port (``None`` =
            infinite, which is the paper's replay setting).
        slack_policy: Optional slack-initialization policy applied to every
            packet as it is injected (the Section-3 heuristics).
        seed: Seed for this run's traffic random stream.
    """

    def __init__(
        self,
        topology: "Topology",
        scheduler_factory: SchedulerFactory,
        default_buffer_bytes: Optional[float] = None,
        slack_policy=None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.sim = Simulator()
        self.tracer = Tracer()
        self.network: Network = topology.build(
            self.sim,
            scheduler_factory,
            tracer=self.tracer,
            default_buffer_bytes=default_buffer_bytes,
        )
        self.network.slack_policy = slack_policy
        self.rng = RandomState(seed)
        self.generators: List[object] = []
        self._spent = False

    # ------------------------------------------------------------------ #
    # Traffic
    # ------------------------------------------------------------------ #
    def add_poisson_traffic(
        self,
        workload: "WorkloadSpec",
        sources: Optional[Sequence[str]] = None,
        destinations: Optional[Sequence[str]] = None,
        stop_time: Optional[float] = None,
    ) -> "PoissonFlowGenerator":
        """Attach Poisson flow arrivals described by ``workload`` to the network."""
        from repro.traffic.flowgen import PoissonFlowGenerator

        generator = PoissonFlowGenerator(
            self.sim,
            self.network,
            arrival_rate_per_source=workload.per_host_arrival_rate(),
            size_distribution=workload.size_distribution,
            transport=workload.transport,
            sources=sources,
            destinations=destinations,
            rng=self.rng.spawn(),
            stop_time=stop_time if stop_time is not None else workload.duration,
            mss=workload.mss,
            perturbations=workload.perturbations,
            reference_bandwidth_bps=workload.reference_bandwidth_bps,
        )
        generator.install()
        self.generators.append(generator)
        return generator

    def add_flows(self, flows: Sequence[Flow], transport: str = "tcp") -> "StaticFlowSet":
        """Attach an explicit list of flows (used by the fairness experiment)."""
        from repro.traffic.flowgen import StaticFlowSet

        flow_set = StaticFlowSet(self.sim, self.network, flows, transport=transport)
        flow_set.install()
        self.generators.append(flow_set)
        return flow_set

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, until: float, max_events: Optional[int] = None) -> SimulationResult:
        """Run the simulation until ``until`` seconds and collect the results.

        A simulation runs once.  The engine runs with the cycle collector
        paused: the per-packet allocations (packets, their hop lists, heap
        entries) are acyclic, so refcounting frees them, and the collector
        would only rescan the growing live set.  The cyclic garbage the
        network leaves scales with its flows and ports, not its packets, and
        the collector takes it once it is back on.  The result takes the
        tracer's lists and leaves the tracer empty, so a finished run's
        packets are freed by refcounting with the result, not by a later full
        collection of the network's reference cycle.

        Raises:
            SimulationError: if this simulation already ran (a second run
                would return a partial result).
        """
        from repro.sim import flat_live  # imported at the first run, off the import path

        if self._spent:
            raise SimulationError("a Simulation runs once; build a new one to run again")
        self._spent = True
        with paused_gc():
            if flat_live.decline_reason(self, max_events) is None:
                flat_live.run(self, until)
            else:
                self.sim.run(until=until, max_events=max_events)
        flows: List[Flow] = []
        for generator in self.generators:
            flows.extend(getattr(generator, "flows", []))
        tracer = self.tracer
        result = SimulationResult(
            duration=self.sim.now,
            flows=flows,
            delivered_packets=tracer.delivered,
            dropped_packets=tracer.dropped,
            injected_packets=tracer.sent,
        )
        tracer.sent, tracer.delivered, tracer.dropped = [], [], []
        return result
