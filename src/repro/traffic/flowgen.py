"""Poisson flow generation.

Each source host originates flows according to a Poisson process; every flow
picks a destination uniformly at random among the other hosts, draws its size
from the workload's heavy-tailed distribution, and is carried by either UDP
(open loop) or the simplified TCP (closed loop).  This mirrors the paper's
"each end host generates UDP flows using a Poisson inter-arrival model" with
"flow sizes picked from a heavy-tailed distribution".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.sim.flow import Flow
from repro.traffic.distributions import FlowSizeDistribution
from repro.traffic.perturb import Perturbation, PerturbationContext
from repro.transport.tcp import start_tcp_flow
from repro.transport.udp import start_udp_flow
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.network import Network


class PoissonFlowGenerator:
    """Generates flows from each source host with exponential inter-arrival times.

    Args:
        sim: Simulation engine.
        network: The network flows are injected into.
        sources: Host names that originate flows (defaults to all hosts).
        destinations: Candidate destination host names (defaults to all hosts;
            a flow never picks its own source as destination).
        arrival_rate_per_source: Poisson rate (flows/second) per source host.
        size_distribution: Flow-size distribution (bytes).
        transport: ``"udp"`` or ``"tcp"``.
        rng: Random source (a child stream is derived per source host).
        start_time: When flow generation begins.
        stop_time: When flow generation ends (flows already started keep
            running until the simulation ends).
        mss: Maximum segment size handed to the transport.
        perturbations: Adversarial perturbation stack (see
            :mod:`repro.traffic.perturb`) applied to the base Poisson
            process: rate modulation, size rewriting, flow annotation, and
            extra injected flows.
        reference_bandwidth_bps: Bandwidth of the workload's reference link,
            passed to perturbations that need it (e.g. deadline tagging).
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        arrival_rate_per_source: float,
        size_distribution: FlowSizeDistribution,
        transport: str = "udp",
        sources: Optional[Sequence[str]] = None,
        destinations: Optional[Sequence[str]] = None,
        rng: Optional[RandomState] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        mss: int = 1460,
        perturbations: Sequence[Perturbation] = (),
        reference_bandwidth_bps: Optional[float] = None,
    ) -> None:
        if arrival_rate_per_source <= 0:
            raise ValueError("arrival rate must be positive")
        if transport not in ("udp", "tcp"):
            raise ValueError(f"transport must be 'udp' or 'tcp', got {transport!r}")

        self.sim = sim
        self.network = network
        self.rate = arrival_rate_per_source
        self.size_distribution = size_distribution
        self.transport = transport
        all_hosts = [host.name for host in network.hosts()]
        self.sources: List[str] = list(sources) if sources is not None else all_hosts
        self.destinations: List[str] = (
            list(destinations) if destinations is not None else all_hosts
        )
        if not self.sources:
            raise ValueError("need at least one source host")
        if len(set(self.destinations)) < 2 and self.destinations == self.sources:
            raise ValueError("need at least two hosts to pick distinct src/dst pairs")
        self.rng = rng if rng is not None else RandomState(0)
        self.start_time = start_time
        self.stop_time = stop_time
        self.mss = mss
        self.perturbations: List[Perturbation] = list(perturbations)
        self.reference_bandwidth_bps = reference_bandwidth_bps

        self.flows: List[Flow] = []
        self.agents: List[object] = []
        self._installed = False
        self._context = PerturbationContext(
            duration=(
                (self.stop_time - self.start_time) if self.stop_time is not None else 0.0
            ),
            reference_bandwidth_bps=reference_bandwidth_bps,
            sources=tuple(self.sources),
            destinations=tuple(self.destinations),
            mss=self.mss,
            start=self.start_time,
        )

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Schedule the first flow arrival at every source host.

        Perturbations that inject extra (adversarial) flows contribute them
        here, before the Poisson stream starts, so flow ids and rng draws
        stay deterministic under a fixed seed regardless of which process
        runs the generator.
        """
        if self._installed:
            raise RuntimeError("flow generator already installed")
        self._installed = True
        for perturbation in self.perturbations:
            for flow in perturbation.extra_flows(self.rng, self._context):
                self.flows.append(flow)
                self._start_flow(flow)
        for source in self.sources:
            if self.perturbations:
                # Rate-modulated process: start the exact piecewise-constant
                # sampler at the window open (it draws the first gap at the
                # then-active rate and resamples at every rate transition).
                self.sim.schedule_at(
                    max(self.sim.now, self.start_time), self._resume, source
                )
            else:
                first_gap = self.rng.exponential(1.0 / self.rate)
                self.sim.schedule_at(
                    max(self.sim.now, self.start_time) + first_gap,
                    self._arrival,
                    source,
                )

    # ------------------------------------------------------------------ #
    # Flow arrivals
    # ------------------------------------------------------------------ #
    def _rate_multiplier(self, time: float) -> float:
        multiplier = 1.0
        for perturbation in self.perturbations:
            multiplier *= perturbation.rate_multiplier(time, self._context)
        return multiplier

    def _next_transition(self, time: float) -> Optional[float]:
        candidates = [
            transition
            for perturbation in self.perturbations
            if (transition := perturbation.next_transition(time, self._context)) is not None
            and transition > time
        ]
        return min(candidates) if candidates else None

    def _arrival(self, source: str) -> None:
        if self.stop_time is not None and self.sim.now > self.stop_time:
            return
        multiplier = self._rate_multiplier(self.sim.now)
        if multiplier <= 0.0:
            # Defensive: with gap capping arrivals never land inside a
            # silent window, but a composed multiplier could still be zero
            # at an exact boundary instant.  Treat it as a lost arrival.
            self._skip_to_next_window(source)
            return
        flow = self._create_flow(source)
        self.flows.append(flow)
        self._start_flow(flow)
        self._schedule_next_arrival(source)

    def _schedule_next_arrival(self, source: str) -> None:
        """Sample the next arrival of the (piecewise-constant) rate process.

        The gap is drawn at the currently active rate; if it would cross the
        next rate transition, the draw is discarded and resampled *at* the
        transition — exact for piecewise-constant rates by memorylessness.
        Landing an arrival on the boundary itself would instead synchronize
        every source into a burst the perturbation model never specified.
        """
        multiplier = self._rate_multiplier(self.sim.now)
        if multiplier <= 0.0:
            self._skip_to_next_window(source)
            return
        gap = self.rng.exponential(1.0 / (self.rate * multiplier))
        transition = self._next_transition(self.sim.now)
        if transition is not None and self.sim.now + gap > transition:
            self.sim.schedule_at(transition, self._resume, source)
        else:
            self.sim.schedule(gap, self._arrival, source)

    def _skip_to_next_window(self, source: str) -> None:
        transition = self._next_transition(self.sim.now)
        if transition is not None and (
            self.stop_time is None or transition <= self.stop_time
        ):
            self.sim.schedule_at(transition, self._resume, source)

    def _resume(self, source: str) -> None:
        """(Re)start the rate process at a window boundary or the window open."""
        if self.stop_time is not None and self.sim.now > self.stop_time:
            return
        self._schedule_next_arrival(source)

    def _create_flow(self, source: str) -> Flow:
        destination = self._pick_destination(source)
        size = self.size_distribution.sample(self.rng)
        for perturbation in self.perturbations:
            size = perturbation.transform_size(size, self.rng, self._context)
        flow = Flow(
            src=source,
            dst=destination,
            size_bytes=size,
            start_time=self.sim.now,
            mss=self.mss,
        )
        for perturbation in self.perturbations:
            perturbation.annotate_flow(flow, self.rng, self._context)
        return flow

    def _pick_destination(self, source: str) -> str:
        candidates = [name for name in self.destinations if name != source]
        if not candidates:
            raise RuntimeError(f"no destination available for source {source}")
        return self.rng.choice(candidates)

    def _start_flow(self, flow: Flow) -> None:
        if self.transport == "udp":
            agent = start_udp_flow(self.sim, self.network, flow)
        else:
            agent = start_tcp_flow(self.sim, self.network, flow)
        self.agents.append(agent)


class StaticFlowSet:
    """A fixed, explicitly listed set of flows (used by the fairness experiment).

    Args:
        sim: Simulation engine.
        network: Target network.
        flows: Flows to start (their ``start_time`` fields are honored).
        transport: ``"udp"`` or ``"tcp"``.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        flows: Sequence[Flow],
        transport: str = "tcp",
    ) -> None:
        if transport not in ("udp", "tcp"):
            raise ValueError(f"transport must be 'udp' or 'tcp', got {transport!r}")
        self.sim = sim
        self.network = network
        self.flows: List[Flow] = list(flows)
        self.transport = transport
        self.agents: List[object] = []
        self._installed = False

    def install(self) -> None:
        """Start every flow's transport agent."""
        if self._installed:
            raise RuntimeError("flow set already installed")
        self._installed = True
        starter: Callable = start_udp_flow if self.transport == "udp" else start_tcp_flow
        for flow in self.flows:
            self.agents.append(starter(self.sim, self.network, flow))
