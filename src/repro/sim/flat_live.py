"""Flat live simulation: closed-loop runs with the routers on the kernel's port model.

A live :class:`~repro.sim.simulation.Simulation` (Figures 2-4: TCP or UDP
flows, finite buffers, send-time slack policies) spends most of its time in
the per-hop machinery — ``OutputPort`` + ``Scheduler`` + ``Router.receive`` +
the engine's heap — that ``_kernel.c``'s ``rec_run`` already runs for
recordings.  Here the kernel runs every port, and everything else stays the
existing Python objects: hosts, transports, flow generators, slack policies
and the tracer.  Each host's one port has its ``enqueue`` intercepted for the
run, so ``Host.send`` keeps its own work (ingress time, the host's hop entry,
the slack stamp, ``notify_ingress``) and then hands the packet to the kernel
at ``sim.now``.  A packet's last-hop delivery is a real event: the kernel
writes its hop timings, ``header.slack`` and ``header.accumulated_wait``
back and calls the destination ``Host.receive``; a drop writes it back and
calls the port's own ``OutputPort._drop``.  On exit every packet still in the
network is written back as the OO engine would leave it (queued, in service
or on a wire), and ``sim.now`` and the sequence counter are left as
``Simulator.run`` leaves them.  Port and scheduler objects are not updated.

Routes, port setup and :func:`decline_reason` stay here; the numbered
contract is ``docs/backends.md#live-simulations``.  Anything declined — no
compiled kernel included — runs on the OO engine, the reference: pin it with
``REPRO_BACKEND=python``.  ``tests/sim/test_flat_live.py`` holds the two to
the same packets, flows and event counts.
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.priority import SjfScheduler
from repro.schedulers.random_sched import RandomScheduler
from repro.schedulers.srpt import (
    SjfStarvationFreeScheduler,
    SrptScheduler,
    _sjf_priority,
    _srpt_priority,
)
from repro.sim import flat_record
from repro.sim.backend import REFERENCE_BACKEND, selected_backend
from repro.sim.compiled import kernel_available, kernel_loop
from repro.sim.engine import SimulationError, Simulator
from repro.sim.node import Host, Router
from repro.sim.port import OutputPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulation import Simulation

logger = logging.getLogger(__name__)

#: The schedulers the kernel runs live, by exact class: the recorder's, and
#: SJF with pFabric starvation prevention on SRPT's per-flow queues.
KINDS = {**flat_record.KINDS, SjfStarvationFreeScheduler: flat_record.KINDS[SrptScheduler]}

#: The flow-aware schedulers' packet priorities (one per network).
_PRIORITIES = {SrptScheduler: _srpt_priority, SjfStarvationFreeScheduler: _sjf_priority}


def log_lines() -> Iterator[List[str]]:
    """The live driver's log lines while the block runs (a context manager):
    one per :meth:`Simulation.run`, saying which loop took it (``ran ...
    events on the flat loop``) or why not (``declined (<reason>); running
    on the OO engine``)."""
    return flat_record.log_lines(logger)


def decline_reason(simulation: "Simulation", max_events: Optional[int] = None) -> Optional[str]:
    """Why ``simulation`` must run on the OO engine, or ``None`` if the flat loop can.

    Decided from the *built* simulation, with its traffic attached; a decline
    is logged.  An unknown or unavailable ``$REPRO_BACKEND`` pin raises as a
    replay's does.
    """
    reason = _decline_reason(simulation, max_events)
    if reason is not None:
        logger.debug("declined (%s); running on the OO engine", reason)
    return reason


def _decline_reason(simulation: "Simulation", max_events: Optional[int]) -> Optional[str]:
    if selected_backend() == REFERENCE_BACKEND:
        return f"backend pinned to {REFERENCE_BACKEND}"
    if max_events is not None:
        return "max_events budget"
    sim, network = simulation.sim, simulation.network
    if type(sim) is not Simulator:
        return f"engine {type(sim).__name__}"
    if network.fault_injector is not None:
        return "faults"
    if any(entry[2] is None for entry in sim._heap):
        return "packets already in flight"
    priorities = set()
    for node in network.nodes.values():
        if type(node) not in (Host, Router):
            return f"node {type(node).__name__} {node.name}"
        if isinstance(node, Host) and len(node.ports) > 1:
            return f"multi-homed host {node.name}"  # could be asked to forward
        for port in node.ports.values():
            scheduler = port.scheduler
            if type(port) is not OutputPort:
                return f"port {type(port).__name__} at {port.link.name}"
            if type(scheduler) not in KINDS:
                return f"scheduler {type(scheduler).__name__} at {port.link.name}"
            if port._current_packet is not None or len(scheduler):
                return f"packets already queued at {port.link.name}"
            priorities.add(_PRIORITIES.get(type(scheduler)))
    if len(priorities - {None}) > 1:
        return "SRPT beside SJF-flow"
    if not kernel_available():
        return "compiled kernel unavailable"
    return None


def run(simulation: "Simulation", until: Optional[float]) -> None:
    """Run ``simulation`` (built, traffic attached, past :func:`decline_reason`)
    until ``until`` as ``Simulator.run(until)`` would, on the flat loop.

    ``Simulator.events_executed_total`` advances by the OO engine's count.
    """
    sim, network = simulation.sim, simulation.network
    if sim._running:
        raise SimulationError("run() is not reentrant")
    port_ids: dict = {}
    specs = []
    priority = key_of = None
    fq = False
    for node in network.nodes.values():
        for port in node.ports.values():
            scheduler = port.scheduler
            kind = KINDS[type(scheduler)]
            port_ids[port] = len(specs)
            receiver = network.nodes[port.link.dst]
            specs.append(
                (
                    kind,
                    port.link.propagation_delay,
                    scheduler._rng.randint if kind == KINDS[RandomScheduler] else None,
                    math.inf if port.buffer_bytes is None else float(port.buffer_bytes),
                    node.name,
                    port._drop,
                    receiver.receive if isinstance(receiver, Host) else None,
                )
            )
            priority = _PRIORITIES.get(type(scheduler), priority)
            if type(scheduler) is SjfScheduler:
                key_of = scheduler.key
            fq = fq or kind == KINDS[FairQueueingScheduler]
    tag_slots: dict = {}  # FQ's per-flow finish tags, one per (port id, flow id)
    hosts = [host for host in network.hosts() if host.ports]

    def install(inject) -> None:
        for host in hosts:
            (port,) = host.ports.values()
            port.enqueue = _intercept(network, port_ids, port, inject, tag_slots if fq else None)

    sim._running = True
    try:
        limit = math.inf if until is None else until
        executed, last = kernel_loop("run_flat_live")(
            sim, sim._heap, specs, install, limit, priority, key_of
        )
    finally:
        sim._running = False
        for host in hosts:
            for port in host.ports.values():
                port.__dict__.pop("enqueue", None)
    Simulator.events_executed_total += executed
    sim.now = last
    if until is not None and sim.now < until:
        sim.now = until
    logger.debug("ran %d events on the flat loop", executed)


def _intercept(network, port_ids: dict, port: OutputPort, inject, tag_slots: Optional[dict]):
    """``port.enqueue`` for the run: route the packet (memoised per
    destination, and per flow under FQ) and hand it to the kernel."""
    routes: dict = {}
    src = port.node.name

    def enqueue(packet) -> None:
        if packet.route:
            inject(packet, *_source_route(network, port_ids, port, packet, tag_slots))
            return
        key = packet.dst if tag_slots is None else (packet.dst, packet.flow_id)
        route = routes.get(key)
        if route is None:
            _, hop_ports, bandwidths = flat_record._route(network, port_ids, src, packet.dst)
            route = routes[key] = _hops(hop_ports, bandwidths, packet.flow_id, tag_slots)
        inject(packet, route)

    return enqueue


def _hops(hop_ports: list, bandwidths: list, flow_id, tag_slots: Optional[dict]) -> tuple:
    """``inject``'s route: port ids, bandwidths and FQ tag slots (``-1``: none)."""
    if tag_slots is None:
        slots = (-1,) * len(hop_ports)
    else:
        slots = tuple(tag_slots.setdefault((port, flow_id), len(tag_slots)) for port in hop_ports)
    return tuple(hop_ports), tuple(bandwidths), slots


def _source_route(network, port_ids: dict, port: OutputPort, packet, tag_slots) -> tuple:
    """``(route, cursors)`` of a source-routed packet: the ports its route
    takes from ``port`` on, each router resolving its next hop as
    ``Router.receive`` would, and its ``route_cursor`` after each hop."""
    cursors = [packet.route_cursor]  # Host.send resolved the first hop
    hop_ports, bandwidths = [port_ids[port]], [port.link.bandwidth_bps]
    node = network.nodes[port.link.dst]
    while isinstance(node, Router):
        next_hop = node.next_hop_for(packet)
        next_port = node.ports.get(next_hop)
        if next_port is None:  # Node._resolve_port's
            raise KeyError(f"{node.name} has no port towards {next_hop}")
        cursors.append(packet.route_cursor)
        hop_ports.append(port_ids[next_port])
        bandwidths.append(next_port.link.bandwidth_bps)
        node = network.nodes[next_port.link.dst]
    packet.route_cursor = cursors[0]
    return _hops(hop_ports, bandwidths, packet.flow_id, tag_slots), tuple(cursors)
