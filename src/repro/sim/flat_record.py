"""Flat recording: the OO engine's event loop for open-loop originals, in C.

The paper's replay experiments record their originals from *open-loop UDP*
traffic, so nothing the network does feeds back into what is offered to it.
For those recordings the per-hop object graph of the OO engine (``Packet``
with its flat ``hops`` list + ``OutputPort`` + ``Scheduler`` + ``Event``)
collapses into arrays indexed by packet-hop, and ``_kernel.c``'s
``run_flat_record`` runs the hop events on its own heap, merged by ``(time,
seq)`` with the generator entries left on the simulator's heap.  Python is
re-entered for the real
:class:`~repro.traffic.flowgen.PoissonFlowGenerator` callbacks (same rng
draws, same :class:`~repro.sim.flow.Flow` objects and ids; ``sim.now`` and
the sequence counter handed across), for a contended Random port's own
``_rng.randint`` and for ``emit`` — the one intercepted callback, the bound
``UdpSource._emit_packets`` — which appends the flow's per-packet columns.
Routes, port setup and :func:`decline_reason` stay here.  The result is the
table :meth:`Schedule.from_tracer` would have built, value for value
(``tests/sim/test_flat_record.py`` holds the saved bytes equal); the
numbered contract is ``docs/backends.md#recording``.  Anything declined —
no compiled kernel included — records on the OO engine, the reference: pin
it with ``REPRO_BACKEND=python``.  Flow-level bookkeeping
(``Flow.bytes_sent``, ...) is not kept: the simulation is spent afterwards.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.core.slack import ConstantSlackPolicy, FlowSizeSlackPolicy
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.fifo_plus import FifoPlusScheduler
from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.lifo import LifoScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.priority import SjfScheduler
from repro.schedulers.random_sched import RandomScheduler
from repro.schedulers.srpt import SrptScheduler
from repro.sim.backend import REFERENCE_BACKEND, pinned_backend_name
from repro.sim.compiled import kernel_available, kernel_loop
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.transport.udp import UdpSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sim)
    from repro.core.schedule import ScheduleColumns
    from repro.sim.simulation import Simulation

logger = logging.getLogger(__name__)

#: The schedulers the kernel reimplements, matched by exact class (a subclass
#: may override anything), numbered as ``_kernel.c``'s port kinds ``K_*``.
#: SJF's kind is the static-key queue, which replays EDF, priority and omniscient keys too.
KINDS = {
    RandomScheduler: 0,
    FifoScheduler: 1,
    LifoScheduler: 2,
    SrptScheduler: 3,
    SjfScheduler: 4,
    LstfScheduler: 5,
    FifoPlusScheduler: 6,
    FairQueueingScheduler: 7,
}

#: The live slack policies whose stamp is a per-flow constant.
_POLICIES = (ConstantSlackPolicy, FlowSizeSlackPolicy)


@contextmanager
def log_lines() -> Iterator[List[str]]:
    """The recorder's log lines while the block runs: one per ``record_schedule``
    call, saying which loop took it (``recorded ... on the flat loop``) or why
    not (``declined (<reason>); recording on the OO engine``)."""
    lines: List[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append(record.getMessage())  # type: ignore[method-assign]
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield lines
    finally:
        logger.setLevel(level)
        logger.removeHandler(handler)


def decline_reason(simulation: "Simulation", max_events: Optional[int] = None) -> Optional[str]:
    """Why ``simulation`` must record on the OO engine, or ``None`` if the flat loop can.

    Decided from the *built* simulation (a second build would consume a
    stateful scheduler factory's child streams twice); a decline is logged.
    """
    reason = _decline_reason(simulation, max_events)
    if reason is not None:
        logger.debug("declined (%s); recording on the OO engine", reason)
    return reason


def _decline_reason(simulation: "Simulation", max_events: Optional[int]) -> Optional[str]:
    if pinned_backend_name() == REFERENCE_BACKEND:
        return f"backend pinned to {REFERENCE_BACKEND}"
    if max_events is not None:
        return "max_events budget"
    network = simulation.network
    if any(generator.transport != "udp" for generator in simulation.generators):
        return "closed-loop transport"
    policy = network.slack_policy
    if policy is not None and type(policy) not in _POLICIES:
        return f"live slack policy {type(policy).__name__}"
    if network.fault_injector is not None:
        return "record-time faults"
    for node in network.nodes.values():
        if isinstance(node, Host) and len(node.ports) > 1:
            return f"multi-homed host {node.name}"  # could be asked to forward
        for port in node.ports.values():
            if port.buffer_bytes is not None:
                return f"finite buffer at {port.link.name}"
            if type(port.scheduler) not in KINDS:
                return f"scheduler {type(port.scheduler).__name__} at {port.link.name}"
    if not kernel_available():
        return "compiled kernel unavailable"
    return None


def _route(network, port_ids: dict, src: str, dst: str) -> tuple:
    """``(path, port ids, bandwidths)`` of the walk the forwarding tables take.

    Raises exactly what the OO engine's first packet of the pair would:
    ``TypeError`` for a non-host source, ``RoutingError`` when there is no
    route or ``src`` is already the destination.
    """
    network.host(src)
    next_hop = network.routing.next_hop
    path, ports, bandwidths = [src], [], []
    while path[-1] != dst or not ports:
        node = path[-1]
        path.append(next_hop(node, dst))
        port = network.nodes[node].ports[path[-1]]
        ports.append(port_ids[port])
        bandwidths.append(port.link.bandwidth_bps)
    return tuple(path), ports, bandwidths


def record_into(simulation: "Simulation", cols: "ScheduleColumns") -> None:
    """Run ``simulation`` to completion, appending its schedule to ``cols``.

    ``simulation`` must be built, have its traffic attached, and have passed
    :func:`decline_reason`.  ``cols`` (empty) ends up in canonical
    ``(ingress_time, packet_id)`` order, because that is emission order, and
    ``Simulator.events_executed_total`` advances by the OO engine's count.
    """
    sim = simulation.sim
    network = simulation.network
    packet_ids = sim.packet_ids
    policy = network.slack_policy

    # Dense directed-port ids: (kind, propagation delay, Random's randint).
    port_ids: dict = {}
    ports = []
    for node in network.nodes.values():
        for port in node.ports.values():
            port_ids[port] = len(ports)
            scheduler = port.scheduler
            kind = KINDS[type(scheduler)]
            randint = scheduler._rng.randint if kind == KINDS[RandomScheduler] else None
            ports.append((kind, port.link.propagation_delay, randint))
    stamped = policy is not None and any(kind == KINDS[LstfScheduler] for kind, _, _ in ports)
    routes: dict = {}

    def emit(source: UdpSource, t: float) -> tuple:
        # UdpSource._emit_packets + Host.send, for the whole flow: its rows'
        # per-packet columns here, its hops in the kernel.
        flow = source.flow
        src, dst = flow.src, flow.dst
        route = routes.get((src, dst))
        if route is None:
            route = routes[src, dst] = _route(network, port_ids, src, dst)
        path, hop_ports, bandwidths = route
        sizes = flow.packet_sizes()
        count, hops = len(sizes), len(hop_ports)
        first = cols.hop_offset[-1]
        cols.packet_id.extend(islice(packet_ids, count))
        cols.flow_id.extend([flow.flow_id] * count)
        cols.src.extend([src] * count)
        cols.dst.extend([dst] * count)
        cols.size_bytes.extend(sizes)
        cols.ingress_time.extend([t] * count)
        cols.path.extend([path] * count)
        cols.flow_size_bytes.extend([flow.size_bytes] * count)
        cols.deadline.extend([flow.deadline] * count)
        cols.hop_offset.extend(range(first + hops, first + hops * count + 1, hops))
        cols.hop_node.extend(path[:-1] * count)
        stamp = None  # the policy's stamp in Host.send
        if stamped:
            constant = type(policy) is ConstantSlackPolicy
            stamp = policy.slack if constant else flow.size_bytes * policy.scale
        return sizes, hop_ports, bandwidths, flow.size_bytes, stamp

    run = kernel_loop("run_flat_record")
    hop_columns, executed = run(sim, sim._heap, emit, UdpSource._emit_packets, ports)
    cols.hop_arrival, cols.hop_start_service, cols.hop_departure, cols.output_time = hop_columns
    Simulator.events_executed_total += executed
    packets = len(cols.output_time)
    logger.debug("recorded %d packets / %d events on the flat loop", packets, executed)
