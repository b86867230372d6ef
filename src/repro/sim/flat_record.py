"""Flat recording loop: the OO engine's event loop, specialized for open-loop originals.

The paper's replay experiments record their originals from *open-loop UDP*
traffic, so nothing the network does feeds back into what is offered to it.
For those recordings the object graph the OO engine walks per hop
(``Packet`` + ``HopRecord`` + ``OutputPort`` + ``Scheduler`` + ``Event``)
collapses into flat lists indexed by *packet-hop* ``f``, as
:mod:`repro.sim.vectorized` does for replay — but the traffic is **not**
known up front: the loop drains the built simulation's own event heap, runs
the real :class:`~repro.traffic.flowgen.PoissonFlowGenerator` callbacks
(same rng draws, same :class:`~repro.sim.flow.Flow` objects and ids) and
intercepts exactly one callback, the bound ``UdpSource._emit_packets``, to
create that flow's packets as rows of growing columns.  The result is the
table :meth:`Schedule.from_tracer` would have built, value for value
(``tests/sim/test_flat_record.py`` holds the saved bytes equal), because the
loop reproduces the OO choreography tuple for tuple; the numbered contract
is in ``docs/backends.md#recording``.  What reading the code needs of it:

* The loop's own events are ``(time, seq, code)`` triples on the simulator's
  heap beside the generator's ``(time, seq, event, callback, args)``
  entries, ``seq`` drawn from the simulator's counter — unique, so ordering
  never reaches the third element.  Hop ``f``'s finish is ``code = f``, the
  link delivery at hop ``f`` is ``~f``.
* A route is the chain of ``routing.next_hop(node, dst)`` the per-node
  forwarding tables follow, *not* ``routing.path(src, dst)``: they differ
  under equal-cost alternatives.

Per-port queues are a ``deque`` (FIFO), a list (LIFO), a
``(float(flow_size), enqueue_seq, hop)`` heap (SJF) or a list popped at the
port scheduler's own ``_rng.randint(0, n)`` when ``n > 1`` (Random).
Anything else — see :func:`decline_reason` — records on the OO engine, which
stays the reference: pin it with ``REPRO_BACKEND=python``.  Flow- and
port-level bookkeeping counters (``Flow.bytes_sent``,
``OutputPort.packets_transmitted``, ...) are not maintained: the simulation
is spent when the recording returns.
"""

from __future__ import annotations

import logging
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.lifo import LifoScheduler
from repro.schedulers.priority import SjfScheduler
from repro.schedulers.random_sched import RandomScheduler
from repro.sim.backend import REFERENCE_BACKEND, pinned_backend_name
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.transport.udp import UdpSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sim)
    from repro.core.schedule import ScheduleColumns
    from repro.sim.simulation import Simulation

logger = logging.getLogger(__name__)

_RANDOM, _FIFO, _LIFO, _SJF = range(4)

#: The schedulers the loop reimplements, matched by exact class (a subclass
#: may override anything).
_KINDS = {
    RandomScheduler: _RANDOM,
    FifoScheduler: _FIFO,
    LifoScheduler: _LIFO,
    SjfScheduler: _SJF,
}


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

    Decided from the *built* simulation — never by building a second one,
    which would consume a stateful scheduler factory's child streams twice.
    A decline is logged (DEBUG, one line); the reason strings are part of
    the contract ``tests/sim/test_flat_record.py`` asserts.
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
    if network.slack_policy is not None:
        return "live slack policy"
    if network.fault_injector is not None:
        return "record-time faults"
    for node in network.nodes.values():
        if isinstance(node, Host) and len(node.ports) > 1:
            return f"multi-homed host {node.name}"  # could be asked to forward
        for port in node.ports.values():
            if port.buffer_bytes is not None:
                return f"finite buffer at {port.link.name}"
            if type(port.scheduler) not in _KINDS:
                return f"scheduler {type(port.scheduler).__name__} at {port.link.name}"
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
    heap = sim._heap
    push, pop = heappush, heappop
    emit_packets = UdpSource._emit_packets
    packet_ids = sim.packet_ids

    # Dense directed-port ids and per-port state.
    port_ids: dict = {}
    prop, kind, queue, randint = [], [], [], []
    for node in network.nodes.values():
        for port in node.ports.values():
            port_ids[port] = len(prop)
            prop.append(port.link.propagation_delay)
            scheduler = port.scheduler
            kind.append(_KINDS[type(scheduler)])
            queue.append(deque() if kind[-1] == _FIFO else [])
            randint.append(scheduler._rng.randint if kind[-1] == _RANDOM else None)
    busy = [False] * len(prop)
    sjf = _SJF in kind
    routes: dict = {}

    # Per-hop working state beside the four per-hop columns: the port hop f
    # transmits on, its transmission delay, its SJF key (kept only when some
    # port runs SJF), and its packet's row if f is that packet's last hop
    # (else -1).
    hop_port, hop_tx, hop_key, hop_last = [], [], [], []
    arrival, start, departure = cols.hop_arrival, cols.hop_start_service, cols.hop_departure
    output = cols.output_time

    seq = sim._sequence
    enqueued = 0        # PriorityScheduler._sequence, one counter for all ports
    generator_events = 0
    while heap:
        entry = pop(heap)
        try:
            t, _, code = entry
        except ValueError:
            # One of the simulation's own events: a generator callback, run
            # as is, or a UDP source's emission, intercepted below.
            t, _, _, callback, args = entry
            generator_events += 1
            if getattr(callback, "__func__", None) is not emit_packets:
                sim.now = t
                sim._sequence = seq
                callback(*args)
                seq = sim._sequence
                continue
            # UdpSource._emit_packets + Host.send, for the whole flow.
            flow = callback.__self__.flow
            src, dst = flow.src, flow.dst
            route = routes.get((src, dst))
            if route is None:  # the walk, plus its per-hop tx delays by packet size
                route = routes[src, dst] = (*_route(network, port_ids, src, dst), {})
            path, ports, bandwidths, tx_by_size = route
            sizes = flow.packet_sizes()
            for size in set(sizes):
                if size not in tx_by_size:
                    tx_by_size[size] = [size * 8 / bandwidth for bandwidth in bandwidths]
            count, hops = len(sizes), len(ports)
            row, first = len(output), len(arrival)
            cols.packet_id.extend(islice(packet_ids, count))
            cols.flow_id.extend([flow.flow_id] * count)
            cols.src.extend([src] * count)
            cols.dst.extend([dst] * count)
            cols.size_bytes.extend(sizes)
            cols.ingress_time.extend([t] * count)
            output.extend([None] * count)
            cols.path.extend([path] * count)
            cols.flow_size_bytes.extend([flow.size_bytes] * count)
            cols.deadline.extend([flow.deadline] * count)
            cols.hop_offset.extend(range(first + hops, first + hops * count + 1, hops))
            cols.hop_node.extend(path[:-1] * count)
            # Placeholders, overwritten as each hop happens — except a first
            # hop's arrival, and its service start on an idle port, which
            # *are* ``t``.
            for column in (arrival, start, departure):
                column.extend([t] * (hops * count))
            hop_port.extend(ports * count)
            for size in sizes:
                hop_tx.extend(tx_by_size[size])
            if sjf:
                hop_key.extend([float(flow.size_bytes)] * (hops * count))
            hop_last.extend([-1] * (hops * count))
            hop_last[first + hops - 1 :: hops] = range(row, row + count)
            p = ports[0]
            for f in range(first, first + hops * count, hops):
                if not busy[p]:
                    busy[p] = True
                    push(heap, (t + hop_tx[f], seq, f))
                    seq += 1
                elif kind[p] == _SJF:
                    push(queue[p], (hop_key[f], enqueued, f))
                    enqueued += 1
                else:
                    queue[p].append(f)
            continue

        if code >= 0:
            # OutputPort._finish_transmission for hop f on its port.
            departure[code] = t
            p = hop_port[code]
            row = hop_last[code]
            # The receive is posted *before* the port picks its next packet;
            # a last hop settles at the destination directly (same time,
            # same sequence-number consumption, same event count).
            if row < 0:
                push(heap, (t + prop[p], seq, ~(code + 1)))
            else:
                output[row] = t + prop[p]
            seq += 1
            q = queue[p]
            if q:
                k = kind[p]
                if k == _RANDOM:
                    n = len(q)
                    f = q.pop(randint[p](0, n)) if n > 1 else q.pop()
                elif k == _FIFO:
                    f = q.popleft()
                elif k == _LIFO:
                    f = q.pop()
                else:
                    f = pop(q)[2]
                start[f] = t
                push(heap, (t + hop_tx[f], seq, f))
                seq += 1
            else:
                busy[p] = False
        else:
            # Link delivery at a router: Router.receive + OutputPort.enqueue.
            f = ~code
            arrival[f] = t
            p = hop_port[f]
            if not busy[p]:
                start[f] = t
                busy[p] = True
                push(heap, (t + hop_tx[f], seq, f))
                seq += 1
            elif kind[p] == _SJF:
                push(queue[p], (hop_key[f], enqueued, f))
                enqueued += 1
            else:
                queue[p].append(f)

    # Every hop ends in one finish event and one delivery event (the settled
    # destination arrival, for a last hop); a first hop's arrival is part of
    # its flow's emission, which is a generator event.
    executed = generator_events + 2 * len(arrival)
    Simulator.events_executed_total += executed
    logger.debug("recorded %d packets / %d events on the flat loop", len(output), executed)
