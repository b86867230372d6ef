"""Flat recording loop: the OO engine's event loop, specialized for open-loop originals.

The paper's replay experiments record their originals from *open-loop UDP*
traffic, so nothing the network does feeds back into what is offered to it.
For those recordings the object graph the OO engine walks per hop
(``Packet`` + ``HopRecord`` + ``OutputPort`` + ``Scheduler`` + ``Event``)
collapses into flat lists indexed by *packet-hop* ``f``, as
the compiled replay kernel does for replay (:mod:`repro.core.replay_compiled`) — but the traffic is **not**
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

Per-port queues are a ``deque`` (FIFO), a list (LIFO), a list popped at the
port scheduler's own ``_rng.randint(0, n)`` when ``n > 1`` (Random), a dict
of flow -> ``deque`` of ``(float(remaining flow bytes), hop)`` served by
least queued priority, first-inserted flow on a tie (SRPT), or a
``(key, enqueue_seq, hop)`` heap keyed as the scheduler's ``key`` would:
``float(flow_size)`` (SJF), ``slack + t + tx`` with the slack charged its
wait on dequeue (LSTF), ``t - accumulated wait`` (FIFO+), or an SCFQ finish
tag that advances the port's virtual time when served (FQ, which tags an
arrival served at once too).  A live ``ConstantSlackPolicy`` /
``FlowSizeSlackPolicy`` becomes a per-row initial slack.  Anything else —
see :func:`decline_reason` — records on the OO engine, which stays the
reference: pin it with ``REPRO_BACKEND=python``.  Flow-level bookkeeping
(``Flow.bytes_sent``, ``Flow.packets_sent``, ...) is not maintained: the
simulation is spent when the recording returns.
"""

from __future__ import annotations

import logging
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import islice
from math import inf
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
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.transport.udp import UdpSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sim)
    from repro.core.schedule import ScheduleColumns
    from repro.sim.simulation import Simulation

logger = logging.getLogger(__name__)

# Kinds above _SRPT keep a keyed heap; the rest append to a deque or list.
_RANDOM, _FIFO, _LIFO, _SRPT, _SJF, _LSTF, _FIFO_PLUS, _FQ = range(8)

#: The schedulers the loop reimplements, matched by exact class (a subclass
#: may override anything).
_KINDS = {
    RandomScheduler: _RANDOM,
    FifoScheduler: _FIFO,
    LifoScheduler: _LIFO,
    SrptScheduler: _SRPT,
    SjfScheduler: _SJF,
    LstfScheduler: _LSTF,
    FifoPlusScheduler: _FIFO_PLUS,
    FairQueueingScheduler: _FQ,
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
    policy = network.slack_policy

    # Dense directed-port ids and per-port state; an FQ port also keeps its
    # virtual time and its flows' last finish tags.
    port_ids: dict = {}
    prop, kind, queue, randint, tags = [], [], [], [], []
    for node in network.nodes.values():
        for port in node.ports.values():
            port_ids[port] = len(prop)
            prop.append(port.link.propagation_delay)
            scheduler = port.scheduler
            k = _KINDS[type(scheduler)]
            kind.append(k)
            queue.append(deque() if k == _FIFO else {} if k == _SRPT else [])
            randint.append(scheduler._rng.randint if k == _RANDOM else None)
            tags.append({} if k == _FQ else None)
    busy = [False] * len(prop)
    virtual_time = [0.0] * len(prop)
    sjf, srpt, lstf, fifo_plus = (k in kind for k in (_SJF, _SRPT, _LSTF, _FIFO_PLUS))
    rowed = srpt or lstf or fifo_plus or _FQ in kind
    routes: dict = {}

    # Per-hop working state beside the four per-hop columns: the port hop f
    # transmits on, its transmission delay, its SJF key (kept only when some
    # port runs SJF), its packet's row if f is that packet's last hop (else
    # -1), and its packet's row (kept only when some port keys by the row).
    hop_port, hop_tx, hop_key, hop_last, hop_row = [], [], [], [], []
    arrival, start, departure = cols.hop_arrival, cols.hop_start_service, cols.hop_departure
    output, packet_flow, packet_size = cols.output_time, cols.flow_id, cols.size_bytes
    # Per-row header state, each kept only when some port reads it: LSTF's
    # slack, FIFO+'s accumulated wait and SRPT's remaining-bytes priority.
    slack, waited, priority = [], [], []

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
            packet_flow.extend([flow.flow_id] * count)
            cols.src.extend([src] * count)
            cols.dst.extend([dst] * count)
            packet_size.extend(sizes)
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
            if rowed:
                for r in range(row, row + count):
                    hop_row.extend([r] * hops)
            if lstf:  # the policy's stamp in Host.send
                if policy is None:
                    stamp = None
                elif type(policy) is ConstantSlackPolicy:
                    stamp = policy.slack
                else:
                    stamp = flow.size_bytes * policy.scale
                slack.extend([stamp] * count)
            if fifo_plus:
                waited.extend([0.0] * count)
            if srpt:
                remaining = flow.size_bytes
                for size in sizes:
                    priority.append(float(remaining))
                    remaining -= size
            arriving = range(first, first + hops * count, hops)
        else:
            if code < 0:
                # Link delivery at a router: Router.receive, then the
                # enqueue below.
                f = ~code
                arrival[f] = t
                arriving = (f,)
            else:
                # OutputPort._finish_transmission for hop f on its port.
                departure[code] = t
                p = hop_port[code]
                row = hop_last[code]
                # The receive is posted *before* the port picks its next
                # packet; a last hop settles at the destination directly
                # (same time, same sequence-number consumption, same event
                # count).
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
                    elif k == _SRPT:
                        # The flow whose least queued priority is strictly
                        # the least; the first-inserted flow wins a tie.
                        best = None
                        for flow_id, flow_queue in q.items():
                            least = min(flow_queue)[0]
                            if best is None or least < best_least:
                                best, best_least = flow_id, least
                        flow_queue = q[best]
                        f = flow_queue.popleft()[1]
                        if not flow_queue:
                            del q[best]
                    else:
                        key, _, f = pop(q)
                        if k == _LSTF:  # the slack pays for the wait
                            r = hop_row[f]
                            if slack[r] is not None:
                                slack[r] -= t - arrival[f]
                        elif k == _FQ and key > virtual_time[p]:
                            virtual_time[p] = key
                    if fifo_plus:  # OutputPort._start_next, on every port
                        waited[hop_row[f]] += t - arrival[f]
                    start[f] = t
                    push(heap, (t + hop_tx[f], seq, f))
                    seq += 1
                else:
                    busy[p] = False
                continue

        # OutputPort.enqueue for each arriving hop f.
        for f in arriving:
            p = hop_port[f]
            k = kind[p]
            if k > _SRPT:  # the key the port's scheduler computes on enqueue
                if k == _SJF:
                    key = hop_key[f]
                elif k == _LSTF:
                    stamp = slack[hop_row[f]]
                    key = inf if stamp is None else stamp + t + hop_tx[f]
                elif k == _FIFO_PLUS:
                    key = t - waited[hop_row[f]]
                else:  # SCFQ tags every arrival, one served at once too
                    r = hop_row[f]
                    flow_id, flow_tags = packet_flow[r], tags[p]
                    # Weight 1.0: a UDP source never sets Packet.flow_weight.
                    key = max(virtual_time[p], flow_tags.get(flow_id, 0.0)) + packet_size[r]
                    flow_tags[flow_id] = key
            if not busy[p]:
                if k == _FQ and key > virtual_time[p]:
                    virtual_time[p] = key
                start[f] = t
                busy[p] = True
                push(heap, (t + hop_tx[f], seq, f))
                seq += 1
            elif k > _SRPT:
                push(queue[p], (key, enqueued, f))
                enqueued += 1
            elif k == _SRPT:
                r = hop_row[f]
                flow_queue = queue[p].get(packet_flow[r])
                if flow_queue is None:
                    flow_queue = queue[p][packet_flow[r]] = deque()
                flow_queue.append((priority[r], f))
            else:
                queue[p].append(f)

    # Every hop ends in one finish event and one delivery event (the settled
    # destination arrival, for a last hop); a first hop's arrival is part of
    # its flow's emission, which is a generator event.
    executed = generator_events + 2 * len(arrival)
    Simulator.events_executed_total += executed
    logger.debug("recorded %d packets / %d events on the flat loop", len(output), executed)
