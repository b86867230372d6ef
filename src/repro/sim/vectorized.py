"""Flat replay kernel: the OO engine's event loop, specialized for replay.

This module is the inner loop of the ``"vectorized"`` backend
(:mod:`repro.core.replay_vectorized`) and the executable specification of the
C kernel (``_kernel.c``), which runs the same loop without the fault branches:
``vectorized`` is ``compiled`` without a compiler, plus fault plans.  The
replay path has a much smaller state space than the general simulator — no
transports, no buffer drops (infinite buffers), no preemption, source-routed
packets whose ingress times, sizes, routes, and header keys are all known up
front — so the whole OO object graph (``Simulator`` + ``OutputPort`` +
``Scheduler`` + ``Packet``) collapses into a handful of flat arrays indexed
by *packet-hop* ``f``:

* ``hop_port[f]`` — dense id of the directed port hop ``f`` transmits on,
* ``hop_tx[f]`` / ``hop_prop[f]`` — transmission and propagation delays,
  precomputed (vectorized, in the exact ``bytes * 8 / bw`` float form) by
  the orchestrator,
* ``hop_key[f]`` — the per-hop scheduler key for the static-key modes
  (EDF / priority / omniscient, and the constant ``0.0`` that makes the
  per-port enqueue sequence serve FIFO); LSTF keys are computed inline from
  the dynamic ``slack[j]`` state.

The loop replays the OO engine's choreography *exactly*, so its output is
bit-identical (the cross-backend equivalence suite and the golden-rows
fixtures enforce this).  The load-bearing details, each mirroring a specific
line of the OO code:

* One global heap of ``(time, seq, code)`` triples, the event kind and its
  operand packed into one integer ``code``: hop ``f``'s finish is ``f``,
  the arrival at hop ``fn`` is ``total_hops + fn``, packet ``j``'s
  destination arrival is ``2 * total_hops + j``, the injector cursor sorts
  above them all, and outage toggles above the cursor.  Ordering never
  reaches the third element (sequence numbers are unique), so the packing is
  pure constant-factor.  Injector-cursor events draw sequence numbers from
  the front counter (``-(1 << 62)``, increasing), finish-transmission and
  arrival events from the normal counter — in the same order the OO
  callbacks call ``Simulator.schedule``, so the global event order matches
  tuple-for-tuple, and every event is counted as ``Simulator.run`` counts it.
* On finish-transmission, the downstream *arrival is pushed first* and the
  port's next transmission second (``OutputPort._finish_transmission``
  schedules the receive before calling ``_start_next``), which fixes the
  relative order of those two events when their times tie.  A destination
  arrival goes through the heap like any other, so a budget exhausting
  between a finish and its arrival leaves that packet in flight.
* Per-port priority queues hold ``(key, port_seq, f, enqueue_time)``
  tuples — the same ``(key, sequence)`` ordering as
  ``PriorityScheduler``'s heap, with the per-port sequence counter
  allocated at enqueue time; the owning packet is recovered as
  ``hop_pkt[f]``.  (Binary heaps are order-equivalent to a
  ``numpy.lexsort`` over (key, seq) at every service instant, at O(log q)
  per decision instead of O(q log q).)
* An idle port serves an arriving packet immediately (the OO invariant that
  an idle port's queue is empty makes enqueue-then-dequeue equivalent to
  direct service).  The LSTF dequeue-time slack update ``slack -= now -
  enqueue_time`` is skipped in that case because the wait is exactly
  ``0.0`` and ``x - 0.0`` is bit-identical to ``x`` for every float.
* A fault plan replays ``sim/port.py`` + ``faults/injector.py``.  Outage
  toggles are heap events seeded *after* the injector cursor and before the
  first pop, so toggle ``k`` carries sequence number ``k``
  (``FaultInjector.install``'s order: links sorted, windows sorted, down then
  up) and fires ahead of every same-time packet event.  A down port queues
  arrivals instead of serving them; a down-toggle destroys the packet in
  flight and lazily cancels its finish event, which is later discarded
  *uncounted* (``Simulator.run`` does the same with a cancelled event); an
  up-toggle restarts service through the ordinary dequeue, LSTF's ``slack -=
  now - enqueue_time`` included.  At every finish all of the port's drop
  filters are consulted; a destroyed packet schedules no arrival and
  consumes no sequence number.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple


def run_flat_replay(
    ingress: List[float],
    off: List[int],
    hop_pkt: List[int],
    hop_port: List[int],
    hop_tx: List[float],
    hop_prop: List[float],
    num_ports: int,
    slack: Optional[List[float]],
    hop_key: Optional[List[float]],
    max_events: Optional[int] = None,
    faults: Optional[Sequence[Tuple[int, tuple, List[Tuple[float, float]]]]] = None,
) -> Tuple[List[float], List[float], List[float], List[Optional[float]], int]:
    """Drive one replay to completion over flat per-packet-hop arrays.

    Args:
        ingress: Per-packet ingress times, sorted ascending (record order).
        off: Per-packet offsets into the hop arrays (``off[j]`` is packet
            ``j``'s first hop; ``off[n]`` is the total hop count).
        hop_pkt: Owning packet index of each hop.
        hop_port: Dense directed-port id of each hop.
        hop_tx: Transmission delay of each hop (``bytes * 8 / bandwidth``).
        hop_prop: Propagation delay of each hop's link.
        num_ports: Number of dense port ids.
        slack: LSTF dynamic state (``math.inf`` where the header had no
            slack); ``None`` selects the static-key modes.  Mutated in place.
        hop_key: Static per-hop scheduler key (EDF/priority/omniscient);
            required when ``slack`` is ``None``.
        max_events: Same safety valve as ``Simulator.run(max_events=...)``.
        faults: A compiled fault plan (``FaultPlan.link_faults``, link names
            mapped to port ids): ``(port, drop_filters, outage_windows)`` per
            faulted port, in install order.  ``None`` or empty = fault-free.

    Returns:
        ``(arrival, start_service, departure, egress, executed)`` — per-hop
        timing arrays, per-packet egress times (``None`` if the packet was
        destroyed by a fault, or still in flight when the event budget ran
        out), and the number of events executed.
    """
    n = len(ingress)
    total_hops = off[n] if n else 0
    arr = [0.0] * total_hops
    start = [0.0] * total_hops
    dep = [0.0] * total_hops
    egress: List[Optional[float]] = [None] * n

    lstf = slack is not None
    # Event codes (see the module docstring): finish(f) = f,
    # arrival(fn) = H + fn, destination arrival(j) = H2 + j, injector = INJ,
    # toggle k = INJ + 1 + k — ranges ordered so the hottest branches decode
    # with the fewest comparisons.
    H = total_hops
    H2 = 2 * total_hops
    INJ = H2 + n
    # nxt[f]: the code of the arrival that hop f's finish schedules — the
    # next hop's (H + f + 1), or packet j's destination's (H2 + j) on its
    # last hop.
    nxt = list(range(H + 1, H + total_hops + 1))
    for j in range(n):
        if off[j + 1] > off[j]:
            nxt[off[j + 1] - 1] = H2 + j
    heap: List[tuple] = []
    push = heappush
    pop = heappop
    port_heaps: List[List[tuple]] = [[] for _ in range(num_ports)]
    port_seq = [0] * num_ports
    seq = 0                  # Simulator._sequence: finish + arrival events
    fseq = -(1 << 62)        # Simulator._front_sequence: injector cursor
    cursor = 0
    executed = 0
    budget = float("inf") if max_events is None else max_events

    # ReplayInjector.install(): arm the cursor at the first ingress time
    # (an empty replay arms nothing; a fault plan's toggles still fire).
    if n:
        push(heap, (ingress[0], fseq, INJ))
        fseq += 1

    # ``cur[p]`` is the whole transmitter state of port p: the hop in flight,
    # IDLE, or DOWN (a down port is never in service, so the three are
    # exclusive).  A finish event is live iff its hop is still the one in
    # flight — a down-toggle overwrites ``cur[p]``, which is the lazy cancel.
    IDLE, DOWN = -1, -2
    cur = [IDLE] * num_ports
    filters: List[tuple] = [()] * num_ports
    toggle_port: List[int] = []
    # FaultInjector.install(): outage toggles are scheduled after the cursor
    # is armed and before the run, so they take sequence numbers 0..2W-1 —
    # links in plan order, windows sorted, down then up.
    for p, port_filters, windows in faults or ():
        filters[p] = port_filters
        for down_at, up_at in windows:
            for when in (down_at, up_at):
                push(heap, (when, seq, INJ + 1 + seq))  # toggle k: seq == k so far
                seq += 1
                toggle_port.append(p)

    while heap and executed < budget:
        t, _s, code = pop(heap)
        executed += 1

        if code < H:
            f = code
            p = hop_port[f]
            if cur[p] != f:
                # Cancelled by a down-toggle (OutputPort.fault_interrupt):
                # Simulator.run discards a cancelled event uncounted.
                executed -= 1
                continue
            # OutputPort._finish_transmission for hop f on its port.
            dep[f] = t
            # PortFaultState.intercepts: every filter is consulted (stateful
            # ones advance once per packet); the shipped kinds ignore the
            # packet argument.
            destroyed = False
            for drop in filters[p]:
                if drop(None, t):
                    destroyed = True
            if not destroyed:
                # Receive is scheduled *before* the port picks its next
                # packet; a destroyed packet schedules nothing.
                push(heap, (t + hop_prop[f], seq, nxt[f]))
                seq += 1
            ph = port_heaps[p]
            if ph:
                _k, _s2, f2, et = pop(ph)
                if lstf:
                    slack[hop_pkt[f2]] -= t - et
                start[f2] = t
                cur[p] = f2
                push(heap, (t + hop_tx[f2], seq, f2))
                seq += 1
            else:
                cur[p] = IDLE

        elif code < H2:
            # Link delivery at a router: Router.receive.
            fn = code - H
            arr[fn] = t
            p = hop_port[fn]
            if lstf:
                key = (slack[hop_pkt[fn]] + t) + hop_tx[fn]
            else:
                key = hop_key[fn]
            s = port_seq[p]
            port_seq[p] = s + 1
            if cur[p] != IDLE:
                # Busy, or down: a down port holds its queue.
                push(port_heaps[p], (key, s, fn, t))
            else:
                # Idle port: the queue is empty, serve immediately.
                start[fn] = t
                cur[p] = fn
                push(heap, (t + hop_tx[fn], seq, fn))
                seq += 1

        elif code < INJ:
            # Link delivery at the destination: Host.receive.
            egress[code - H2] = t

        elif code == INJ:
            # ReplayInjector._advance: inject every record due now, then
            # re-arm the cursor at the next ingress time (front sequence).
            while cursor < n and ingress[cursor] <= t:
                j = cursor
                cursor += 1
                fn = off[j]
                arr[fn] = t
                p = hop_port[fn]
                if lstf:
                    key = (slack[j] + t) + hop_tx[fn]
                else:
                    key = hop_key[fn]
                s = port_seq[p]
                port_seq[p] = s + 1
                if cur[p] != IDLE:
                    push(port_heaps[p], (key, s, fn, t))
                else:
                    start[fn] = t
                    cur[p] = fn
                    push(heap, (t + hop_tx[fn], seq, fn))
                    seq += 1
            if cursor < n:
                push(heap, (ingress[cursor], fseq, INJ))
                fseq += 1

        else:
            # Outage toggle k (its code is INJ + 1 + k; even = down, odd = up).
            k = code - INJ - 1
            p = toggle_port[k]
            if not k & 1:
                # FaultInjector._link_down: the packet in flight is destroyed
                # (its finish event is now stale) and the queue is held; a
                # port already down stays as it is.
                cur[p] = DOWN
            elif cur[p] == DOWN:
                # FaultInjector._link_up -> OutputPort._start_next: the LSTF
                # dequeue charges the whole wait, outage included.
                ph = port_heaps[p]
                if ph:
                    _k, _s2, f2, et = pop(ph)
                    if lstf:
                        slack[hop_pkt[f2]] -= t - et
                    start[f2] = t
                    cur[p] = f2
                    push(heap, (t + hop_tx[f2], seq, f2))
                    seq += 1
                else:
                    cur[p] = IDLE

    return arr, start, dep, egress, executed
