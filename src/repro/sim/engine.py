"""A minimal, fast discrete-event simulation engine.

The engine keeps a heap of scheduled callbacks and executes them in time
order.  It is the substrate on which the packet-level network simulator
(routers, links, transport protocols, traffic generators) is built,
replacing the ns-2 simulator used by the paper.

Hot-path design notes (this loop executes once per packet-hop-event, so the
constant factor is the whole game — the same argument the paper makes for
LSTF's per-packet cost in Section 5):

* Heap entries are plain ``(time, sequence, event, callback, args)`` tuples.
  CPython compares tuples of floats/ints entirely in C (the unique sequence
  number settles every comparison), so sift operations never call back into
  Python.  ``event`` is the cancellation token
  (:class:`~repro.sim.events.Event`, one ``cancelled`` slot) and is ``None``
  for events nobody can cancel: an output port pushes its own entries in
  this shape (``repro.sim.port``), drawing ``_sequence`` as
  :meth:`Simulator.schedule` does, and its link deliveries carry ``None``.
* ``run()`` drives the heap directly with ``heappop`` bound to a local.
* Scheduling validation happens once at the API boundary
  (:meth:`schedule`/:meth:`schedule_at`); the loop itself re-validates
  nothing.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.events import Event


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation engine.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=10.0)

    Attributes:
        now: Current simulation time in seconds.  A plain attribute (not a
            property) so hot paths read it without a descriptor call; treat
            it as read-only — only the engine advances it.
        packet_ids: The ids of the packets born in this simulation, from 0:
            whatever emits a packet takes ``next(sim.packet_ids)``.  A replay
            allocates nothing — its packets carry their recorded ids.
        flow_ids: Likewise for flows; a transport numbers its flow when it
            starts it on this simulator.
    """

    #: Process-wide count of events executed across *all* Simulator
    #: instances.  Read (as a before/after delta) by ``benchmarks/perf`` to
    #: count the events a workload executed; updated when ``run()`` returns.
    events_executed_total: int = 0

    def __init__(self) -> None:
        self.now = 0.0
        self.packet_ids = itertools.count()
        self.flow_ids = itertools.count()
        self._heap: List[tuple] = []
        self._sequence = 0
        # Sequence numbers handed out by schedule_at_front(); they stay
        # negative (and increasing) so front events sort before every
        # normally scheduled event at the same timestamp while preserving
        # FIFO order among themselves.
        self._front_sequence = -(1 << 62)
        self._running = False

    def schedule(self, delay: float, callback: Callable[..., Any], *args) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event()
        heappush(self._heap, (time, sequence, event, callback, args))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args) -> Event:
        """Schedule ``callback(*args)`` to run at absolute simulation time ``time``.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.9f}, which is before now ({self.now:.9f})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event()
        heappush(self._heap, (time, sequence, event, callback, args))
        return event

    def schedule_at_front(self, time: float, callback: Callable[..., Any], *args) -> Event:
        """Schedule ahead of every normally scheduled event at ``time``.

        Events scheduled this way fire before every event created by
        :meth:`schedule`/:meth:`schedule_at` for the same timestamp —
        including ones scheduled *earlier* — and in scheduling order among
        themselves: front events draw sequence numbers from a separate,
        negative, increasing range.  The replay injector's streaming cursor
        relies on this, so packet injections at time ``t`` precede every
        simulation event at ``t`` without pre-populating the heap (see
        ``docs/architecture.md#engine-notes-hot-path-semantics``).

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.9f}, which is before now ({self.now:.9f})"
            )
        sequence = self._front_sequence
        self._front_sequence = sequence + 1
        event = Event()
        heappush(self._heap, (time, sequence, event, callback, args))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event; a no-op if it already fired.

        Cancellation is O(1) lazy deletion: the token is only marked, and the
        entry stays in the heap until it surfaces at the head, where
        :meth:`peek_next_time` or :meth:`run` discards it.  So the heap's
        length is an *upper bound* on the live events, not their count;
        every live event still fires exactly once, in ``(time, sequence)``
        order (``tests/sim/test_engine.py`` holds this as one property).
        """
        event.cancelled = True

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if no live event remains.

        Pops cancelled entries off the head in passing: the heap changes
        structurally, but the set of live events and their order do not, so
        the call may be treated as read-only — events added later by
        :meth:`schedule_at_front` still sort ahead of same-time normal
        events.
        """
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.cancelled:
                return heap[0][0]
            heappop(heap)
        return None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run the simulation.

        Args:
            until: Stop once the next event would fire strictly after this
                time; the clock is then advanced to ``until``.  ``None`` runs
                until the event queue drains.
            max_events: Safety valve; stop after this many events.  When the
                budget ends the run with live events at or before ``until``
                still pending, the clock stays at the last executed event.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        # The loop body below is the simulator's innermost hot path: heap and
        # heappop are bound to locals, cancelled events are discarded inline,
        # and callbacks are invoked directly from the heap entry.
        heap = self._heap
        pop = heappop
        executed = 0
        try:
            while heap and executed < budget:
                entry = heap[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    pop(heap)
                    continue
                if entry[0] > limit:
                    break
                pop(heap)
                self.now = entry[0]
                executed += 1
                entry[3](*entry[4])
            # Advance to ``until`` only when nothing live remains at or
            # before it: a run stopped by its event budget leaves the clock
            # at the last executed event, so the next run() never moves it
            # backwards.
            if until is not None and self.now < until:
                next_time = self.peek_next_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            Simulator.events_executed_total += executed
            self._running = False
