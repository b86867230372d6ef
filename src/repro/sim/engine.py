"""A minimal, fast discrete-event simulation engine.

The engine maintains a priority queue of :class:`~repro.sim.events.Event`
objects and executes them in time order.  It is the substrate on which the
packet-level network simulator (routers, links, transport protocols, traffic
generators) is built, replacing the ns-2 simulator used by the paper.

Hot-path design notes (this loop executes once per packet-hop-event, so the
constant factor is the whole game — the same argument the paper makes for
LSTF's per-packet cost in Section 5):

* Heap entries are plain ``(time, sequence, event, callback, args)`` tuples,
  not events.  CPython compares tuples of floats/ints entirely in C (the
  unique sequence number settles every comparison), so sift operations never
  call back into :meth:`Event.__lt__`.  ``event`` is the cancellation handle
  and is ``None`` for events nobody can cancel (:meth:`Simulator.post`).
* ``run()`` drives the heap directly with ``heappop`` bound to a local,
  instead of delegating to :meth:`step` (two extra function calls and a
  cancelled-scan per event).
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
    #: count the events a workload executed; updated when ``run()`` returns
    #: and on every ``step()``.
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
        self._events_processed = 0
        self._live_events = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far.

        Updated when :meth:`run` returns (and on every :meth:`step`), not
        mid-loop — callbacks should not read it during a run.
        """
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of *live* (non-cancelled) events still scheduled.

        Cancelled events sit in the queue until lazy deletion discards them,
        but they are excluded here: the counter is decremented by
        :meth:`cancel`, by every :meth:`step`, and when :meth:`run` returns.
        Like :attr:`events_processed` it is not maintained mid-``run()`` —
        callbacks should not read it during a run.
        """
        return self._live_events

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
        event = Event(time, sequence, callback, args)
        heappush(self._heap, (time, sequence, event, callback, args))
        self._live_events += 1
        return event

    def post(self, delay: float, callback: Callable[..., Any], *args) -> None:
        """:meth:`schedule` without a handle, for events nobody will cancel.

        Draws its sequence number from the same counter as :meth:`schedule`,
        so the event fires exactly where a handled one would; it only skips
        building the :class:`Event`.  The per-hop link-delivery event is
        posted (nothing can recall a packet from a wire); anything that may
        be cancelled — e.g. a transmission finish, which preemption and link
        faults abort — must use :meth:`schedule`.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (time, sequence, None, callback, args))
        self._live_events += 1

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
        event = Event(time, sequence, callback, args)
        heappush(self._heap, (time, sequence, event, callback, args))
        self._live_events += 1
        return event

    def schedule_at_front(self, time: float, callback: Callable[..., Any], *args) -> Event:
        """Schedule ahead of every normally scheduled event at ``time``.

        Events scheduled this way fire before any event created by
        :meth:`schedule`/:meth:`schedule_at` for the same timestamp (and in
        scheduling order among themselves): front events draw sequence
        numbers from a separate, negative, increasing range, so the
        ``(time, sequence)`` tuple ordering puts them ahead of every
        non-front event at the same time — including non-front events that
        were scheduled *earlier*.  The replay injector's streaming cursor
        relies on this: the old schedule-everything-upfront injector's
        injection events always carried lower sequence numbers than any
        simulation event, so packet injections at time ``t`` preceded every
        simulation event at ``t`` — front scheduling preserves that ordering
        without pre-populating the heap.  (See
        ``docs/architecture.md#engine-notes-hot-path-semantics``.)

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.9f}, which is before now ({self.now:.9f})"
            )
        sequence = self._front_sequence
        self._front_sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heappush(self._heap, (time, sequence, event, callback, args))
        self._live_events += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        A no-op if the event was already cancelled *or already fired* (the
        engine marks events as cancelled when it executes them, so a stale
        handle cannot skew the live counter).  Cancellation is O(1) lazy
        deletion: the event is only marked, and the queue discards it when it
        reaches the top.  The live-event counter (:attr:`pending_events`) is
        decremented immediately.  Cancelling through ``event.cancel()``
        directly is also legal: the counter is then reconciled lazily, when
        the dead entry surfaces at the heap head (the ``accounted`` flag
        records which of the two paths already charged the counter).

        **Invariant (lazy discard):** after any sequence of cancels, the
        heap's length is an *upper bound* on :attr:`pending_events`, never
        necessarily equal to it; cancelled entries are physically removed
        only when they surface at the head (in :meth:`peek_next_time`,
        :meth:`step`, or :meth:`run`).  Every live event still fires exactly
        once, in ``(time, sequence)`` order — see the cancel-then-peek
        regression tests in ``tests/sim/test_engine.py``.
        """
        if not event.cancelled:
            event.cancelled = True
            event.accounted = True
            self._live_events -= 1

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if no live event remains.

        Lazy-discard caveat: :meth:`cancel` only *marks* events (O(1)), so
        cancelled entries linger in the heap until they surface.  This
        method pops dead entries off the head in passing — it mutates the
        heap *structurally*, but never the set of live events: the next live
        time and execution order are unchanged, and the call may be treated
        as logically read-only.  Consequently the heap's length is an upper
        bound on — not equal to — :attr:`pending_events`.  Discarding a dead
        entry whose cancellation bypassed :meth:`cancel` (a direct
        ``event.cancel()``) also settles its live-counter charge here, so
        :attr:`pending_events` converges to the true live count no matter
        how the event was cancelled.

        **Invariant (cancel-then-peek):** cancelling the head event and then
        peeking returns the next *live* event's time, leaves
        :attr:`pending_events` exactly as :meth:`cancel` left it, and must
        not disturb which events a subsequent :meth:`run`/:meth:`step`
        executes or their order — including events added later via
        :meth:`schedule_at_front`, which still sort ahead of same-time
        normal events after any number of peeks.
        """
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.cancelled:
                return heap[0][0]
            heappop(heap)
            if not event.accounted:
                event.accounted = True
                self._live_events -= 1
        return None

    def step(self) -> bool:
        """Execute the next pending event.

        Returns:
            ``True`` if an event was executed, ``False`` if the queue was empty.
        """
        heap = self._heap
        while heap:
            time, _, event, callback, args = heappop(heap)
            if event is not None:
                if event.cancelled:
                    if not event.accounted:
                        event.accounted = True
                        self._live_events -= 1
                    continue
                # Executed events are marked cancelled ("can no longer fire")
                # so a later cancel() of a stale handle stays a counter-safe
                # no-op.
                event.cancelled = True
            self.now = time
            self._events_processed += 1
            self._live_events -= 1
            Simulator.events_executed_total += 1
            callback(*args)
            return True
        return False

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
        # and callbacks are invoked directly (no Event.fire indirection).
        heap = self._heap
        pop = heappop
        executed = 0
        try:
            while heap and executed < budget:
                entry = heap[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    pop(heap)
                    if not event.accounted:
                        event.accounted = True
                        self._live_events -= 1
                    continue
                if entry[0] > limit:
                    break
                pop(heap)
                if event is not None:
                    # Mark as fired ("can no longer fire") so cancel() of a
                    # stale handle is a no-op and cannot skew the live counter.
                    event.cancelled = True
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
            self._events_processed += executed
            self._live_events -= executed
            Simulator.events_executed_total += executed
            self._running = False
