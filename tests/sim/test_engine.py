"""Tests for the discrete-event engine."""

import itertools
from functools import partial
from heapq import heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    times = []
    sim.schedule(0.5, lambda: times.append(sim.now))
    sim.schedule(1.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [0.5, 1.25]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in-window")
    sim.schedule(5.0, fired.append, "after-window")
    sim.run(until=2.0)
    assert fired == ["in-window"]
    assert sim.now == 2.0
    # The remaining event still fires if we continue.
    sim.run()
    assert fired == ["in-window", "after-window"]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    sim.cancel(event)
    sim.run()
    assert fired == ["kept"]


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == pytest.approx(3.0)


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(first)
    assert sim.peek_next_time() == 2.0


def test_events_processed_counter():
    before = Simulator.events_executed_total
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert Simulator.events_executed_total - before == 5


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "first")
    sim.schedule(2.0, fired.append, "second")
    sim.cancel(first)
    # Cancelling twice is harmless: the token only stays marked.
    sim.cancel(first)
    before = Simulator.events_executed_total
    sim.run()
    assert fired == ["second"]
    assert Simulator.events_executed_total - before == 1
    assert sim.peek_next_time() is None


def test_cancel_after_fire_is_a_counter_safe_noop():
    sim = Simulator()
    fired = []
    fired_handle = sim.schedule(1.0, fired.append, "run")
    sim.run()
    # The event already fired: cancelling the stale handle changes nothing
    # (after run() or after a one-event run).
    sim.cancel(fired_handle)
    assert sim.peek_next_time() is None
    stepped_handle = sim.schedule(1.0, fired.append, "stepped")
    sim.schedule(2.0, fired.append, "later")
    sim.run(max_events=1)
    sim.cancel(stepped_handle)
    assert sim.peek_next_time() == 3.0
    sim.run()
    assert fired == ["run", "stepped", "later"]


def test_pending_events_decrements_as_events_fire():
    sim = Simulator()
    fired = []
    for i in range(4):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.peek_next_time() == 3.0
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.peek_next_time() is None


def test_peek_next_time_does_not_change_live_events():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "dead")
    sim.schedule(2.0, fired.append, "live")
    sim.cancel(first)
    assert sim.peek_next_time() == 2.0
    # Peeking again returns the same answer (idempotent).
    assert sim.peek_next_time() == 2.0
    sim.run()
    assert fired == ["live"]


def test_empty_run_leaves_clock_at_until():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_schedule_at_front_precedes_same_time_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "normal-early")
    sim.schedule_at_front(1.0, fired.append, "front")
    sim.schedule_at(1.0, fired.append, "normal-late")
    sim.run()
    # The front event beats even normally scheduled events created *before*
    # it, which is what lets the streaming replay cursor keep the upfront
    # injector's injections-first ordering.
    assert fired == ["front", "normal-early", "normal-late"]


def test_schedule_at_front_orders_among_themselves():
    sim = Simulator()
    fired = []
    sim.schedule_at_front(1.0, fired.append, "first")
    sim.schedule_at_front(1.0, fired.append, "second")
    sim.schedule_at_front(0.5, fired.append, "earlier")
    sim.run()
    assert fired == ["earlier", "first", "second"]


def test_schedule_at_front_rejects_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at_front(0.5, lambda: None)


def test_events_executed_total_accumulates_across_simulators():
    before = Simulator.events_executed_total
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run()
    other = Simulator()
    other.schedule(0.0, lambda: None)
    other.run(max_events=1)
    assert Simulator.events_executed_total - before == 4


# --------------------------------------------------------------------- #
# Lazy-discard invariant: cancel-then-peek (docs/architecture.md and the
# engine docstrings promise this exact behaviour)
# --------------------------------------------------------------------- #
def test_cancel_then_peek_discards_dead_head_but_preserves_live_set():
    sim = Simulator()
    doomed = [sim.schedule(1.0, lambda: None), sim.schedule(1.5, lambda: None)]
    survivor_fired = []
    sim.schedule(2.0, survivor_fired.append, "live")
    for event in doomed:
        sim.cancel(event)
    # The heap still physically holds the cancelled entries (lazy discard):
    # its length is an upper bound on the live events, not their count.
    assert len(sim._heap) == 3
    # Peek skips both dead heads, reporting the next *live* time...
    assert sim.peek_next_time() == 2.0
    # ...and structurally drops the dead entries in passing.
    assert len(sim._heap) == 1
    sim.run()
    assert survivor_fired == ["live"]
    assert not sim._heap


def test_cancel_then_peek_then_front_scheduling_keeps_ordering():
    """After a cancel-then-peek, schedule_at_front events must still fire
    ahead of previously scheduled same-time normal events (the ordering the
    streaming replay injector depends on)."""
    sim = Simulator()
    fired = []
    head = sim.schedule_at(1.0, fired.append, "cancelled-head")
    sim.schedule_at(2.0, fired.append, "normal")
    sim.cancel(head)
    assert sim.peek_next_time() == 2.0  # structurally pops the dead head
    sim.schedule_at_front(2.0, fired.append, "front")
    assert sim.peek_next_time() == 2.0
    sim.run()
    assert fired == ["front", "normal"]


def test_cancel_every_event_then_peek_returns_none():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(3)]
    for event in events:
        sim.cancel(event)
    assert sim.peek_next_time() is None
    assert len(sim._heap) == 0  # peek drained every dead entry
    before = Simulator.events_executed_total
    sim.run()  # nothing left to execute
    assert Simulator.events_executed_total == before


def test_budget_stop_leaves_clock_at_last_executed_event():
    # Regression: run(until=T, max_events=N) used to set now = T even when
    # the *budget* ended the loop, so the next run() moved the clock
    # backwards to the still-pending events.
    sim = Simulator()
    times = []
    for when in (1.0, 2.0, 3.0):
        sim.schedule_at(when, lambda: times.append(sim.now))
    sim.run(until=10.0, max_events=1)
    assert sim.now == 1.0
    assert sim.peek_next_time() == 2.0
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]  # the clock never ran backwards
    assert sim.now == 10.0


def test_budget_stop_still_advances_when_nothing_is_left_before_until():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(20.0, lambda: None)
    sim.run(until=10.0, max_events=1)  # budget and window end together
    assert sim.now == 10.0
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    cancelled = sim.schedule_at(2.0, lambda: None)
    sim.cancel(cancelled)
    sim.run(until=10.0, max_events=1)  # only a dead entry remains
    assert sim.now == 10.0


# --------------------------------------------------------------------- #
# The ordering law: drawn interleavings of schedule / post / schedule_at /
# schedule_at_front / cancel, run in chunks, held to a reference queue that
# keeps its pending events in a list and fires the least live one.  A "post"
# is an entry without an Event, as an output port pushes its link deliveries.
# --------------------------------------------------------------------- #
def _post(sim, delay, callback, *args):
    """Push an uncancellable entry the way ``repro.sim.port`` does: the
    engine's tuple shape, the next ``_sequence``, ``None`` for the token."""
    sequence = sim._sequence
    sim._sequence = sequence + 1
    heappush(sim._heap, (sim.now + delay, sequence, None, callback, args))


class _ReferenceQueue:
    """The engine's contract spelled out: live events fire by time, front
    events first at a tie, then in scheduling order; ``run(until=T)`` ends at
    ``T`` exactly when nothing live remains at or before ``T``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending = []  # (time, 0 front / 1 normal, order, token, callback, args)
        self.order = itertools.count()

    def _add(self, time, front, token, callback, args):
        self.pending.append((time, 0 if front else 1, next(self.order), token, callback, args))
        return token

    def schedule(self, delay, callback, *args):
        return self._add(self.now + delay, False, Event(), callback, args)

    def post(self, delay, callback, *args):
        self._add(self.now + delay, False, None, callback, args)

    def schedule_at(self, time, callback, *args):
        return self._add(time, False, Event(), callback, args)

    def schedule_at_front(self, time, callback, *args):
        return self._add(time, True, Event(), callback, args)

    def cancel(self, token):
        token.cancelled = True

    def live(self):
        return sorted(e for e in self.pending if e[3] is None or not e[3].cancelled)

    def peek_next_time(self):
        live = self.live()
        return live[0][0] if live else None

    def run(self, until=None, max_events=None):
        executed = 0
        while self.live() and (max_events is None or executed < max_events):
            entry = self.live()[0]
            if until is not None and entry[0] > until:
                break
            self.pending.remove(entry)
            self.now = entry[0]
            executed += 1
            entry[4](*entry[5])
        if until is not None and all(e[0] > until for e in self.live()):
            self.now = max(self.now, until)


class _Driver:
    """Applies one drawn program to a queue; events number themselves in
    scheduling order and run their child actions when they fire."""

    def __init__(self, queue) -> None:
        self.queue = queue
        self.handles = {}  # event number -> token, for every handled event
        self.fired = []  # (event number, clock when it fired)
        self.numbers = itertools.count()

    def apply(self, action):
        queue = self.queue
        if action[0] == "cancel":
            if self.handles:
                tokens = list(self.handles.values())
                queue.cancel(tokens[action[1] % len(tokens)])
            return
        verb, delta, children = action
        number = next(self.numbers)
        if verb == "schedule":
            token = queue.schedule(delta, self.fire, number, children)
        elif verb == "post":
            post = queue.post if isinstance(queue, _ReferenceQueue) else partial(_post, queue)
            token = post(delta, self.fire, number, children)
        elif verb == "at":
            token = queue.schedule_at(queue.now + delta, self.fire, number, children)
        else:
            token = queue.schedule_at_front(queue.now + delta, self.fire, number, children)
        if token is not None:
            self.handles[number] = token

    def fire(self, number, children):
        self.fired.append((number, self.queue.now))
        for child in children:
            self.apply(child)


_DELTAS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_VERBS = st.sampled_from(["schedule", "post", "at", "front"])
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 31))
# A callback's own actions: more events, or a cancel from inside the run.
_CHILD = st.one_of(st.tuples(_VERBS, _DELTAS, st.just(())), _CANCEL)
_ACTION = st.one_of(
    st.tuples(_VERBS, _DELTAS, st.lists(_CHILD, max_size=3).map(tuple)), _CANCEL
)
_RUN = st.tuples(
    st.just("run"), st.one_of(st.none(), _DELTAS), st.one_of(st.none(), st.integers(0, 4))
)
_PROGRAM = st.lists(st.one_of(_ACTION, _RUN, st.just(("cancel-head",))), max_size=30)


def _check_ordering_law(program):
    engine, reference = _Driver(Simulator()), _Driver(_ReferenceQueue())
    for step in program + [("run", None, None)]:
        if step[0] == "cancel-head":
            # Cancel the next live event, if it has a handle, then peek: the
            # peek must skip the dead head and leave the live set alone.
            live = reference.queue.live()
            number = live[0][5][0] if live else None
            if number in reference.handles:
                for driver in (engine, reference):
                    driver.queue.cancel(driver.handles[number])
            assert engine.queue.peek_next_time() == reference.queue.peek_next_time()
        elif step[0] == "run":
            _, span, budget = step
            now = engine.queue.now
            until = None if span is None else now + span
            seen = len(engine.fired)
            for driver in (engine, reference):
                driver.queue.run(until=until, max_events=budget)
            assert engine.fired == reference.fired
            # Where the clock stands if it may not advance to ``until``: the
            # last event this chunk fired, else where the chunk began.
            clock = engine.fired[-1][1] if len(engine.fired) > seen else now
            if until is not None:
                due = [e for e in reference.queue.live() if e[0] <= until]
                assert engine.queue.now == (clock if due else until)
            assert engine.queue.now == reference.queue.now
        else:
            for driver in (engine, reference):
                driver.apply(step)
    assert not reference.queue.live()


@settings(max_examples=300, deadline=None)
@given(_PROGRAM)
@example(  # a cancel from inside a callback, of an event at the same time
    [("schedule", 1.0, (("cancel", 1),)), ("at", 1.0, ()), ("run", 2.0, None)]
)
@example(  # a cancel of a handle whose event already fired
    [("schedule", 0.5, ()), ("run", 1.0, None), ("cancel", 0), ("post", 0.0, ())]
)
@example(  # a cancel of the heap head before a peek, then a front event
    [("at", 1.0, ()), ("at", 2.0, ()), ("cancel-head",), ("front", 2.0, ()), ("run", 1.0, 1)]
)
def test_engine_fires_live_events_in_reference_order(program):
    _check_ordering_law(program)
