"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


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
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_empty_run_leaves_clock_at_until():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.cancel(first)
    assert sim.pending_events == 1
    # Cancelling twice must not decrement the live counter again.
    sim.cancel(first)
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_fire_is_a_counter_safe_noop():
    sim = Simulator()
    fired_handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.pending_events == 0
    # The event already fired: cancelling the stale handle must not push the
    # live counter negative (via run() or step()).
    sim.cancel(fired_handle)
    assert sim.pending_events == 0
    stepped_handle = sim.schedule(1.0, lambda: None)
    assert sim.step()
    sim.cancel(stepped_handle)
    assert sim.pending_events == 0


def test_pending_events_decrements_as_events_fire():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run(max_events=3)
    assert sim.pending_events == 1


def test_peek_next_time_does_not_change_live_events():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(first)
    before = sim.pending_events
    assert sim.peek_next_time() == 2.0
    assert sim.pending_events == before
    # Peeking again returns the same answer (idempotent).
    assert sim.peek_next_time() == 2.0


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
    assert other.step()
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
    assert sim.pending_events == 1
    # The heap still physically holds the cancelled entries (lazy discard):
    # its length is an upper bound on pending_events, not equal to it.
    assert len(sim._heap) == 3
    # Peek skips both dead heads, reporting the next *live* time...
    assert sim.peek_next_time() == 2.0
    # ...and structurally drops the dead entries in passing, without
    # touching the live-event counter.
    assert len(sim._heap) == 1
    assert sim.pending_events == 1
    sim.run()
    assert survivor_fired == ["live"]
    assert sim.pending_events == 0


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
    assert sim.pending_events == 0
    assert sim.peek_next_time() is None
    assert len(sim._heap) == 0  # peek drained every dead entry
    sim.run()  # nothing left to execute
    assert sim.events_processed == 0


def test_direct_event_cancel_reconciles_on_peek():
    """Cancelling via ``event.cancel()`` (bypassing ``Simulator.cancel``) must
    not leave the live counter permanently stale: peek never reports the dead
    head, and discarding it settles the counter charge."""
    sim = Simulator()
    fired = []
    head = sim.schedule(1.0, fired.append, "dead")
    sim.schedule(2.0, fired.append, "live")
    head.cancel()  # the direct path: live counter not yet charged
    assert sim.pending_events == 2  # stale until the dead entry surfaces
    assert sim.peek_next_time() == 2.0  # never a cancelled event's time
    assert sim.pending_events == 1  # discard settled the charge
    assert sim.peek_next_time() == 2.0  # idempotent; no double decrement
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["live"]
    assert sim.pending_events == 0


def test_direct_event_cancel_reconciles_in_run_and_step():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a").cancel()
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["b"]
    assert sim.pending_events == 0
    # Same through step(): the dead head is skipped and accounted exactly once.
    sim.schedule(3.0, fired.append, "c").cancel()
    sim.schedule(4.0, fired.append, "d")
    assert sim.step()
    assert fired == ["b", "d"]
    assert sim.pending_events == 0


def test_mixed_direct_and_engine_cancel_charges_counter_once():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    sim.cancel(event)  # no-op on an already-cancelled event
    assert sim.pending_events == 2  # direct cancel: not yet reconciled
    assert sim.peek_next_time() == 2.0
    assert sim.pending_events == 1  # charged exactly once
    sim.run()
    assert sim.pending_events == 0


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


def test_post_shares_the_sequence_counter_with_schedule():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    assert sim.post(1.0, fired.append, "b") is None
    sim.schedule(1.0, fired.append, "c")
    sim.post(0.5, fired.append, "early")
    sim.schedule_at_front(1.0, fired.append, "front")
    assert sim.pending_events == 5
    assert sim.peek_next_time() == 0.5
    sim.run()
    assert fired == ["early", "front", "a", "b", "c"]
    assert sim.events_processed == 5
    assert sim.pending_events == 0


def test_posted_events_respect_until_step_and_validation():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, "in")
    sim.post(5.0, fired.append, "out")
    sim.run(until=2.0)
    assert fired == ["in"] and sim.now == 2.0 and sim.pending_events == 1
    assert sim.step() and fired == ["in", "out"] and sim.now == 5.0
    assert not sim.step()
    with pytest.raises(SimulationError):
        sim.post(-0.1, fired.append, "never")


def test_cancelled_head_before_a_posted_event_is_discarded():
    sim = Simulator()
    fired = []
    dead = sim.schedule(1.0, fired.append, "dead")
    sim.post(2.0, fired.append, "live")
    sim.cancel(dead)
    assert sim.peek_next_time() == 2.0
    sim.run()
    assert fired == ["live"]
    assert sim.events_processed == 1  # cancelled events stay uncounted
