"""Event primitives for the discrete-event simulation engine."""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback in the simulation.

    Events are ordered by ``(time, sequence_number)`` so that events scheduled
    for the same instant fire in the order they were scheduled, which keeps
    simulations deterministic.  The engine stores its heap entries as plain
    tuples led by ``(time, sequence)`` so that heap sifts compare floats and
    ints in C and never call :meth:`__lt__`; the comparison operator is kept
    only for explicit sorting of event lists in user code.

    An event can be cancelled before it fires; cancelled events are skipped by
    the engine (lazy deletion, so cancellation is O(1)).  Prefer cancelling
    through :meth:`repro.sim.engine.Simulator.cancel`, which updates the
    engine's live-event counter eagerly; calling :meth:`cancel` directly is
    also safe — the engine reconciles the counter when the dead entry
    surfaces at the heap head (tracked via ``accounted``).  The ``cancelled``
    flag means "will not (or can no longer) fire": the engine also sets it
    when it executes an event, so cancelling a stale handle after its event
    fired is a safe no-op.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "accounted")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., Any],
        args: Tuple = (),
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Whether the engine's live-event counter has already been charged
        # for this event's cancellation (set by Simulator.cancel, or by the
        # engine when it discards a directly cancelled entry).
        self.accounted = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it reaches the heap top."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback with its bound arguments."""
        self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} seq={self.sequence} {name}{state}>"
