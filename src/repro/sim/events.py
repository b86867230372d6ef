"""The cancellation token the discrete-event engine hands out."""

from __future__ import annotations


class Event:
    """The handle of a scheduled callback: a one-slot cancellation token.

    The engine's heap entry is the tuple ``(time, sequence, event, callback,
    args)``; the event carries none of it, only whether it was cancelled.
    Cancel through :meth:`repro.sim.engine.Simulator.cancel`: the entry stays
    in the heap (lazy deletion, so cancellation is O(1)) and the engine skips
    it when it surfaces.  Cancelling a handle whose event already fired
    marks a token nothing reads, so it is a harmless no-op.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False
