"""Fault definitions: frozen, picklable descriptions of one failure process.

A :class:`FaultDef` is a value object (like a workload perturbation or a
slack-policy definition): it carries *parameters only*, never live state, so
it can be hashed into cache keys and pickled to pool workers.  Each concrete
kind carries a ``kind`` string, which :meth:`FaultDef.to_dict` writes first.

Two families:

* **Timed faults** (:class:`LinkOutage`, :class:`JammingIntervals`) describe
  windows on the *fault horizon* — all times are fractions of the horizon
  (the last recorded ingress time when replaying, the workload duration when
  recording), so one definition means the same thing at quick and paper
  scale.  They are fully deterministic: no randomness at all.
* **Stochastic faults** (:class:`BernoulliLoss`, :class:`GilbertElliottLoss`)
  draw per-packet losses from a dedicated RNG substream derived from the
  fault seed and the link name (see
  :meth:`~repro.faults.injector.FaultPlan.install`), never from the workload
  stream — the same traffic can be replayed under different fault seeds, and
  the loss pattern on one link does not depend on event interleaving at
  other links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, List, Optional, Tuple

from repro.utils.registry import spec_dict
from repro.utils.rng import RandomState

#: Uniforms a loss filter draws from its substream per numpy call.
DRAW_BLOCK = 1024


def uniform_draws(rng: RandomState) -> Iterator[float]:
    """``rng.uniform()`` draw after draw, read :data:`DRAW_BLOCK` at a time.

    Bit-identical: ``uniform(0, 1)`` is ``0 + 1 * x`` of the next double,
    and ``random(n)`` returns the next n; draws a filter never reads go
    unseen, since the substream is that filter's alone.
    """
    generator = rng.generator
    while True:
        yield from generator.random(DRAW_BLOCK).tolist()


#: A per-packet destruction test: called once per completed transmission on
#: a matching port with ``(packet, now)``; ``True`` destroys the packet.
DropFilter = Callable[[object, float], bool]


class FaultDef:
    """Base class for fault definitions (concrete kinds are frozen dataclasses).

    Subclasses set the class-level ``kind`` tag and override the hooks that
    apply to them:

    * :meth:`outage_windows` — link down/up windows (timed faults that block
      the port entirely);
    * :meth:`make_drop_filter` — a per-packet destruction test (loss and
      jamming faults);
    * :attr:`uses_rng` — whether the definition needs a seeded substream
      (drives deterministic per-link seed derivation at install time).
    """

    #: Kind tag written by :meth:`to_dict` (set by subclasses).
    kind: ClassVar[str] = ""
    #: Whether :meth:`make_drop_filter` consumes the RNG it is handed.
    uses_rng: ClassVar[bool] = False

    # -- selector ------------------------------------------------------- #
    def matches(self, link_name: str) -> bool:
        """Whether this fault applies to the directed link ``"src->dst"``.

        An empty ``links`` tuple (the default) matches every link; a ``"*"``
        entry does too.
        """
        links: Tuple[str, ...] = getattr(self, "links", ())
        return not links or "*" in links or link_name in links

    # -- behaviour hooks ------------------------------------------------ #
    def outage_windows(self, horizon: float) -> List[Tuple[float, float]]:
        """Absolute ``(down_time, up_time)`` windows on a run of ``horizon`` seconds."""
        return []

    def make_drop_filter(
        self, horizon: float, rng: Optional[RandomState]
    ) -> Optional[DropFilter]:
        """A per-packet destruction test for one port, or ``None``.

        ``rng`` is the port's dedicated substream (``None`` for kinds with
        ``uses_rng = False``).  The returned callable owns any per-port state
        (e.g. the Gilbert-Elliott channel state), so two ports never share a
        stream or a chain.
        """
        return None

    #: JSON form for cache keys and headers: ``kind`` + every field.
    to_dict = spec_dict

    def _validate_links(self) -> None:
        links: Tuple[str, ...] = getattr(self, "links", ())
        if not isinstance(links, tuple) or not all(isinstance(l, str) for l in links):
            raise ValueError(
                f"{self.kind}: links must be a tuple of 'src->dst' strings "
                f"(or '*'); got {links!r}"
            )

    @staticmethod
    def _validate_windows(def_, what: str) -> None:
        """Shared window validation for the timed kinds."""
        if not 0.0 <= def_.start < 1.0:
            raise ValueError(f"{what}: start must be in [0, 1); got {def_.start}")
        if not 0.0 < def_.duration <= 1.0:
            raise ValueError(f"{what}: duration must be in (0, 1]; got {def_.duration}")
        if def_.count < 1:
            raise ValueError(f"{what}: count must be >= 1; got {def_.count}")
        if def_.count > 1:
            if def_.period is None:
                raise ValueError(f"{what}: count > 1 requires a period")
            if def_.period <= def_.duration:
                raise ValueError(
                    f"{what}: period ({def_.period}) must exceed duration "
                    f"({def_.duration}) so windows cannot overlap"
                )

    @staticmethod
    def _windows(def_, horizon: float) -> List[Tuple[float, float]]:
        """Absolute windows for the timed kinds (fractions × horizon)."""
        step = (def_.period or 0.0) * horizon
        out: List[Tuple[float, float]] = []
        for index in range(def_.count):
            down = def_.start * horizon + index * step
            out.append((down, down + def_.duration * horizon))
        return out


@dataclass(frozen=True)
class LinkOutage(FaultDef):
    """Deterministic link down/up windows (a hard outage).

    While a matching link is down its port transmits nothing: the in-flight
    packet (if any) is aborted and dropped at down-time, queued packets are
    held, and service resumes at up-time.  With ``count > 1`` the window
    repeats every ``period`` (fractions of the horizon, like ``start`` and
    ``duration``).

    Attributes:
        start: First down-time as a fraction of the fault horizon.
        duration: Window length as a fraction of the fault horizon.
        period: Spacing between repeated windows (fraction; required when
            ``count > 1``).
        count: Number of windows.
        links: Directed links (``"src->dst"``) this outage hits; empty or
            ``"*"`` = every link.
    """

    kind: ClassVar[str] = "link-outage"

    start: float = 0.4
    duration: float = 0.1
    period: Optional[float] = None
    count: int = 1
    links: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._validate_links()
        self._validate_windows(self, "link-outage")

    def outage_windows(self, horizon: float) -> List[Tuple[float, float]]:
        """Down/up windows scaled to the fault horizon."""
        return self._windows(self, horizon)


@dataclass(frozen=True)
class BernoulliLoss(FaultDef):
    """Independent per-packet loss: each transmitted packet dies w.p. ``rate``.

    The loss draw happens when a packet *finishes* transmission (the link
    time is spent; the packet is destroyed on the wire), from the port's own
    substream — see the module docstring's determinism rules.

    Attributes:
        rate: Per-packet loss probability in ``[0, 1]``.
        links: Directed links this loss process runs on (empty = all).
    """

    kind: ClassVar[str] = "bernoulli-loss"
    uses_rng: ClassVar[bool] = True

    rate: float = 0.01
    links: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._validate_links()
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"bernoulli-loss: rate must be in [0, 1]; got {self.rate}")

    def make_drop_filter(
        self, horizon: float, rng: Optional[RandomState]
    ) -> Optional[DropFilter]:
        """One uniform draw per transmitted packet against ``rate``."""
        if self.rate <= 0.0:
            return None
        rate = self.rate
        assert rng is not None
        draw = uniform_draws(rng).__next__

        def drop(packet, now: float) -> bool:
            return draw() < rate

        return drop


@dataclass(frozen=True)
class GilbertElliottLoss(FaultDef):
    """Bursty loss from the two-state Gilbert-Elliott channel model.

    The channel sits in a *good* or *bad* state; each transmitted packet
    first advances the state (good→bad w.p. ``p_enter_bad``, bad→good w.p.
    ``p_exit_bad``), then dies with the state's loss probability.  Each
    matching port runs its own chain from its own substream, so bursts on
    one link are independent of every other link.

    Attributes:
        p_enter_bad: Per-packet probability of entering the bad state.
        p_exit_bad: Per-packet probability of leaving the bad state (the
            mean burst length is ``1 / p_exit_bad`` packets).
        loss_good: Loss probability in the good state (usually 0).
        loss_bad: Loss probability in the bad state (usually 1).
        links: Directed links this channel runs on (empty = all).
    """

    kind: ClassVar[str] = "gilbert-loss"
    uses_rng: ClassVar[bool] = True

    p_enter_bad: float = 0.02
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 1.0
    links: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._validate_links()
        for name in ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"gilbert-loss: {name} must be in [0, 1]; got {value}")

    def make_drop_filter(
        self, horizon: float, rng: Optional[RandomState]
    ) -> Optional[DropFilter]:
        """A stateful closure owning this port's channel state."""
        assert rng is not None
        draw = uniform_draws(rng).__next__
        p_enter, p_exit = self.p_enter_bad, self.p_exit_bad
        loss_good, loss_bad = self.loss_good, self.loss_bad
        state = [False]  # [in_bad_state]; one-cell list so the closure can mutate it

        def drop(packet, now: float) -> bool:
            if state[0]:
                if draw() < p_exit:
                    state[0] = False
            elif draw() < p_enter:
                state[0] = True
            loss = loss_bad if state[0] else loss_good
            if loss <= 0.0:
                return False
            if loss >= 1.0:
                return True
            return draw() < loss

        return drop


@dataclass(frozen=True)
class JammingIntervals(FaultDef):
    """Adversarial jamming windows: packets on the wire are corrupted.

    Böhm et al.'s jamming semantics (PAPERS.md): during a jam window the
    link still *serves* packets — transmission time is spent — but any
    packet whose transmission completes inside a window is destroyed.
    Unlike :class:`LinkOutage` the port never stalls, so jamming wastes
    capacity rather than deferring work.  Fully deterministic (no RNG).

    Attributes:
        start: First jam start as a fraction of the fault horizon.
        duration: Jam length as a fraction of the fault horizon.
        period: Spacing between repeated jams (fraction; required when
            ``count > 1``).
        count: Number of jam windows.
        links: Directed links the jammer hits (empty = all).
    """

    kind: ClassVar[str] = "jamming"

    start: float = 0.2
    duration: float = 0.05
    period: Optional[float] = None
    count: int = 1
    links: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._validate_links()
        self._validate_windows(self, "jamming")

    def make_drop_filter(
        self, horizon: float, rng: Optional[RandomState]
    ) -> Optional[DropFilter]:
        """Destroy packets whose transmission completes inside a jam window."""
        windows = self._windows(self, horizon)

        def drop(packet, now: float) -> bool:
            for begin, end in windows:
                if begin <= now < end:
                    return True
            return False

        return drop
