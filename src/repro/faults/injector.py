"""Installing fault schedules on a live network.

:class:`FaultPlan` pairs a :class:`~repro.faults.registry.FaultScheduleDef`
with a **fault seed** that is independent of the workload seed: the same
recorded traffic can be replayed under many fault draws, and the same fault
draw can be applied to many workloads.  Each stochastic fault gets its own
RNG substream derived from ``(fault_seed, fault_index, link_name)`` via
:func:`~repro.faults.defs.derive_fault_seed`, so adding a fault to one link
never shifts the draws seen by another.

The :class:`FaultInjector` translates a plan into engine state:

* per-port :class:`PortFaultState` objects (a ``down`` flag plus the ordered
  drop filters for that link), attached to
  :attr:`repro.sim.port.OutputPort.fault_state`;
* outage toggle events scheduled through ``sim.schedule_at`` **before** the
  run starts, so they carry the lowest normal sequence numbers and fire
  deterministically ahead of same-timestamp packet events.

Fault timing is expressed as fractions of a *horizon* (the workload duration
when recording, the last recorded ingress time when replaying), so one
definition scales across experiment tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.faults.defs import DropFilter, derive_fault_seed
from repro.faults.registry import FaultScheduleDef
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.port import OutputPort


class PortFaultState:
    """Mutable fault state attached to a single output port.

    Attributes:
        down: True while the port's link is inside an outage window; the
            port refuses to start transmissions while set.
        filters: Drop filters consulted (in fault-definition order) when a
            transmission completes; any filter returning True destroys the
            packet instead of propagating it.
        packets_destroyed: Count of packets destroyed by filters or outages
            on this port (distinct from buffer-overflow drops).
    """

    __slots__ = ("down", "filters", "packets_destroyed")

    def __init__(self, filters: Tuple[Callable[[object, float], bool], ...] = ()) -> None:
        self.down = False
        self.filters = filters
        self.packets_destroyed = 0

    def intercepts(self, packet: object, now: float) -> bool:
        """Whether any drop filter destroys ``packet`` completing at ``now``.

        Every filter is consulted even after one matches: stateful filters
        (Gilbert-Elliott) must advance their chain once per packet regardless
        of what other faults on the link decide, or composing faults would
        perturb each other's draws.
        """
        destroy = False
        for filt in self.filters:
            if filt(packet, now):
                destroy = True
        if destroy:
            self.packets_destroyed += 1
        return destroy


@dataclass(frozen=True)
class FaultPlan:
    """A fault schedule plus the seed that makes its randomness concrete.

    The plan — not the bare schedule definition — is what flows through
    ``replay_schedule``/``get_or_record``; its :meth:`fingerprint` is what
    enters the cache key (and only when the plan actually injects something,
    so fault-free keys stay bit-identical to historical ones).
    """

    definition: FaultScheduleDef
    seed: int = 0

    def is_empty(self) -> bool:
        """Whether installing this plan is a behavioral no-op."""
        return self.definition.is_empty()

    def fingerprint(self) -> Optional[dict]:
        """Cache-key payload, or None when the plan is empty.

        None (not ``{}``) is the contract: callers add a ``"faults"`` entry
        to the cache-key payload only for a non-None fingerprint, which is
        what keeps all pre-fault golden keys unchanged.
        """
        if self.is_empty():
            return None
        return {"faults": self.definition.fingerprint(), "seed": self.seed}

    def link_faults(
        self, links: Iterable[Tuple[str, str]], horizon: float
    ) -> Iterator[Tuple[str, Tuple[DropFilter, ...], List[Tuple[float, float]]]]:
        """Compile the plan for a run spanning ``horizon`` over directed ``links``.

        Yields ``(link_name, filters, windows)`` for each ``(src, dst)`` link
        the plan touches, links in sorted order: the port's drop filters in
        fault-definition order (each stochastic one over its own substream,
        ``derive_fault_seed(seed, fault_index, link_name)``) and its outage
        ``(down, up)`` windows, sorted.  This is the one place a plan becomes
        per-link state — the OO injector (:meth:`FaultInjector.install`) and
        the flat replay kernel (:mod:`repro.core.replay_vectorized`) both
        consume it, in this order, so they cannot seed or order a fault
        differently.
        """
        if horizon <= 0:
            raise ValueError(f"fault horizon must be positive; got {horizon!r}")
        for src, dst in sorted(links):
            link_name = f"{src}->{dst}"
            filters = []
            windows = []
            for index, fault in enumerate(self.definition.faults):
                if not fault.matches(link_name):
                    continue
                rng = None
                if fault.uses_rng:
                    rng = RandomState(derive_fault_seed(self.seed, index, link_name))
                filt = fault.make_drop_filter(horizon, rng)
                if filt is not None:
                    filters.append(filt)
                windows.extend(fault.outage_windows(horizon))
            if filters or windows:
                yield link_name, tuple(filters), sorted(windows)

    def install(self, sim: "Simulator", network: "Network", horizon: float) -> "FaultInjector":
        """Install this plan on ``network`` for a run spanning ``horizon``."""
        injector = FaultInjector(self, horizon=horizon)
        injector.install(sim, network)
        return injector

    def to_dict(self) -> dict:
        """Lossless serializable form (definition + seed)."""
        return {"definition": self.definition.to_dict(), "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            definition=FaultScheduleDef.from_dict(payload["definition"]),
            seed=int(payload.get("seed", 0)),
        )


@dataclass
class FaultInjector:
    """Wires a :class:`FaultPlan` into ports and the event queue.

    Keeps per-port state so post-run statistics (``packets_destroyed``,
    outage transition log) can be inspected by tests and reports.
    """

    plan: FaultPlan
    horizon: float
    port_states: List[Tuple[str, PortFaultState]] = field(default_factory=list)
    transitions: List[Tuple[float, str, str]] = field(default_factory=list)

    def install(self, sim: "Simulator", network: "Network") -> None:
        """Attach fault state to every matching port and schedule outages."""
        ports = {f"{src}->{dst}": network.nodes[src].ports[dst] for src, dst in network.links}
        for link_name, filters, windows in self.plan.link_faults(network.links, self.horizon):
            port = ports[link_name]
            state = PortFaultState(filters=filters)
            port.fault_state = state
            self.port_states.append((link_name, state))
            for down, up in windows:
                sim.schedule_at(down, self._link_down, port, link_name)
                sim.schedule_at(up, self._link_up, port, link_name)

    def _link_down(self, port: "OutputPort", link_name: str) -> None:
        """Outage begins: abort the in-flight packet and hold the queue."""
        state = port.fault_state
        if state is None or state.down:
            return
        state.down = True
        self.transitions.append((port.sim.now, link_name, "down"))
        if port.fault_interrupt():
            state.packets_destroyed += 1

    def _link_up(self, port: "OutputPort", link_name: str) -> None:
        """Outage ends: resume draining the held queue."""
        state = port.fault_state
        if state is None or not state.down:
            return
        state.down = False
        self.transitions.append((port.sim.now, link_name, "up"))
        port.fault_resume()

    def packets_destroyed(self) -> int:
        """Total packets destroyed by this plan across all ports."""
        return sum(state.packets_destroyed for _, state in self.port_states)
