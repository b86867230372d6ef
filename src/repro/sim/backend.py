"""The three replay engines: one ordered table, one decision.

A replay of a recorded schedule can run on the OO simulator
(:mod:`repro.sim.engine`, :mod:`repro.sim.port`, :mod:`repro.schedulers.base`)
or on a flat kernel that reproduces it; :class:`SimBackend` is the contract
they share, :data:`ENGINES` says which there are, and :func:`select_engine`
decides which of them runs one replay and why the faster ones did not.

**What :meth:`SimBackend.replay` must reproduce**, to the bit of every float:

* *Event order*: events are totally ordered by ``(time, sequence)``.
  Normally scheduled events draw sequence numbers from an increasing
  non-negative counter; ``schedule_at_front`` (the replay injector's
  streaming cursor) draws from a separate negative increasing range, so
  front events at time ``t`` fire before *every* normal event at ``t``.  An
  engine must consume sequence numbers for the same logical events in the
  same order as the OO engine, or equal-time ties resolve differently.
* *Store-and-forward, non-preemptive service*: a port serializes one packet
  for ``bytes * 8 / bandwidth`` seconds (that exact float expression), then
  hands it to the link, which delivers it ``propagation_delay`` later.
* *Per-port scheduler order*: the queued packet with the smallest key is
  served first; ties break FIFO by per-port enqueue sequence.
* *Completion callbacks*: when a transmission finishes, the downstream
  arrival is scheduled *before* the port picks its next packet.

``"python"`` is the OO engine — the reference, which accepts every
configuration; ``"vectorized"`` is the array-based flat loop
(:mod:`repro.core.replay_vectorized`); ``"compiled"`` is the same
orchestration driving the native kernel (:mod:`repro.core.replay_compiled`;
built from source on first use, unavailable where it cannot be compiled).
Adding an engine is a table entry held to the same gates (``docs/backends.md``).
"""

from __future__ import annotations

import importlib
import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sim)
    from repro.core.schedule import Schedule
    from repro.core.slack import ReplayInitializer
    from repro.faults.injector import FaultPlan
    from repro.topology.base import Topology

#: Environment variable consulted when no engine is named explicitly: the
#: deployment-level pin.  Lets CI run an unmodified test subset under one
#: engine: ``REPRO_BACKEND=python pytest tests/pipeline/test_golden_rows.py``.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The reference engine: it accepts every replay configuration, so it closes
#: every candidate list (see :func:`replay_candidates`).
REFERENCE_BACKEND = "python"

#: Every engine, fastest first — the order an unselected replay is offered
#: to them — as ``module:Class``.  Imported on use, not here: the classes
#: live in :mod:`repro.core`, which imports :mod:`repro.sim`.
ENGINES: Dict[str, str] = {
    "compiled": "repro.core.replay_compiled:CompiledBackend",
    "vectorized": "repro.core.replay_vectorized:VectorizedBackend",
    REFERENCE_BACKEND: "repro.core.replay:PythonBackend",
}


class SimBackend(ABC):
    """One replay engine.

    An engine must satisfy the module-level contract: a replay of any
    schedule is *bit-identical* across engines (the equivalence suite, the
    golden-rows fixtures and the fuzzer enforce this).  It may decline
    configurations it does not implement (:meth:`decline_reason`); the
    replay then goes to the next candidate, ending at the reference engine.
    """

    #: The engine's key in :data:`ENGINES`.
    name: str = "abstract"

    #: One-line replay-support note for ``python -m repro list --backends``.
    replay_note: str = "no replay note"

    def unavailable_reason(self) -> Optional[str]:
        """Why this engine cannot run here at all, or ``None`` if it can.

        An unavailable engine is never offered a replay; naming one
        (``--backend``, ``$REPRO_BACKEND``) is refused with this reason.
        """
        return None

    def build_info(self) -> Optional[dict]:
        """Build metadata for ``list --backends``; ``None`` = no build step (pure Python)."""
        return None

    def decline_reason(
        self,
        topology: "Topology",
        mode: str,
        default_buffer_bytes: Optional[float] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> Optional[str]:
        """Why :meth:`replay` cannot reproduce this exact configuration, or ``None``.

        Asked only by :func:`select_engine`.  An engine must name a reason
        for anything it cannot replay bit-identically; the strings are short,
        stable and end up in the replay's log line.  An empty fault plan
        counts as fault-free.
        """
        return None

    @abstractmethod
    def replay(
        self,
        topology: "Topology",
        schedule: "Schedule",
        mode: str = "lstf",
        default_buffer_bytes: Optional[float] = None,
        max_events: Optional[int] = None,
        initializer: Optional["ReplayInitializer"] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> "Schedule":
        """Replay ``schedule`` on ``topology``; see :func:`repro.core.replay.replay_schedule`."""


def _config_error(message: str) -> Exception:
    """A ``PipelineConfigError`` (CLI exit 2), imported late: sim sits below pipeline."""
    from repro.pipeline.scenario import PipelineConfigError

    return PipelineConfigError(message)


def _load(name: str) -> SimBackend:
    """The engine ``name`` of the table, availability unchecked."""
    target = ENGINES.get(name)
    if target is None:
        raise _config_error(
            f"unknown backend {name!r}; registered backends: {', '.join(sorted(ENGINES))} "
            "(see `python -m repro list --backends`)"
        )
    module, _, cls = target.partition(":")
    return getattr(importlib.import_module(module), cls)()


def get_backend(name: str) -> SimBackend:
    """The engine ``name``, usable here.

    Raises:
        PipelineConfigError: the name is not in the table ("unknown backend
            ...", listing the names), or the engine is unavailable, in which
            case the message names it and carries the precise reason (e.g.
            ``compiled`` without a C compiler).  Both exit 2 at the CLI.
    """
    engine = _load(name)
    reason = engine.unavailable_reason()
    if reason is not None:
        raise _config_error(f"backend {name!r} is unavailable: {reason}")
    return engine


def describe_backends() -> List[dict]:
    """Availability report for every engine, fastest first (CLI ``list --backends``).

    One entry per engine: ``{"name", "available", "default", "reason",
    "replay_note", "build"}`` — ``default`` marks the engine an unselected
    replay is offered to first (the fastest available), ``reason`` is
    :meth:`SimBackend.unavailable_reason`, ``build`` the engine's build
    metadata when it is available and reports any.
    """
    entries = []
    for name in ENGINES:
        engine = _load(name)
        reason = engine.unavailable_reason()
        entries.append(
            {
                "name": name,
                "available": reason is None,
                "default": reason is None and not any(e["available"] for e in entries),
                "reason": reason,
                "replay_note": engine.replay_note,
                "build": engine.build_info() if reason is None else None,
            }
        )
    return entries


def pinned_backend_name() -> Optional[str]:
    """The engine pinned process-wide through :data:`BACKEND_ENV_VAR`, or ``None``.

    The one read of the variable: replays consult it when they name no
    engine, and recording consults it to stay on the reference engine under
    a ``python`` pin (:func:`repro.sim.flat_record.decline_reason`).
    """
    return os.environ.get(BACKEND_ENV_VAR) or None


def _available() -> Tuple[SimBackend, ...]:
    """The table's engines that can run here, fastest first.  Asking ``compiled``
    is what probes (and once, builds) the C kernel; :mod:`repro.sim.compiled` remembers."""
    engines = [_load(name) for name in ENGINES]
    return tuple(engine for engine in engines if engine.unavailable_reason() is None)


def replay_candidates(selector: Optional[str] = None) -> Tuple[SimBackend, ...]:
    """The engines a replay is offered to, in order; the first that accepts runs it.

    A named engine — the argument, else :data:`BACKEND_ENV_VAR` — is offered
    the replay alone, with the reference engine behind it for configurations
    it declines.  No name means the table, fastest first, unavailable
    engines skipped.

    Raises:
        PipelineConfigError: a named engine is unknown or unavailable (same
            errors as :func:`get_backend`).
    """
    name = selector or pinned_backend_name()
    if name is None:
        return _available()
    return tuple(get_backend(each) for each in dict.fromkeys((name, REFERENCE_BACKEND)))


def select_engine(
    selector: Optional[str],
    topology: "Topology",
    mode: str = "lstf",
    default_buffer_bytes: Optional[float] = None,
    faults: Optional["FaultPlan"] = None,
) -> Tuple[SimBackend, List[Tuple[str, str]]]:
    """Which engine runs this replay, and ``(name, reason)`` for each that declined it first.

    The one decision: :func:`repro.core.replay.replay_schedule` obeys and
    logs it, and whoever needs to *know* it (``diff --replay``'s note, the
    fuzzer's bookkeeping, the selection tests) calls this rather than
    re-deriving it.  Pure given the environment: the first of
    :func:`replay_candidates` whose :meth:`SimBackend.decline_reason` is
    ``None`` — so an unflagged Table-1 replay (and the ``fifo`` baseline)
    lands on the fast path, a fault-bearing one on ``vectorized``
    (``compiled`` declines a fault plan and the offer falls through), and
    finite-buffer and ``lstf-preemptive`` replays on the reference engine.
    """
    declined: List[Tuple[str, str]] = []
    for engine in replay_candidates(selector):
        reason = engine.decline_reason(topology, mode, default_buffer_bytes, faults)
        if reason is None:
            return engine, declined
        declined.append((engine.name, reason))
    raise RuntimeError(f"the reference engine declined a replay: {declined}")


def resolve_backend(selector: Optional[str]) -> SimBackend:
    """Shim: the named engine, else the pin, else the reference engine.

    Imported by the frozen ``benchmarks/perf/run.py`` to stage its traced
    replay span; nothing in ``src/`` calls it and ROADMAP item 1 deletes it.
    Replays choose through :func:`select_engine`.
    """
    return get_backend(selector or pinned_backend_name() or REFERENCE_BACKEND)


def available_backend_names(mode: str = "lstf") -> List[str]:
    """Shim: the available engines that replay ``mode``, reference first.

    Imported by the frozen ``benchmarks/perf/run.py`` to enumerate its
    replay spans; nothing in ``src/`` calls it and ROADMAP item 1 deletes it.
    """
    from repro.topology.base import Topology

    names = [engine.name for engine in reversed(_available())]
    return [n for n in names if select_engine(n, Topology("linkless"), mode)[0].name == n]
