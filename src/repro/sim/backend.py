"""The two replay engines and the one decision between them.

A recorded schedule replays on ``"python"``, the OO simulator
(:mod:`repro.sim.engine`, :mod:`repro.sim.port`, :mod:`repro.schedulers.base`)
and the reference, which accepts every configuration; or on ``"compiled"``,
the flat event loop of the native kernel (:mod:`repro.core.replay_compiled`,
built from source on first use by :mod:`repro.sim.compiled`), which declines
what it does not model.  :func:`select_engine` decides which one runs a
replay and why ``compiled`` did not.

**What the two must agree on**, to the bit of every float:

* *Event order*: events are totally ordered by ``(time, sequence)``.
  Normally scheduled events draw sequence numbers from an increasing
  non-negative counter; ``schedule_at_front`` (the replay injector's
  streaming cursor) draws from a separate negative increasing range, so
  front events at time ``t`` fire before *every* normal event at ``t``.  The
  flat loop consumes sequence numbers for the same logical events in the
  same order as the OO engine, or equal-time ties would resolve differently.
* *Store-and-forward, non-preemptive service*: a port serializes one packet
  for ``bytes * 8 / bandwidth`` seconds (that exact float expression), then
  hands it to the link, which delivers it ``propagation_delay`` later.
* *Per-port scheduler order*: the queued packet with the smallest key is
  served first; ties break FIFO by per-port enqueue sequence.
* *Completion callbacks*: when a transmission finishes, the downstream
  arrival is scheduled *before* the port picks its next packet.
"""

from __future__ import annotations

import os
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.compiled import kernel_available, kernel_build_info, unavailable_reason

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sim)
    from repro.faults.injector import FaultPlan
    from repro.topology.base import Topology

#: Environment variable consulted when no engine is named explicitly: the
#: deployment-level pin.  Lets CI run an unmodified test subset under one
#: engine: ``REPRO_BACKEND=python pytest tests/pipeline/test_golden_rows.py``.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The reference engine: it accepts every replay configuration.
REFERENCE_BACKEND = "python"

#: The two engines, fastest first, with their ``list --backends`` notes.
REPLAY_NOTES = {
    "compiled": "flat kernel (lstf/edf/priority/omniscient/fifo, infinite buffers, "
    "fault plans); native C event loop (built on first use; needs a C compiler)",
    REFERENCE_BACKEND: "reference OO engine; supports every replay configuration "
    "(all modes, finite buffers, preemption, any fault kind)",
}


def check_backend(name: str) -> str:
    """``name``, once it is known to be an engine that runs here.

    Raises:
        PipelineConfigError: the name is neither engine ("unknown backend
            ...", listing both), or it is ``compiled`` and the kernel does
            not load here, with the loader's reason (naming it may build
            it).  Both exit 2 at the CLI.
    """
    from repro.pipeline.scenario import PipelineConfigError  # sim sits below pipeline

    if name not in REPLAY_NOTES:
        raise PipelineConfigError(
            f"unknown backend {name!r}; registered backends: {', '.join(sorted(REPLAY_NOTES))} "
            "(see `python -m repro list --backends`)"
        )
    reason = unavailable_reason() if name != REFERENCE_BACKEND else None
    if reason is not None:
        raise PipelineConfigError(f"backend {name!r} is unavailable: {reason}")
    return name


def selected_backend(selector: Optional[str] = None) -> Optional[str]:
    """The engine ``selector`` names, else :data:`BACKEND_ENV_VAR`, checked
    (:func:`check_backend`); ``None`` when neither names one.

    The one read of the variable: replays consult it when they name no
    engine, and recording to stay on the OO engine under a ``python`` pin
    (:func:`repro.sim.flat_record.decline_reason`).
    """
    name = selector or os.environ.get(BACKEND_ENV_VAR)
    return check_backend(name) if name else None


def describe_backends() -> List[dict]:
    """Availability report for both engines, fastest first (CLI ``list --backends``).

    One entry per engine: ``{"name", "available", "default", "reason",
    "replay_note", "build"}`` — ``default`` marks the engine an unselected
    replay is offered to first (the fastest available), ``reason`` why an
    engine cannot run here, ``build`` the kernel's build metadata.
    """
    reason = unavailable_reason()
    return [
        {"name": "compiled", "available": reason is None, "default": reason is None,
         "reason": reason, "replay_note": REPLAY_NOTES["compiled"], "build": kernel_build_info()},
        {"name": REFERENCE_BACKEND, "available": True, "default": reason is not None,
         "reason": None, "replay_note": REPLAY_NOTES[REFERENCE_BACKEND], "build": None},
    ]


def select_engine(
    selector: Optional[str],
    topology: "Topology",
    mode: str = "lstf",
    faults: Optional["FaultPlan"] = None,
) -> Tuple[str, List[Tuple[str, str]]]:
    """Which engine runs this replay, and ``[("compiled", reason)]`` if it declined it.

    The one decision: :func:`repro.core.replay.replay_schedule` obeys and
    logs it, and whoever needs to *know* it (``diff --replay``'s note, the
    fuzzer's bookkeeping, the selection tests) calls this rather than
    re-deriving it.  Pure given the environment.  A named engine (the
    argument, else the pin) is checked; ``python`` runs everything; an
    unselected replay skips an unavailable kernel; ``compiled`` hands what
    :func:`repro.core.replay_compiled.decline_reason` names — finite buffers,
    ``lstf-preemptive``, foreign fault kinds — to ``python``.
    """
    name = selected_backend(selector)
    if name == REFERENCE_BACKEND or (name is None and not kernel_available()):
        return REFERENCE_BACKEND, []
    from repro.core.replay_compiled import decline_reason  # core imports sim

    reason = decline_reason(topology, mode, faults)
    return ("compiled", []) if reason is None else (REFERENCE_BACKEND, [("compiled", reason)])


def resolve_backend(selector: Optional[str]) -> SimpleNamespace:
    """Shim: ``.name`` is the named engine, else the pin, else the reference engine.

    Imported by the frozen ``benchmarks/perf/run.py`` to stage its traced
    replay span; nothing in ``src/`` calls it and ROADMAP item 1 deletes it.
    Replays choose through :func:`select_engine`.
    """
    return SimpleNamespace(name=selected_backend(selector) or REFERENCE_BACKEND)


def available_backend_names(mode: str = "lstf") -> List[str]:
    """Shim: the available engines that replay ``mode``, reference first.

    Imported by the frozen ``benchmarks/perf/run.py`` to enumerate its
    replay spans; nothing in ``src/`` calls it and ROADMAP item 1 deletes it.
    """
    from repro.topology.base import Topology

    fast = kernel_available() and select_engine("compiled", Topology("linkless"), mode)[1] == []
    return [REFERENCE_BACKEND, *(["compiled"] if fast else [])]
