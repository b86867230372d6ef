"""The ``SimBackend`` seam: pluggable engines behind one replay contract.

The OO simulator (:mod:`repro.sim.engine`, :mod:`repro.sim.port`,
:mod:`repro.schedulers.base`) and any optimized engine implicitly share a
narrow contract; this module makes it explicit so engines can be swapped by
name without touching callers.  The contract has two halves:

**Event-loop semantics** (what :meth:`SimBackend.make_simulator` returns):

* *Advance-to-next-event*: the engine repeatedly executes the earliest
  pending event and advances the clock to its timestamp; the clock never
  moves backwards.
* *Deterministic tie-breaking*: events are totally ordered by
  ``(time, sequence)``.  Normally scheduled events draw sequence numbers
  from an increasing non-negative counter (so same-time events fire in
  scheduling order); ``schedule_at_front`` draws from a separate negative
  increasing range, so front events at time ``t`` fire before *every*
  normally scheduled event at ``t`` — including ones scheduled earlier.
  The replay injector's streaming cursor depends on this.
* *Cancellation is lazy but observably exact*: cancelling marks the event
  in O(1); the entry is physically discarded only when it surfaces at the
  heap head.  Observable semantics are nevertheless strict, however the
  event was cancelled (``Simulator.cancel`` or a direct ``Event.cancel()``):
  ``peek_next_time`` never returns a cancelled event's time, a cancelled
  event never fires, and once a dead entry has been discarded it is excluded
  from ``pending_events``.  The cross-backend contract test
  (``tests/sim/test_backend_equivalence.py``) runs the cancel-then-peek
  sequence against every registered backend's simulator.

**Port-service semantics** (what :meth:`SimBackend.replay` must reproduce):

* Store-and-forward, non-preemptive service: a port serializes one packet
  for ``bytes * 8 / bandwidth`` seconds (that exact float expression — the
  rows of every experiment are compared bit-for-bit), then hands it to the
  link, which delivers it ``propagation_delay`` later.
* Per-port scheduler order: the queued packet with the smallest key is
  served first; ties break FIFO by per-port enqueue sequence.
* Completion callbacks: when a transmission finishes, the downstream
  arrival is scheduled *before* the port picks its next packet, so the
  engine-level ``(time, seq)`` order of those two events matches the OO
  engine's exactly.

Backends register by name; ``"python"`` is the OO engine with unchanged
behaviour, ``"vectorized"`` is the array-based replay engine
(:mod:`repro.core.replay_vectorized`), and ``"compiled"`` is the same
orchestration driving the native kernel extension
(:mod:`repro.core.replay_compiled`; built from source on first use, declining
gracefully where it cannot be compiled).  Builtin backends are resolved
lazily — the providing modules live in :mod:`repro.core`, which imports
:mod:`repro.sim`, so importing them here at module scope would cycle.

See ``docs/backends.md`` for the full contract and for how to add a backend.
"""

from __future__ import annotations

import functools
import importlib
import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sim)
    from repro.core.schedule import Schedule
    from repro.core.slack import ReplayInitializer
    from repro.faults.injector import FaultPlan
    from repro.topology.base import Topology

#: Environment variable consulted when no backend is selected explicitly.
#: Lets CI run an unmodified test subset under one engine:
#: ``REPRO_BACKEND=python pytest tests/pipeline/test_golden_rows.py``.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The reference engine: supports every replay configuration, so it closes
#: every candidate list (see :func:`replay_candidates`).
REFERENCE_BACKEND = "python"


class SimBackend(ABC):
    """One simulation engine, as seen by the replay path and the pipeline.

    A backend must satisfy the module-level contract: same event ordering,
    same per-port service order, same float arithmetic — a replay of any
    schedule must be *bit-identical* across backends (the equivalence suite
    and the golden-rows fixtures enforce this).

    Backends may decline configurations they do not implement (via
    :meth:`supports_replay`); the replay then goes to the next candidate
    (:func:`replay_candidates`), ending at the ``"python"`` reference
    backend, which supports everything.
    """

    #: Registry name (set by subclasses).
    name: str = "abstract"

    #: One-line replay-support note for ``python -m repro list --backends``.
    replay_note: str = "no replay note"

    def make_simulator(self) -> Simulator:
        """A fresh event-loop instance honouring the engine contract.

        The default returns the reference :class:`~repro.sim.engine.Simulator`;
        backends that accelerate only the batch replay path (and so have no
        incremental event loop of their own) inherit it, which is also what
        keeps the cancel-then-peek contract test meaningful for them.
        """
        return Simulator()

    def check_available(self) -> None:
        """Raise ``PipelineConfigError`` if the backend's dependencies are missing.

        Called whenever the backend is explicitly resolved by name, so a
        ``--backend`` request without the needed extras fails fast with a
        clean configuration error (CLI exit 2) instead of an ImportError
        mid-run.  The default assumes no optional dependencies.
        """

    def build_info(self) -> Optional[dict]:
        """Build metadata shown by ``list --backends`` (compiler, toolchain, ...).

        ``None`` means the backend has no build step (pure Python); the
        compiled backend reports the compiler and toolchain that produced
        its kernel extension.
        """
        return None

    def supports_replay(
        self,
        mode: str,
        default_buffer_bytes: Optional[float] = None,
        initializer: Optional["ReplayInitializer"] = None,
        topology: Optional["Topology"] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> bool:
        """Whether :meth:`replay` implements this exact configuration.

        ``topology`` is the spec the replay will run on when the caller has
        it at hand (backends may decline topology-dependent features such as
        finite per-link buffers); ``None`` means "not yet known" and must be
        answered optimistically — :meth:`replay` re-checks with the real
        topology and raises if the optimism was misplaced.  ``faults`` is
        the fault plan to install during the replay; an empty plan counts as
        fault-free (backends must treat ``None`` and an empty plan alike).
        """
        return True

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


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
#: Builtin backends, resolved lazily by importing the providing module
#: (which registers itself at import time via :func:`register_backend`).
_BUILTIN_MODULES: Dict[str, str] = {
    "python": "repro.core.replay",
    "vectorized": "repro.core.replay_vectorized",
    "compiled": "repro.core.replay_compiled",
}

#: The builtin engines, fastest first; the order unselected replays try them in.
_FASTEST_FIRST = ("compiled", "vectorized", REFERENCE_BACKEND)

_REGISTRY: Dict[str, Union[SimBackend, Callable[[], SimBackend]]] = {}
_INSTANCES: Dict[str, SimBackend] = {}


def _config_error(message: str) -> Exception:
    """A ``PipelineConfigError`` (CLI exit 2), imported lazily.

    The error type lives in :mod:`repro.pipeline.scenario`; importing it at
    module scope would invert the sim → pipeline layering, so it is resolved
    only on the error path.
    """
    from repro.pipeline.scenario import PipelineConfigError

    return PipelineConfigError(message)


def register_backend(
    name: str, backend: Union[SimBackend, Callable[[], SimBackend]]
) -> None:
    """Register a backend (instance or zero-arg factory) under ``name``.

    A registered backend is opt-in by name: unselected replays only ever
    consider the builtin engines (see :func:`replay_candidates`).
    """
    _REGISTRY[name] = backend
    _INSTANCES.pop(name, None)
    _builtin_candidates.cache_clear()


def backend_names() -> List[str]:
    """Names of every known backend (builtin and registered)."""
    names = set(_BUILTIN_MODULES) | set(_REGISTRY)
    return sorted(names)


def _instantiate(name: str) -> SimBackend:
    """Construct the backend registered under ``name``, availability unchecked.

    Distinguishes the two failure classes the CLI reports differently:
    a name nobody registered raises "unknown backend" (with the registered
    names listed), while a registered backend whose dependencies are missing
    is *instantiable* — only :meth:`SimBackend.check_available` fails, which
    is what lets ``list --backends`` show unavailable backends with their
    reasons instead of erroring out.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        module = _BUILTIN_MODULES.get(name)
        if module is None:
            known = ", ".join(backend_names())
            raise _config_error(
                f"unknown backend {name!r}; registered backends: {known} "
                "(see `python -m repro list --backends`)"
            )
        importlib.import_module(module)
        entry = _REGISTRY.get(name)
        if entry is None:  # pragma: no cover - a builtin forgot to register
            raise _config_error(f"backend module {module} did not register {name!r}")
    return entry if isinstance(entry, SimBackend) else entry()


def get_backend(name: str) -> SimBackend:
    """The backend registered under ``name``.

    Raises:
        PipelineConfigError: if the name is unknown ("unknown backend ...",
            listing the registered names), or the backend is registered but
            unavailable, in which case the message names the backend and
            carries the precise reason (e.g. ``compiled`` without a C
            compiler).  Both exit 2 at the CLI.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    backend = _instantiate(name)
    backend.check_available()
    _INSTANCES[name] = backend
    return backend


def describe_backends() -> List[dict]:
    """Availability report for every registered backend (CLI ``list --backends``).

    Returns one entry per name: ``{"name", "available", "default", "reason",
    "replay_note", "build"}`` — ``default`` marks the engine an unselected
    replay tries first (the fastest available builtin), ``reason`` is the
    ``check_available`` failure message when unavailable (``None``
    otherwise), ``build`` the backend's build metadata when it reports any.
    Never raises for an unavailable backend; unknown names cannot occur (the
    listing *is* the registry).
    """
    from repro.pipeline.scenario import PipelineConfigError

    entries = []
    for name in backend_names():
        backend = _instantiate(name)
        reason: Optional[str] = None
        try:
            backend.check_available()
        except PipelineConfigError as error:
            reason = str(error)
        entries.append(
            {
                "name": name,
                "available": reason is None,
                "reason": reason,
                "replay_note": backend.replay_note,
                "build": backend.build_info() if reason is None else None,
            }
        )
    available = {entry["name"] for entry in entries if entry["available"]}
    default = next(name for name in _FASTEST_FIRST if name in available)
    for entry in entries:
        entry["default"] = entry["name"] == default
    return entries


def available_backend_names(mode: str = "lstf") -> List[str]:
    """Backends that can actually replay here, reference engine first.

    The reference ``"python"`` engine always leads; every other registered
    backend follows in trajectory order (``vectorized``, ``compiled``, then
    any third-party registrations sorted by name), *skipping* backends whose
    dependencies are missing or whose kernel cannot be built, and backends
    that decline ``mode``.  This is the backend enumeration ``benchmarks/perf``,
    the differential fuzz harness, and ``repro diff --replay`` all share:
    "every available backend" means exactly this list.
    """
    from repro.pipeline.scenario import PipelineConfigError

    preferred = ["python", "vectorized", "compiled"]
    names = [name for name in preferred if name in backend_names()]
    names += [name for name in sorted(backend_names()) if name not in preferred]
    usable: List[str] = []
    for name in names:
        try:
            backend = get_backend(name)
        except PipelineConfigError:
            continue
        if name == "python" or backend.supports_replay(mode):
            usable.append(name)
    return usable


def pinned_backend_name() -> Optional[str]:
    """The engine pinned process-wide through :data:`BACKEND_ENV_VAR`, or ``None``.

    The one read of the variable: replays consult it when they name no
    engine, and recording consults it to stay on the reference engine under
    a ``python`` pin (:func:`repro.sim.flat_record.decline_reason`).
    """
    return os.environ.get(BACKEND_ENV_VAR) or None


def resolve_backend(selector: Union[str, SimBackend, None]) -> SimBackend:
    """Resolve a backend selector to one instance.

    ``None`` consults the :data:`BACKEND_ENV_VAR` environment variable and
    otherwise answers :data:`REFERENCE_BACKEND` (``"python"``): this function
    sees no replay configuration, so the only engine it can name for every
    caller is the one that supports everything.  Replays choose per
    configuration through :func:`replay_candidates` instead.
    """
    if isinstance(selector, SimBackend):
        return selector
    if selector is None:
        selector = pinned_backend_name() or REFERENCE_BACKEND
    return get_backend(selector)


@functools.lru_cache(maxsize=1)
def _builtin_candidates() -> Tuple[SimBackend, ...]:
    """The available builtin engines, fastest first, probed once per process.

    :func:`register_backend` clears the memo (a builtin may have been
    replaced); the builtins' own import-time registrations land while this
    probe is still running, i.e. before its result is stored.  The reference
    engine has no dependencies, so the tuple is never empty and always ends
    with it.
    """
    from repro.pipeline.scenario import PipelineConfigError

    available = []
    for name in _FASTEST_FIRST:
        try:
            available.append(get_backend(name))
        except PipelineConfigError:
            continue  # missing dependency / unbuildable kernel
    return tuple(available)


def replay_candidates(selector: Union[str, SimBackend, None] = None) -> Tuple[SimBackend, ...]:
    """The engines a replay is offered to, in order; the first that accepts runs it.

    An explicit selector — the argument, else :data:`BACKEND_ENV_VAR` — is
    tried alone, with the reference engine behind it for configurations it
    declines.  No selector means the *builtin* engines fastest first
    (``compiled``, ``vectorized``, ``python``), unavailable ones skipped:
    a replay lands on the fastest engine whose
    :meth:`SimBackend.supports_replay` accepts its configuration, which for
    faults, finite buffers and preemption is the reference engine.  A
    third-party registration is never in the unselected list — it runs only
    when named.

    Raises:
        PipelineConfigError: an explicitly selected backend is unknown or
            unavailable (same errors as :func:`get_backend`).
    """
    if selector is None and pinned_backend_name() is None:
        return _builtin_candidates()
    return (resolve_backend(selector), get_backend(REFERENCE_BACKEND))
