"""The experiment runner: one plan → execute → merge loop over two executors.

The runner expands every requested experiment into its independent cells
(scenario x seed x replay-mode) and drives them through **one** rounds loop
(:func:`_run_rounds`): plan the round's tasks, submit them to an executor,
drain the futures, merge results by cell index, and carry whatever failed
into the next round.  ``workers`` selects nothing but the executor —
:class:`_InProcessExecutor` for ``workers == 1`` (``submit`` runs the task at
once, against one :class:`ScheduleCache` for the whole run), a
``ProcessPoolExecutor`` otherwise (fresh for every round).  Either way a
task runs through :func:`_run_task`, the single place that arms the per-cell
deadline and turns an exception into a picklable failure value.  Packet and
flow ids belong to the simulator that allocates them, so a cell's simulation
cannot depend on which process, or how many cells earlier, it executes in;
two more properties make rows identical for every ``workers``:

* every cell's randomness comes from its own resolved seed — nothing is
  drawn from a shared stream;
* results are merged by cell index, never by completion order.

Two steps exist only where they can pay off, in a pool (``workers > 1``):

* **One task per schedule key.**  The driver computes every replay cell's
  schedule-cache key from plain specs and submits one task per unique key.
  That task records the schedule first when the shared on-disk cache lacks
  it, then runs every cell of the key, in cell order, in the same worker —
  so each (topology, scheduler, workload, seed) key is recorded or loaded
  once per run and replayed from memory, and two workers never record the
  same schedule.  Without a disk cache the key's first cell records it, as
  a serial run's would, so hit and miss counts match ``workers=1`` wherever
  the serial run's memory cache still holds a key at its last cell.
* **Shard work-stealing** (with a disk cache only).  For experiments that opt in
  (``ExperimentDef.supports_shards`` — the scale tier) each shard of a cell
  is its own task, so workers draining the shared task queue steal shards of
  a big cell instead of idling behind it, and the driver merges the partials
  in shard-index order.  The shard partition is a pure function of the cell
  and the cache's ``shard_packets`` — never of worker count — so work-stolen
  rows are bit-identical to those of a cell that ran whole, folding the same
  partition in order inside its one task (every other configuration).
  Shard planning reads the entry on disk, so these cells run after every
  key task, not inside one.

The loop is also what hardens the runner against *real* failure: tasks run
under an optional per-cell timeout, and a cell that raises (or whose worker
dies — a crashed process breaks the whole ``ProcessPoolExecutor``) is
retried in up to ``max_retries`` further rounds with exponential backoff.
Whatever still fails after the last round is reported as a structured
:class:`CellError` on the summary instead of aborting the run and losing
every completed row.
"""

from __future__ import annotations

import os
import signal
import time
import traceback as traceback_module
from collections import OrderedDict
from concurrent.futures import Executor, Future, ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.pipeline.cache import DEFAULT_SHARD_PACKETS, ScheduleCache
from repro.pipeline.experiment import (
    Cell,
    CellResult,
    ExperimentDef,
    ScenarioRegistry,
    cached_schedule,
    default_registry,
    scenario_cache_key,
)
from repro.pipeline.scenario import PipelineConfigError, Scenario
from repro.utils.stats import summarize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> pipeline)
    from repro.experiments.config import ExperimentResult, ExperimentScale


class CellTimeoutError(RuntimeError):
    """A cell exceeded the run's per-cell time budget (``--cell-timeout``)."""


@dataclass
class CellError:
    """One cell that failed every attempt, as a structured error row.

    Serialized into the ``--json`` payload's ``"errors"`` list, so a
    partially failed campaign still reports exactly which cells died, why,
    and after how many attempts — next to every row that did complete.
    """

    cell_id: str
    experiment: str
    label: str
    mode: str
    seed: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    phase: str = "run"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form for the CLI payload."""
        return asdict(self)


@dataclass
class _CellFailure:
    """A worker-side exception, captured in picklable form.

    Workers return this instead of raising: an exception propagating out of
    a pool task used to abort the entire run and lose every completed row.
    """

    error_type: str
    message: str
    traceback: str

    @classmethod
    def capture(cls, error: BaseException) -> "_CellFailure":
        return cls(
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback_module.format_exception(type(error), error, error.__traceback__)
            ),
        )


#: How long after an expired (and possibly swallowed) deadline it fires again.
_DEADLINE_REPEAT_SECONDS = 0.05


@contextmanager
def _cell_deadline(seconds: Optional[float]):
    """Raise :class:`CellTimeoutError` if the body outlives ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, so it interrupts a
    simulation stuck inside pure-Python event loops.  A no-op when
    ``seconds`` is ``None`` or the platform has no ``SIGALRM`` (Windows);
    both executors run tasks on their process' main thread, which is what
    signal delivery requires.

    The alarm repeats until the body has ended: the handler's raise can land
    in a frame that cannot propagate it (a ``gc.callbacks`` function, a
    ``__del__``), where Python only reports it as unraisable — a one-shot
    alarm would leave the body running with no deadline at all.  A body that
    ends before the next alarm, every raise so far swallowed, still outlived
    its deadline: it raises on exit.
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    message = f"cell exceeded the per-cell timeout of {seconds:g}s"
    expired = []

    def _on_timeout(signum, frame):
        expired.append(True)
        raise CellTimeoutError(message)

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds, _DEADLINE_REPEAT_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise CellTimeoutError(message)


@dataclass
class RunSummary:
    """Everything a pipeline run produced, plus how it ran.

    Attributes:
        results: Per-experiment results, keyed by experiment name in the
            order they were requested.
        cells: Total number of cells executed.
        workers: Worker processes used (1 = serial, in-process).
        wall_time: End-to-end wall-clock seconds.
        cache_hits: Schedule-cache lookups served without recording.
        cache_misses: Original schedules that had to be recorded.
        notes: Caveats about how the run was interpreted (e.g. experiments
            that could not honor a ``replicates`` request).
        errors: Cells that failed every retry round, as structured
            :class:`CellError` rows (the run still completes; the CLI exits
            nonzero when this list is non-empty).
    """

    results: Dict[str, "ExperimentResult"] = field(default_factory=dict)
    cells: int = 0
    workers: int = 1
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    notes: List[str] = field(default_factory=list)
    errors: List[CellError] = field(default_factory=list)

    @property
    def records_computed(self) -> int:
        """Original-schedule recordings performed (0 on a fully warm cache)."""
        return self.cache_misses

    def format(self) -> str:
        """One-paragraph human-readable run summary."""
        total = self.cache_hits + self.cache_misses
        completed = self.cells - len(self.errors)
        lines = [
            f"pipeline: {len(self.results)} experiment(s), {self.cells} cell(s), "
            f"{self.workers} worker(s), {self.wall_time:.2f}s wall-clock",
            f"schedule cache: {self.cache_hits}/{total} hit(s), "
            f"{self.records_computed} schedule(s) recorded"
            + (" (warm cache: nothing re-recorded)" if total and not self.cache_misses else ""),
        ]
        if self.errors:
            lines.append(
                f"FAILED: {len(self.errors)}/{self.cells} cell(s) "
                f"({completed} completed); failed cells:"
            )
            lines.extend(
                f"  {error.cell_id}: {error.error_type}: {error.message} "
                f"(after {error.attempts} attempt(s))"
                for error in self.errors
            )
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _execute_cell(
    definition: ExperimentDef,
    cell: Cell,
    scale: ExperimentScale,
    cache: ScheduleCache,
) -> CellResult:
    """Run one whole cell with per-cell cache accounting.

    Shard-capable cells (``definition.supports_shards``) run shard by shard
    — the same deterministic partition the pool work-steals — with partials
    merged in shard-index order, so whole-cell and work-stolen rows are
    identical.
    """
    hits_before, misses_before = cache.hits, cache.misses
    shards: List = []
    if definition.supports_shards:
        shards = definition.cell_shards(cell, scale, cache)
    if shards:
        partials = [
            definition.run_cell_shard(cell, shard, scale, cache) for shard in shards
        ]
        result = definition.merge_shards(cell, scale, partials)
    else:
        result = definition.run_cell(cell, scale, cache)
    result.cache_hits = cache.hits - hits_before
    result.cache_misses = cache.misses - misses_before
    return result


# ---------------------------------------------------------------------- #
# Tasks and the two executors
# ---------------------------------------------------------------------- #
@dataclass
class _Task:
    """One unit of executor work: ``kind`` is ``"key"`` (one schedule key:
    put ``scenario``'s schedule into the cache when set, then run each of
    ``riders`` whole, in order), ``"cell"`` (run ``cell`` whole) or
    ``"shard"`` (run one ``shard`` of it).  Definitions ship in the task
    (they are plain picklable objects), so workers honor whatever registry —
    global or caller-supplied — the driver resolved names against, on fork
    and spawn platforms alike.
    """

    kind: str
    scale: "ExperimentScale"
    definition: Optional[ExperimentDef] = None
    cell: Optional[Cell] = None
    shard: object = None
    scenario: Optional[Scenario] = None
    riders: Sequence[Tuple[ExperimentDef, Cell]] = ()


#: What a task runs against: ``(schedule cache, per-cell timeout)``.
_TaskContext = Tuple[ScheduleCache, Optional[float]]

#: A pool worker's context, set once per process by :func:`_worker_init`.
_WORKER_CONTEXT: Optional[_TaskContext] = None


def _worker_init(
    cache_dir: Optional[str],
    backend: Optional[str],
    cell_timeout: Optional[float],
    shard_packets: int,
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (ScheduleCache(cache_dir, shard_packets=shard_packets), cell_timeout)
    if backend is not None:
        # Workers resolve the run's engine through the same process-wide
        # channel as everything else (see replay_candidates); an explicit
        # initarg — rather than inherited environment — keeps spawn-based
        # platforms working.
        from repro.sim.backend import BACKEND_ENV_VAR

        os.environ[BACKEND_ENV_VAR] = backend


def _record(scenario: Scenario, cache: ScheduleCache) -> int:
    """Put ``scenario``'s schedule into ``cache``; the number actually recorded
    (0 when another run populated the entry between planning and execution)."""
    misses_before = cache.misses
    cached_schedule(scenario, cache)
    return cache.misses - misses_before


def _run_task(task: _Task, context: Optional[_TaskContext] = None) -> object:
    """Execute one task; the worker side of the loop, for both executors.

    Returns the task's outcome — a shard task's picklable partial, a cell
    task's :class:`CellResult`, a key task's ``(recorded, [outcome per
    rider])`` where ``recorded`` is :func:`_record`'s count (0 when the task
    records nothing) — with a :class:`_CellFailure` standing in for any step
    that raised.  Each step (the recording, every rider) runs under its own
    per-cell deadline, and exceptions (the timeout included) come back as
    values, never as raises: a raise would poison a pool future, lose the
    traceback, and take the key's other cells with it.

    ``context`` is the in-process executor's; pool workers fall back to the
    one :func:`_worker_init` built for their process.
    """
    cache, timeout = context if context is not None else _WORKER_CONTEXT

    def guarded(step: Callable[..., object], *args: object) -> object:
        try:
            with _cell_deadline(timeout):
                return step(*args)
        except Exception as error:
            return _CellFailure.capture(error)

    if task.kind == "shard":
        return guarded(task.definition.run_cell_shard, task.cell, task.shard, task.scale, cache)
    if task.kind == "cell":
        return guarded(_execute_cell, task.definition, task.cell, task.scale, cache)
    recorded = 0 if task.scenario is None else guarded(_record, task.scenario, cache)
    return recorded, [
        guarded(_execute_cell, definition, cell, task.scale, cache)
        for definition, cell in task.riders
    ]


class _InProcessExecutor(Executor):
    """The ``workers == 1`` executor: ``submit`` runs the task at once, here.

    One :class:`ScheduleCache` serves every task of every round.  It lives on
    this object, not in a module global, so it is released with the run.
    """

    def __init__(self, context: _TaskContext) -> None:
        self._context = context

    def submit(self, fn, task: _Task) -> Future:
        """Run ``fn(task, context)`` now; return an already-finished future."""
        future: Future = Future()
        future.set_result(fn(task, self._context))
        return future


def _drain(futures: Dict[Future, object]) -> Iterator[Tuple[object, object, bool]]:
    """Yield ``(tag, outcome, crashed)`` for each future as it completes.

    ``futures`` maps each future to the caller's tag for it.  A future that
    raises instead of returning — ``BrokenProcessPool`` because a worker
    died, or a result that failed to unpickle — yields a captured
    :class:`_CellFailure` with ``crashed`` set: the pool is not usable for
    the rest of the round.
    """
    for future in as_completed(futures):
        try:
            outcome, crashed = future.result(), False
        except Exception as error:
            outcome, crashed = _CellFailure.capture(error), True
        yield futures[future], outcome, crashed


def _plan_records(
    tasks: Sequence[Tuple[ExperimentDef, Cell]], cache: Optional[ScheduleCache]
) -> Tuple[Dict[int, str], Dict[str, Scenario]]:
    """Each replay cell's schedule key, and the schedules to record up front.

    Returns ``(key by task index, scenario by missing unique key)``.  Only
    cells whose spec is a :class:`Scenario` go through the schedule cache
    (direct-simulation cells carry other specs); those sharing one original
    schedule — across modes *and* across experiments — share one key, so a
    key task records it exactly once.  Without a disk ``cache`` nothing is
    planned for recording: the key's first cell records it.
    """
    keys: Dict[int, str] = {}
    planned: Dict[str, Scenario] = {}
    key_by_scenario: Dict[Scenario, str] = {}
    for index, (_, cell) in enumerate(tasks):
        scenario = cell.spec
        if not isinstance(scenario, Scenario):
            continue
        # Scenarios are frozen/hashable; memoize so cells sharing one
        # scenario hash its topology and workload specs only once.
        key = key_by_scenario.get(scenario)
        if key is None:
            key = scenario_cache_key(scenario)
            key_by_scenario[scenario] = key
        keys[index] = key
        if cache is not None and key not in planned and key not in cache:
            planned[key] = scenario
    return keys, planned


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
@contextmanager
def backend_scope(backend: Optional[str]):
    """Pin ``backend`` as the process-wide engine for the duration of a run.

    The selection travels through :data:`~repro.sim.backend.BACKEND_ENV_VAR`
    — the channel :func:`~repro.sim.backend.replay_candidates` consults when
    a replay names no engine — so every replay in the run (in-process
    tasks, nested helpers) picks it up without threading a
    parameter through each experiment definition.  ``None`` pins nothing:
    each replay then takes the fastest available engine that supports its
    configuration.
    The previous value is restored on exit, and the backend is resolved
    eagerly so an unknown name or missing optional dependency fails before
    any cell runs (``PipelineConfigError``, CLI exit 2).
    """
    if backend is None:
        yield
        return
    from repro.sim.backend import BACKEND_ENV_VAR, get_backend

    get_backend(backend)  # fail fast: unknown name / missing dependency
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = backend
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous


#: Stands in for a cell that was never submitted: a key task crashed the pool
#: in every round.
_NEVER_RAN = _CellFailure(
    "UnknownWorkerFailure", "worker finished without reporting a result", ""
)


def _cell_error(cell: Cell, failure: _CellFailure, attempts: int) -> CellError:
    """Build the structured error row for a cell that failed every attempt."""
    return CellError(
        cell_id=cell.cell_id,
        experiment=cell.experiment,
        label=cell.label,
        mode=cell.mode,
        seed=cell.seed,
        attempts=attempts,
        **asdict(failure),
    )


def run_pipeline(
    names: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    registry: Optional[ScenarioRegistry] = None,
    replicates: int = 1,
    workload: Optional[str] = None,
    slack_policy: Optional[str] = None,
    backend: Optional[str] = None,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    cell_timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff: float = 0.5,
    shard_packets: Optional[int] = None,
) -> RunSummary:
    """Run experiments, optionally fanning their cells across processes.

    Args:
        names: Experiment names to run (default: every registered one).
        scale: Scale preset (default: quick).
        workers: Worker processes; ``<= 1`` (or a run of at most one cell)
            executes every task in this process, in cell order.
        cache_dir: On-disk schedule-cache directory shared by all workers
            (``None`` = in-memory caches only).
        registry: Registry to resolve names against (default: the global one).
        replicates: Seed replicates for experiments that support them
            (each replicate re-runs every replay scenario under a distinct,
            deterministically derived seed).  Replicated results additionally
            carry per-row mean/stddev/95% CI aggregates.
        workload: Workload-registry name overriding every scenario's
            workload, for experiments that support it (``python -m repro run
            ... --workload <name>``).
        slack_policy: Slack-policy registry name overriding every scenario's
            replay initialization, for experiments that support it
            (``python -m repro run ... --slack-policy <name>``).
        backend: Replay-engine name (see
            :data:`repro.sim.backend.ENGINES`) pinned for the whole run — in-process
            tasks and pool workers alike (``python -m repro run ...
            --backend <name>``); ``None`` lets each replay take the fastest
            available engine that supports it.  Validated before anything runs;
            backends are bit-identical by contract, so rows and cache
            entries do not depend on this choice.
        faults: Fault-schedule registry name (see :data:`repro.faults.FAULTS`)
            overriding every scenario's fault plan, for experiments that
            support it (``python -m repro run ... --fault <name>``).
        fault_seed: Seed accompanying the ``faults`` override (independent
            of every workload seed).
        cell_timeout: Per-cell wall-clock budget in seconds; a cell that
            outlives it fails with :class:`CellTimeoutError` (and is retried
            like any other failure).  ``None`` = no timeout.
        max_retries: How many extra rounds failed cells are retried, for
            every ``workers``: a failed cell re-runs in the next round, after
            the round's remaining cells.  With a pool each round gets a
            *fresh* one, so a crashed worker (which breaks the whole
            ``ProcessPoolExecutor``) is recovered from, not just in-cell
            exceptions.
        retry_backoff: Base of the exponential backoff between retry rounds
            (round *n* sleeps ``retry_backoff * 2**(n-1)`` seconds, once per
            round — not once per failed cell).
        shard_packets: Shard size for every :class:`ScheduleCache` the run
            constructs (driver, in-process, and pool workers alike) — both the
            persistence threshold/chunk for sharded cache entries and the
            shard partition size for shard-capable experiments (``python -m
            repro run ... --shard-packets N``).  Storage layout only: cache
            keys and result rows do not depend on it (rows of sharded cells
            are bit-identical across values by the shard determinism
            contract, up to the documented float-fold bits which are pinned
            per value).

    Returns:
        A :class:`RunSummary` with per-experiment results merged in cell
        order — identical rows regardless of ``workers``.  Cells that failed
        every attempt are reported in ``summary.errors`` (their rows are
        simply absent); the run itself never aborts on a cell failure.
        ``cache_hits`` / ``cache_misses`` sum the recording phase and the
        *completed* cells' lookups (a cell that failed contributes none).

    Raises:
        PipelineConfigError: before anything runs, for an impossible
            configuration — including ``shard_packets < 1``,
            ``cell_timeout <= 0``, ``max_retries < 0`` or
            ``retry_backoff < 0`` (the CLI prints it and exits 2).
    """
    from repro.experiments.config import ExperimentScale

    start = time.perf_counter()
    shard_packets = (
        shard_packets if shard_packets is not None else DEFAULT_SHARD_PACKETS
    )
    out_of_range = [
        f"{option} must be {bound}, got {value!r}"
        for option, value, bound, in_range in (
            ("shard_packets", shard_packets, ">= 1", shard_packets >= 1),
            # setitimer(0) disarms: a zero budget would silently mean "no deadline".
            ("cell_timeout", cell_timeout, "> 0", cell_timeout is None or cell_timeout > 0),
            ("max_retries", max_retries, ">= 0", max_retries >= 0),
            ("retry_backoff", retry_backoff, ">= 0", retry_backoff >= 0),
        )
        if not in_range
    ]
    if out_of_range:
        raise PipelineConfigError("; ".join(out_of_range))
    registry = registry or default_registry()
    scale = scale or ExperimentScale.quick()
    selected = list(names) if names is not None else registry.names()

    # (override, requested value or None, what the experiments that do not
    # support it did instead) — in the order the notes are reported.
    overrides = [
        ("replicates", replicates if replicates > 1 else None, "ran single-seed"),
        ("workload", workload, "kept their own workloads"),
        ("slack_policy", slack_policy, "kept their default replay initialization"),
        ("faults", faults, "replayed fault-free"),
    ]
    companions = {"faults": {"fault_seed": fault_seed}}
    definitions: List[ExperimentDef] = []
    unsupported: Dict[str, List[str]] = {override: [] for override, _, _ in overrides}
    for name in selected:
        definition = registry.get(name)
        for override, value, _ in overrides:
            if value is None:
                continue
            if getattr(definition, f"supports_{override}"):
                definition = definition.with_overrides(
                    **{override: value}, **companions.get(override, {})
                )
            else:
                unsupported[override].append(name)
        definitions.append(definition)
    notes = [
        f"{override}={value!r} not supported by: {', '.join(unsupported[override])} "
        f"(those experiments {consequence})"
        for override, value, consequence in overrides
        if unsupported[override]
    ]

    tasks: List[Tuple[ExperimentDef, Cell]] = []
    spans: List[Tuple[str, int, int]] = []  # (name, first task index, count)
    for definition in definitions:
        cells = definition.cells(scale)
        spans.append((definition.name, len(tasks), len(cells)))
        tasks.extend((definition, cell) for cell in cells)

    # The executor is all that ``workers`` selects.  A pool is fresh per round
    # — a dead worker breaks the whole ProcessPoolExecutor — while the
    # in-process executor (and its one cache) serves every round.
    workers = workers if workers > 1 and len(tasks) > 1 else 1
    if workers > 1:
        def make_executor() -> Executor:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(cache_dir, backend, cell_timeout, shard_packets),
            )
    else:
        in_process = _InProcessExecutor(
            (ScheduleCache(cache_dir, shard_packets=shard_packets), cell_timeout)
        )
        make_executor = lambda: in_process  # noqa: E731
    # Recording up front and shard work-stealing need workers that share
    # recordings through a disk layer; the driver plans both from this cache.
    plan_cache = (
        ScheduleCache(cache_dir, shard_packets=shard_packets)
        if workers > 1 and cache_dir is not None
        else None
    )
    with backend_scope(backend):
        if workers > 1 and backend is None:
            # The first engine probe of a process may compile the C kernel
            # (repro.sim.compiled).  Do it here, once, before any pool forks:
            # N workers must not race to build N times, and a build must not
            # run under a cell's SIGALRM deadline.  A serial run stays lazy —
            # one that never replays never probes.
            from repro.sim.backend import replay_candidates

            replay_candidates()
        cell_results, errors, records_computed, unrecorded = _run_rounds(
            tasks, scale, make_executor, workers > 1, plan_cache, max_retries, retry_backoff
        )
    if unrecorded:
        notes.append(
            f"{unrecorded} schedule recording(s) never completed in "
            "phase 1; dependent cells recorded in-worker or failed (see errors)"
        )

    results: Dict[str, ExperimentResult] = {}
    for definition, (name, first, count) in zip(definitions, spans):
        chunk = [r for r in cell_results[first : first + count] if r is not None]
        result = definition.assemble(scale, chunk)
        if replicates > 1 and name not in unsupported["replicates"]:
            result.aggregates = aggregate_replicate_rows(result.rows)
        results[name] = result

    completed = [r for r in cell_results if r is not None]
    return RunSummary(
        results=results,
        cells=len(tasks),
        workers=workers,
        wall_time=time.perf_counter() - start,
        cache_hits=sum(r.cache_hits for r in completed),
        cache_misses=records_computed + sum(r.cache_misses for r in completed),
        notes=notes,
        errors=errors,
    )


def _run_rounds(
    tasks: Sequence[Tuple[ExperimentDef, Cell]],
    scale: "ExperimentScale",
    make_executor: Callable[[], Executor],
    pooled: bool,
    plan_cache: Optional[ScheduleCache],
    max_retries: int,
    retry_backoff: float,
) -> Tuple[List[Optional[CellResult]], List[CellError], int, int]:
    """The one loop: plan → submit → drain → merge by index → retry.

    Runs up to ``max_retries + 1`` rounds, each on the executor
    ``make_executor()`` returns (entered as a context manager, so a pool is
    shut down at the end of its round).  Within a round, phase 1 submits one
    task per schedule key and phase 2 runs the still-pending cells that ride
    no key task; items that failed stay pending for the next round, items
    that succeeded never re-run.  Phase 1 exists only when ``pooled``: a key
    task records its key when ``plan_cache`` (the driver's view of the
    shared on-disk cache) lacks it, then runs the key's pending cells.  With
    ``plan_cache`` the cells of shard-capable definitions stay in phase 2,
    which expands them into one task per shard.

    Returns ``(cell results by task index, errors, schedules recorded in
    phase 1, recordings that never completed)``.
    """
    keys, pending_records = _plan_records(tasks, plan_cache) if pooled else ({}, {})
    # A replay cell rides its key's task unless phase 2 must shard it from disk.
    riding = {
        index: key
        for index, key in keys.items()
        if plan_cache is None or not tasks[index][0].supports_shards
    }
    pending_cells: Dict[int, Tuple[ExperimentDef, Cell]] = dict(enumerate(tasks))
    results: List[Optional[CellResult]] = [None] * len(tasks)
    attempts: Dict[int, int] = {}
    failures: Dict[int, _CellFailure] = {}
    records_computed = 0

    def settle(index: int, outcome: object) -> None:
        if isinstance(outcome, _CellFailure):
            failures[index] = outcome
        else:
            results[index] = outcome

    for round_index in range(max_retries + 1):
        if not pending_records and not pending_cells:
            break
        if round_index:
            time.sleep(retry_backoff * 2 ** (round_index - 1))
        with make_executor() as executor:
            # Phase 1 (keys): each key's recording, when still missing, then
            # its pending cells in cell order, all in one worker — so the
            # cells replay the schedule from that worker's memory.  A
            # recording that fails stays pending; its cells record in-worker.
            riders: Dict[str, List[int]] = {key: [] for key in pending_records}
            for index in pending_cells:
                if index in riding:
                    riders.setdefault(riding[index], []).append(index)
                    attempts[index] = attempts.get(index, 0) + 1
            key_futures = {
                executor.submit(
                    _run_task,
                    _Task(
                        "key",
                        scale,
                        scenario=pending_records.get(key),
                        riders=[pending_cells[index] for index in indices],
                    ),
                ): key
                for key, indices in riders.items()
            }
            pool_broken = False
            for key, outcome, crashed in _drain(key_futures):
                if crashed:  # the key's cells fail this round, and retry
                    pool_broken = True
                    for index in riders[key]:
                        failures[index] = outcome
                    continue
                recorded, outcomes = outcome
                if not isinstance(recorded, _CellFailure):
                    records_computed += recorded
                    pending_records.pop(key, None)
                for index, cell_outcome in zip(riders[key], outcomes):
                    settle(index, cell_outcome)
            # Phase 2 (cells): every other pending cell against the
            # (best-effort) warm cache — whole, or with a plan cache one task
            # *per shard*: the executor's task queue is the work-stealing
            # mechanism.  A broken pool runs nothing more this round.
            futures: Dict[Future, Tuple[int, Optional[int]]] = {}
            partials: Dict[int, List[object]] = {}
            for index, (definition, cell) in pending_cells.items():
                if pool_broken or index in riding:
                    continue
                attempts[index] = attempts.get(index, 0) + 1
                shards: List[object] = []
                if plan_cache is not None and definition.supports_shards:
                    try:
                        shards = definition.cell_shards(cell, scale, plan_cache)
                    except Exception:
                        shards = []  # fall back to whole-cell execution
                if len(shards) > 1:
                    partials[index] = [None] * len(shards)
                    for shard_index, shard in enumerate(shards):
                        task = _Task("shard", scale, definition, cell, shard)
                        futures[executor.submit(_run_task, task)] = (index, shard_index)
                else:
                    task = _Task("cell", scale, definition, cell)
                    futures[executor.submit(_run_task, task)] = (index, None)
            for (index, shard_index), outcome, _ in _drain(futures):
                if shard_index is None or isinstance(outcome, _CellFailure):
                    settle(index, outcome)
                else:
                    partials[index][shard_index] = outcome
        # Merge, in shard-index order (the determinism rule), every sharded
        # cell whose shards all completed.  One failed shard leaves its cell
        # pending, and the whole cell re-runs next round — partials are cheap
        # relative to the recording they read from cache.
        for index, parts in partials.items():
            if any(part is None for part in parts):
                continue
            definition, cell = pending_cells[index]
            try:
                results[index] = definition.merge_shards(cell, scale, parts)
            except Exception as error:
                failures[index] = _CellFailure.capture(error)
        for index in [i for i in pending_cells if results[i] is not None]:
            del pending_cells[index]
            failures.pop(index, None)

    errors = [
        _cell_error(cell, failures.get(index, _NEVER_RAN), attempts.get(index, 0))
        for index, (_, cell) in pending_cells.items()
    ]
    return results, errors, records_computed, len(pending_records)


# ---------------------------------------------------------------------- #
# Replicate aggregation
# ---------------------------------------------------------------------- #
def _replicate_base(value: str) -> str:
    """Strip the ``#rN`` replicate suffix from a row label."""
    return value.split("#r")[0]


def aggregate_replicate_rows(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Collapse replicate rows into per-base-row summary statistics.

    Rows are grouped by their string-valued identity columns (with the
    ``#rN`` replicate suffix stripped); every numeric column then yields
    ``<column>_mean`` / ``<column>_stddev`` / ``<column>_ci95`` over the
    group (sample stddev, 95% Student-t confidence half-width — see
    :func:`repro.utils.stats.summarize`).
    """
    groups: "OrderedDict[Tuple, List[Dict[str, object]]]" = OrderedDict()
    for row in rows:
        identity = tuple(
            (column, _replicate_base(value))
            for column, value in row.items()
            if isinstance(value, str)
        )
        groups.setdefault(identity, []).append(row)

    aggregated: List[Dict[str, object]] = []
    for identity, members in groups.items():
        out: Dict[str, object] = dict(identity)
        out["replicates"] = len(members)
        # Numeric columns are collected across *all* members: a column that
        # happens to be None in the first replicate (e.g. deadline fractions
        # of a seed that tagged no flows) must still be aggregated.
        numeric_columns: List[str] = []
        for member in members:
            for column, value in member.items():
                if (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and column not in numeric_columns
                ):
                    numeric_columns.append(column)
        for column in numeric_columns:
            values = [
                float(member[column])
                for member in members
                if isinstance(member.get(column), (int, float))
                and not isinstance(member.get(column), bool)
            ]
            if not values:
                continue
            stats = summarize(values)
            out[f"{column}_mean"] = stats.mean
            out[f"{column}_stddev"] = stats.stddev
            out[f"{column}_ci95"] = stats.ci95
            if len(values) != len(members):
                # Fewer samples than replicates (missing/None cells): say so
                # instead of letting the error bar silently overclaim.
                out[f"{column}_n"] = len(values)
        aggregated.append(out)
    return aggregated
