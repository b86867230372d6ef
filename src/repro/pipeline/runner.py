"""Parallel experiment runner: fan cells out, merge results deterministically.

The runner expands every requested experiment into its independent cells
(scenario x seed x replay-mode), executes them either serially in-process or
across a ``ProcessPoolExecutor``, and assembles the per-experiment results in
cell order.  Three properties make parallel runs row-for-row identical to
serial ones:

* every cell resets the global packet/flow id counters before it runs, so a
  cell's simulation is bit-identical no matter which process (or how many
  cells earlier) it executes in;
* every cell's randomness comes from its own resolved seed — nothing is
  drawn from a shared stream;
* results are merged by cell index, never by completion order.

Parallel runs with an on-disk cache are **two-phase**: the driver first
computes every replay cell's schedule-cache key from plain specs, dedupes
them, and fans out one recording task per *missing unique key*; only then do
the replay cells run, all of them hitting the now-warm cache.  This removes
the cold-cache race in which two workers recorded the same schedule
concurrently (correct, but duplicated work): every (topology, scheduler,
workload, seed) key is now recorded exactly once per run.

Workers share the on-disk :class:`ScheduleCache` layer; within a process
each worker also keeps the in-memory layer, so a warm cache run records
nothing at all (``RunSummary.records_computed == 0``).

Phase 2's unit of work-stealing is the *shard*, not just the cell, for
experiments that opt in (``ExperimentDef.supports_shards`` — the scale
tier): each shard of a shard-capable cell is its own pool task, so workers
draining the shared task queue steal shards of a big cell instead of idling
behind it, and the driver merges the partials in shard-index order.  The
shard partition is a pure function of the cell and the cache's
``shard_packets`` — never of worker count — so sharded parallel rows are
bit-identical to serial ones.

The runner is also hardened against *real* failure: cells run under an
optional per-cell timeout, a cell that raises (or whose worker dies — a
crashed process breaks the whole ``ProcessPoolExecutor``) is retried across
``max_retries`` fresh pools with exponential backoff, and whatever still
fails after the last round is reported as a structured :class:`CellError`
on the summary instead of aborting the run and losing every completed row.
"""

from __future__ import annotations

import os
import signal
import time
import traceback as traceback_module
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.pipeline.cache import DEFAULT_SHARD_PACKETS, ScheduleCache
from repro.pipeline.experiment import (
    Cell,
    CellResult,
    ExperimentDef,
    ScenarioRegistry,
    default_registry,
    record_scenario_schedule,
    scenario_cache_key,
)
from repro.pipeline.scenario import Scenario
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


@contextmanager
def _cell_deadline(seconds: Optional[float]):
    """Raise :class:`CellTimeoutError` if the body outlives ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, so it interrupts a
    simulation stuck inside pure-Python event loops.  A no-op when
    ``seconds`` is ``None`` or the platform has no ``SIGALRM`` (Windows);
    both the serial runner and pool workers execute cells on their process'
    main thread, which is what signal delivery requires.
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_timeout(signum, frame):
        raise CellTimeoutError(f"cell exceeded the per-cell timeout of {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


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
    """Run one cell with fresh global counters and per-cell cache accounting.

    Shard-capable cells (``definition.supports_shards``) run shard by shard
    — the same deterministic partition the parallel runner fans out — with
    partials merged in shard-index order, so serial and work-stolen rows are
    identical.
    """
    from repro.sim.flow import reset_flow_ids
    from repro.sim.packet import reset_packet_ids

    reset_packet_ids()
    reset_flow_ids()
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
# Worker-side state (one schedule cache per pool process)
# ---------------------------------------------------------------------- #
_WORKER_CACHE: Optional[ScheduleCache] = None
_WORKER_TIMEOUT: Optional[float] = None


def _worker_init(
    cache_dir: Optional[str],
    backend: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    shard_packets: int = DEFAULT_SHARD_PACKETS,
) -> None:
    global _WORKER_CACHE, _WORKER_TIMEOUT
    _WORKER_CACHE = ScheduleCache(cache_dir, shard_packets=shard_packets)
    _WORKER_TIMEOUT = cell_timeout
    if backend is not None:
        # Workers resolve the run's engine through the same process-wide
        # channel as everything else (see replay_candidates); an explicit
        # initarg — rather than inherited environment — keeps spawn-based
        # platforms working.
        from repro.sim.backend import BACKEND_ENV_VAR

        os.environ[BACKEND_ENV_VAR] = backend


def _worker_run(
    payload: Tuple[int, ExperimentDef, Cell, "ExperimentScale"]
) -> Tuple[int, Union[CellResult, _CellFailure]]:
    # The definition itself ships in the payload (definitions are plain
    # picklable objects), so workers honor whatever registry — global or
    # caller-supplied — the driver resolved names against, on fork and
    # spawn platforms alike.  Exceptions (including the per-cell timeout)
    # come back as picklable _CellFailure values, never as raises: a raise
    # would poison the pool future and take every other cell down with it.
    index, definition, cell, scale = payload
    assert _WORKER_CACHE is not None
    try:
        with _cell_deadline(_WORKER_TIMEOUT):
            return index, _execute_cell(definition, cell, scale, _WORKER_CACHE)
    except Exception as error:
        return index, _CellFailure.capture(error)


def _worker_run_shard(
    payload: Tuple[int, int, ExperimentDef, Cell, "ExperimentScale", object]
) -> Tuple[int, int, Union[object, _CellFailure]]:
    """Phase-2 shard task: one shard of a shard-capable cell.

    Returns ``(cell index, shard index, partial)`` — the partial is whatever
    picklable value ``run_cell_shard`` produced (the driver merges them in
    shard-index order) — or a captured :class:`_CellFailure`.
    """
    from repro.sim.flow import reset_flow_ids
    from repro.sim.packet import reset_packet_ids

    index, shard_index, definition, cell, scale, shard = payload
    assert _WORKER_CACHE is not None
    reset_packet_ids()
    reset_flow_ids()
    try:
        with _cell_deadline(_WORKER_TIMEOUT):
            return (
                index,
                shard_index,
                definition.run_cell_shard(cell, shard, scale, _WORKER_CACHE),
            )
    except Exception as error:
        return index, shard_index, _CellFailure.capture(error)


def _worker_record(payload: Tuple[str, Scenario]) -> Tuple[str, Union[int, _CellFailure]]:
    """Phase-1 task: record one deduplicated scenario schedule into the cache.

    Returns ``(key, misses)`` — the number of schedules actually recorded
    (0 when another run populated the entry between planning and execution)
    — or ``(key, _CellFailure)`` when the recording raised or timed out.
    """
    from repro.sim.flow import reset_flow_ids
    from repro.sim.packet import reset_packet_ids

    key, scenario = payload
    assert _WORKER_CACHE is not None
    reset_packet_ids()
    reset_flow_ids()
    misses_before = _WORKER_CACHE.misses
    try:
        with _cell_deadline(_WORKER_TIMEOUT):
            topology = scenario.build_topology()
            workload = scenario.workload()
            # The slack policy (and its application mode) and the fault plan
            # must flow into the key here exactly as they do in
            # scenario_cache_key/replay_scenario, or phase-1 recordings
            # would land under a different entry than the phase-2 replays
            # look up.
            _WORKER_CACHE.get_or_record(
                topology=topology,
                original=scenario.original,
                workload=workload,
                seed=scenario.seed,
                recorder=lambda: record_scenario_schedule(scenario, topology, workload),
                slack_policy=scenario.slack_policy_def(),
                slack_mode=scenario.slack_mode,
                faults=scenario.fault_plan(),
            )
    except Exception as error:
        return key, _CellFailure.capture(error)
    return key, _WORKER_CACHE.misses - misses_before


def _plan_records(
    tasks: Sequence[Tuple[ExperimentDef, Cell]], cache: ScheduleCache
) -> List[Tuple[str, Scenario]]:
    """Unique (cache key, scenario) pairs whose schedules are not on disk yet.

    Only cells whose spec is a :class:`Scenario` go through the schedule
    cache (direct-simulation cells carry other specs); those sharing one
    original schedule — across modes *and* across experiments — collapse to
    a single entry, so phase 1 records each key exactly once.
    """
    planned: "OrderedDict[str, Scenario]" = OrderedDict()
    key_by_scenario: Dict[Scenario, str] = {}
    for _, cell in tasks:
        scenario = cell.spec
        if not isinstance(scenario, Scenario):
            continue
        # Scenarios are frozen/hashable; memoize so cells sharing one
        # scenario hash its topology and workload specs only once.
        key = key_by_scenario.get(scenario)
        if key is None:
            key = scenario_cache_key(scenario)
            key_by_scenario[scenario] = key
        if key not in planned and key not in cache:
            planned[key] = scenario
    return list(planned.items())


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
@contextmanager
def _backend_scope(backend: Optional[str]):
    """Pin ``backend`` as the process-wide engine for the duration of a run.

    The selection travels through :data:`~repro.sim.backend.BACKEND_ENV_VAR`
    — the channel :func:`~repro.sim.backend.replay_candidates` consults when
    a replay names no engine — so every replay in the run (serial cells,
    nested helpers) picks it up without threading a
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


def _cell_error(
    cell: Cell, failure: Optional[_CellFailure], attempts: int, phase: str = "run"
) -> CellError:
    """Build the structured error row for a cell that failed every attempt."""
    if failure is None:  # pragma: no cover - defensive (no captured failure)
        failure = _CellFailure(
            error_type="UnknownWorkerFailure",
            message="worker finished without reporting a result",
            traceback="",
        )
    return CellError(
        cell_id=cell.cell_id,
        experiment=cell.experiment,
        label=cell.label,
        mode=cell.mode,
        seed=cell.seed,
        error_type=failure.error_type,
        message=failure.message,
        traceback=failure.traceback,
        attempts=attempts,
        phase=phase,
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
        workers: Worker processes; ``<= 1`` runs serially in-process.
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
        backend: Simulation-engine registry name (see
            :mod:`repro.sim.backend`) pinned for the whole run — serial
            cells and pool workers alike (``python -m repro run ...
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
        max_retries: How many extra rounds failed cells are retried.  In
            parallel runs each retry round gets a *fresh* worker pool, so a
            crashed worker (which breaks the whole ``ProcessPoolExecutor``)
            is recovered from, not just in-cell exceptions.
        retry_backoff: Base of the exponential backoff between retry rounds
            (round *n* sleeps ``retry_backoff * 2**(n-1)`` seconds).
        shard_packets: Shard size for every :class:`ScheduleCache` the run
            constructs (driver, serial, and pool workers alike) — both the
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
    """
    from repro.experiments.config import ExperimentScale

    start = time.perf_counter()
    shard_packets = (
        shard_packets if shard_packets is not None else DEFAULT_SHARD_PACKETS
    )
    registry = registry or default_registry()
    scale = scale or ExperimentScale.quick()
    selected = list(names) if names is not None else registry.names()

    definitions: List[ExperimentDef] = []
    notes: List[str] = []
    unreplicated: List[str] = []
    unworkloaded: List[str] = []
    unpolicied: List[str] = []
    unfaulted: List[str] = []
    for name in selected:
        definition = registry.get(name)
        if workload is not None:
            if definition.supports_workload:
                definition = definition.with_workload(workload)
            else:
                unworkloaded.append(name)
        if slack_policy is not None:
            if definition.supports_slack_policy:
                definition = definition.with_slack_policy(slack_policy)
            else:
                unpolicied.append(name)
        if faults is not None:
            if definition.supports_faults:
                definition = definition.with_faults(faults, fault_seed)
            else:
                unfaulted.append(name)
        if replicates > 1:
            if definition.supports_replicates:
                definition = definition.with_replicates(replicates)
            else:
                unreplicated.append(name)
        definitions.append(definition)
    if unreplicated:
        notes.append(
            f"replicates={replicates} not supported by: {', '.join(unreplicated)} "
            "(those experiments ran single-seed)"
        )
    if unworkloaded:
        notes.append(
            f"workload={workload!r} not supported by: {', '.join(unworkloaded)} "
            "(those experiments kept their own workloads)"
        )
    if unpolicied:
        notes.append(
            f"slack_policy={slack_policy!r} not supported by: {', '.join(unpolicied)} "
            "(those experiments kept their default replay initialization)"
        )
    if unfaulted:
        notes.append(
            f"faults={faults!r} not supported by: {', '.join(unfaulted)} "
            "(those experiments replayed fault-free)"
        )

    tasks: List[Tuple[ExperimentDef, Cell]] = []
    spans: List[Tuple[str, int, int]] = []  # (name, first task index, count)
    for definition in definitions:
        cells = definition.cells(scale)
        spans.append((definition.name, len(tasks), len(cells)))
        tasks.extend((definition, cell) for cell in cells)

    cell_results: List[Optional[CellResult]] = [None] * len(tasks)
    errors: List[CellError] = []
    with _backend_scope(backend):
        if workers <= 1 or len(tasks) <= 1:
            workers = 1
            cache = ScheduleCache(cache_dir, shard_packets=shard_packets)
            for index, (definition, cell) in enumerate(tasks):
                failure: Optional[_CellFailure] = None
                attempts = 0
                for attempt in range(max_retries + 1):
                    if attempt:
                        time.sleep(retry_backoff * 2 ** (attempt - 1))
                    attempts += 1
                    try:
                        with _cell_deadline(cell_timeout):
                            cell_results[index] = _execute_cell(
                                definition, cell, scale, cache
                            )
                    except Exception as error:
                        failure = _CellFailure.capture(error)
                    else:
                        break
                else:
                    errors.append(_cell_error(cell, failure, attempts))
            cache_hits, cache_misses = cache.hits, cache.misses
        else:
            records_computed, parallel_errors = _run_parallel(
                tasks,
                scale,
                workers=workers,
                cache_dir=cache_dir,
                backend=backend,
                cell_timeout=cell_timeout,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                cell_results=cell_results,
                notes=notes,
                shard_packets=shard_packets,
            )
            errors.extend(parallel_errors)
            cache_hits = sum(r.cache_hits for r in cell_results if r is not None)
            cache_misses = records_computed + sum(
                r.cache_misses for r in cell_results if r is not None
            )

    results: Dict[str, ExperimentResult] = {}
    for definition, (name, first, count) in zip(definitions, spans):
        chunk = [r for r in cell_results[first : first + count] if r is not None]
        result = definition.assemble(scale, chunk)
        if replicates > 1 and name not in unreplicated:
            result.aggregates = aggregate_replicate_rows(result.rows)
        results[name] = result

    return RunSummary(
        results=results,
        cells=len(tasks),
        workers=workers,
        wall_time=time.perf_counter() - start,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        notes=notes,
        errors=errors,
    )


def _run_parallel(
    tasks: Sequence[Tuple[ExperimentDef, Cell]],
    scale: "ExperimentScale",
    workers: int,
    cache_dir: Optional[str],
    backend: Optional[str],
    cell_timeout: Optional[float],
    max_retries: int,
    retry_backoff: float,
    cell_results: List[Optional[CellResult]],
    notes: List[str],
    shard_packets: int = DEFAULT_SHARD_PACKETS,
) -> Tuple[int, List[CellError]]:
    """Fan cells out across pool workers, with crash recovery and retries.

    Runs up to ``max_retries + 1`` rounds.  Each round gets a **fresh**
    ``ProcessPoolExecutor``: a worker that dies (OOM-killed, SIGKILL,
    segfault) breaks the entire pool — every outstanding future fails with
    ``BrokenProcessPool`` — so per-round pools are what turns "one crashed
    worker aborts the campaign" into "the surviving work retries".  Within a
    round, phase 1 records missing unique schedules and phase 2 replays
    cells, exactly as before; items that failed stay pending for the next
    round, items that succeeded never re-run.

    Fills ``cell_results`` in place; returns ``(records_computed, errors)``.
    """
    # Phase 1 (record): with a shared on-disk cache, record each missing
    # unique schedule exactly once before any replay cell runs.  Without a
    # disk layer workers cannot share recordings, so phase 1 is skipped and
    # each worker records what it needs (the pre-two-phase behavior).
    pending_records: "OrderedDict[str, Scenario]" = OrderedDict()
    if cache_dir is not None:
        pending_records = OrderedDict(
            _plan_records(tasks, ScheduleCache(cache_dir, shard_packets=shard_packets))
        )
    pending_cells: "OrderedDict[int, Tuple[ExperimentDef, Cell]]" = OrderedDict(
        (index, task) for index, task in enumerate(tasks)
    )
    record_attempts: Dict[str, int] = {}
    cell_attempts: Dict[int, int] = {}
    cell_failures: Dict[int, _CellFailure] = {}
    records_computed = 0

    for round_index in range(max_retries + 1):
        if not pending_records and not pending_cells:
            break
        if round_index:
            time.sleep(retry_backoff * 2 ** (round_index - 1))
        pool_broken = False
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(cache_dir, backend, cell_timeout, shard_packets),
        ) as pool:
            if pending_records:
                record_futures = {
                    pool.submit(_worker_record, (key, scenario)): key
                    for key, scenario in pending_records.items()
                }
                for future in as_completed(record_futures):
                    key = record_futures[future]
                    record_attempts[key] = record_attempts.get(key, 0) + 1
                    try:
                        _, outcome = future.result()
                    except Exception:
                        # BrokenProcessPool (a worker died) or a result that
                        # failed to unpickle: the key stays pending and the
                        # pool is not reused this round.
                        pool_broken = True
                        continue
                    if isinstance(outcome, _CellFailure):
                        continue  # stays pending; cells may still self-record
                    records_computed += outcome
                    pending_records.pop(key, None)
            if not pool_broken and pending_cells:
                # Phase 2 (replay): every cell runs against the (best-effort)
                # warm cache.  Shard-capable cells are expanded into one pool
                # task *per shard* — the pool's task queue is the
                # work-stealing mechanism, so a worker finishing a small
                # shard immediately picks up the next one regardless of
                # which cell it belongs to — and their partials merge
                # driver-side in shard-index order (the determinism rule:
                # identical rows to a serial run).  Everything else runs
                # whole, exactly as before; completed cells leave the
                # pending map, failures keep their captured traceback.
                driver_cache = (
                    ScheduleCache(cache_dir, shard_packets=shard_packets)
                    if cache_dir is not None
                    else None
                )
                cell_futures = {}
                shard_futures: Dict[object, Tuple[int, int]] = {}
                shard_partials: Dict[int, List[Optional[object]]] = {}
                for index, (definition, cell) in pending_cells.items():
                    shards: List[object] = []
                    if definition.supports_shards and driver_cache is not None:
                        try:
                            shards = definition.cell_shards(cell, scale, driver_cache)
                        except Exception:
                            shards = []  # fall back to whole-cell execution
                    if len(shards) > 1:
                        cell_attempts[index] = cell_attempts.get(index, 0) + 1
                        shard_partials[index] = [None] * len(shards)
                        for shard_index, shard in enumerate(shards):
                            future = pool.submit(
                                _worker_run_shard,
                                (index, shard_index, definition, cell, scale, shard),
                            )
                            shard_futures[future] = (index, shard_index)
                    else:
                        cell_futures[
                            pool.submit(_worker_run, (index, definition, cell, scale))
                        ] = index
                for future in as_completed(
                    list(cell_futures) + list(shard_futures)
                ):
                    if future in shard_futures:
                        index, shard_index = shard_futures[future]
                        try:
                            _, _, outcome = future.result()
                        except Exception as error:
                            pool_broken = True
                            cell_failures[index] = _CellFailure.capture(error)
                            continue
                        if isinstance(outcome, _CellFailure):
                            cell_failures[index] = outcome
                            continue
                        shard_partials[index][shard_index] = outcome
                        continue
                    index = cell_futures[future]
                    cell_attempts[index] = cell_attempts.get(index, 0) + 1
                    try:
                        _, outcome = future.result()
                    except Exception as error:
                        pool_broken = True
                        cell_failures[index] = _CellFailure.capture(error)
                        continue
                    if isinstance(outcome, _CellFailure):
                        cell_failures[index] = outcome
                        continue
                    cell_results[index] = outcome
                    pending_cells.pop(index, None)
                    cell_failures.pop(index, None)
                # Merge every sharded cell whose shards all completed.  A
                # cell with any failed shard stays pending (its failure is
                # recorded) and re-runs whole next round — partials are
                # cheap relative to the recording they read from cache.
                for index, partials in shard_partials.items():
                    if index in cell_failures or any(p is None for p in partials):
                        continue
                    definition, cell = pending_cells[index]
                    try:
                        cell_results[index] = definition.merge_shards(
                            cell, scale, list(partials)
                        )
                    except Exception as error:
                        cell_failures[index] = _CellFailure.capture(error)
                        continue
                    pending_cells.pop(index, None)
                    cell_failures.pop(index, None)

    errors = [
        _cell_error(cell, cell_failures.get(index), cell_attempts.get(index, 0))
        for index, (_, cell) in pending_cells.items()
    ]
    if pending_records:
        notes.append(
            f"{len(pending_records)} schedule recording(s) never completed in "
            "phase 1; dependent cells recorded in-worker or failed (see errors)"
        )
    return records_computed, errors


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
