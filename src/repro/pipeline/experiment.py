"""Experiment definitions, cells, and the scenario registry.

An :class:`ExperimentDef` describes one paper artifact (a table, a figure, an
ablation) as three hooks:

* :meth:`~ExperimentDef.cells` — expand the experiment into independent
  :class:`Cell` work units (scenario x seed x replay-mode).  Cells are plain
  picklable data, so the runner can fan them out across processes.
* :meth:`~ExperimentDef.run_cell` — execute one cell (possibly inside a pool
  worker) and return its result row (plus optional plot data).
* :meth:`~ExperimentDef.assemble` — merge the cell results, in cell order,
  into the experiment's :class:`ExperimentResult`.

Most artifacts are *scenario-shaped* — replay these scenarios under these
modes, one row each — and subclass :class:`ScenarioExperimentDef`, which
supplies all three hooks from a scenario list, a mode tuple and a row
function.  Every original schedule any cell needs comes from
:func:`cached_schedule`, the one lookup into the schedule cache.

The global :data:`REGISTRY` maps experiment names (``"table1"``,
``"figure2"``, ...) to their definitions; the definitions themselves live in
:mod:`repro.experiments`, which registers them at import time.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.replay import (
    ReplayResult,
    evaluate_replay,
    original_scheduler_factory,
    record_schedule,
)
from repro.core.schedule import Schedule
from repro.pipeline.cache import ScheduleCache, schedule_cache_key
from repro.pipeline.scenario import (
    PipelineConfigError,
    Scenario,
    expand_replicates,
    override_faults,
    override_slack_policy,
    override_workload,
    registered,
)
from repro.utils.registry import Registry
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> pipeline)
    from repro.experiments.config import ExperimentResult, ExperimentScale


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    Attributes:
        experiment: Registry name of the owning experiment.
        label: Scenario/row label (used for display and curve keys).
        mode: Replay mode or scheduler variant the cell evaluates.
        seed: Fully resolved seed for the cell's stochastic inputs.
        spec: Experiment-specific picklable payload (usually a
            :class:`~repro.pipeline.scenario.Scenario`).
    """

    experiment: str
    label: str
    mode: str
    seed: int
    spec: Any = None

    @property
    def cell_id(self) -> str:
        """Stable human-readable identifier for logs and progress output."""
        return f"{self.experiment}/{self.label}/{self.mode}/s{self.seed}"


@dataclass
class CellResult:
    """Outcome of one cell: a result row plus bookkeeping.

    ``cache_hits``/``cache_misses`` record how many schedule-cache lookups
    the cell made so the runner can report aggregate cache behaviour.
    """

    cell: Cell
    row: Dict[str, Any]
    curve: Any = None
    curve_key: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0


class ExperimentDef(ABC):
    """One paper artifact, decomposed into parallelizable cells."""

    #: Registry name (also the default ExperimentResult name).
    name: str = ""
    #: Name recorded on the assembled ExperimentResult (defaults to ``name``).
    result_name: Optional[str] = None
    #: Free-form remarks copied onto the assembled result.
    notes: str = ""
    #: Whether this experiment's cells honor the ``workload`` attribute
    #: (set by :meth:`with_overrides` / the ``--workload`` CLI override).
    #: Definitions that opt in must apply ``self.workload`` when expanding
    #: scenarios; the runner notes unsupported experiments instead of
    #: silently ignoring the override.
    supports_workload: bool = False
    #: Whether this experiment honors the ``replicates`` attribute
    #: (seed replicates set by :meth:`with_overrides` / ``--replicates``).
    supports_replicates: bool = False
    #: Whether this experiment honors the ``slack_policy`` attribute (set by
    #: :meth:`with_overrides` / the ``--slack-policy`` CLI override).
    #: Definitions that opt in must apply ``self.slack_policy`` when
    #: expanding scenarios (:func:`~repro.pipeline.scenario
    #: .override_slack_policy`); the runner notes unsupported experiments
    #: instead of silently ignoring the override.
    supports_slack_policy: bool = False
    #: Whether this experiment honors the ``faults`` attribute (set by
    #: :meth:`with_overrides` / the ``--fault`` CLI override).  Definitions
    #: that opt in must apply ``self.faults`` when expanding scenarios
    #: (:func:`~repro.pipeline.scenario.override_faults`); the runner notes
    #: unsupported experiments instead of silently ignoring the override.
    supports_faults: bool = False
    #: Registry workload overriding every scenario (``None`` = keep as-is).
    workload: Optional[str] = None
    #: Registry slack policy overriding every scenario (``None`` = keep as-is).
    slack_policy: Optional[str] = None
    #: Registry fault schedule overriding every scenario (``None`` = keep as-is).
    faults: Optional[str] = None
    #: Fault seed accompanying the ``faults`` override.
    fault_seed: int = 0
    #: Seed replicates per scenario.
    replicates: int = 1

    def with_overrides(self, **attrs: Any) -> "ExperimentDef":
        """A copy of this definition with override attributes replaced.

        ``attrs`` are the override attributes above (``workload``,
        ``slack_policy``, ``faults`` + ``fault_seed``, ``replicates``); the
        runner applies each one only to definitions whose matching
        ``supports_<override>`` flag is set.
        """
        clone = copy.copy(self)
        vars(clone).update(attrs)
        return clone

    # ------------------------------------------------------------------ #
    # Live-policy override helpers (direct-simulation experiments)
    # ------------------------------------------------------------------ #
    def validate_live_slack_policy(self) -> None:
        """Fail fast if the ``--slack-policy`` override cannot stamp live packets.

        Direct-simulation experiments (Figures 2/3) call this from
        :meth:`cells`, so a typo'd or replay-only policy aborts at
        expansion time — before any cell simulates — with a
        :class:`~repro.pipeline.scenario.PipelineConfigError` the CLI turns
        into a one-line usage error.
        """
        if self.slack_policy is None:
            return
        from repro.core.slack_policy import SLACK_POLICIES

        policy = registered(SLACK_POLICIES, self.slack_policy)
        if not policy.supports_live:
            raise PipelineConfigError(
                f"experiment {self.name}: slack policy {policy.name!r} "
                f"(capability {policy.capability()!r}) cannot stamp live "
                "packets at send time"
            )

    def live_slack_policy_override(self, configured: Optional[str]) -> Optional[str]:
        """The override to apply to a cell whose configured policy is ``configured``.

        Returns the experiment's ``slack_policy`` when both it and the
        cell's own configured policy are set (the override swaps the
        policy-bearing deployment's heuristic), and ``None`` otherwise —
        policy-less cells (conventional schedulers) are never given a
        policy by the override.
        """
        if self.slack_policy is not None and configured is not None:
            return self.slack_policy
        return None

    @abstractmethod
    def cells(self, scale: "ExperimentScale") -> List[Cell]:
        """Expand this experiment into independent cells, in row order."""

    @abstractmethod
    def run_cell(
        self, cell: Cell, scale: "ExperimentScale", cache: ScheduleCache
    ) -> CellResult:
        """Execute one cell.  May run inside a process-pool worker."""

    # ------------------------------------------------------------------ #
    # Shard protocol (scale-tier cells; opt-in via ``supports_shards``)
    # ------------------------------------------------------------------ #
    #: Whether this experiment's cells can be split into shard sub-tasks the
    #: runner work-steals individually (:meth:`cell_shards` /
    #: :meth:`run_cell_shard` / :meth:`merge_shards`).  The determinism
    #: contract: the shard partition must be a pure function of the cell and
    #: the cache's ``shard_packets`` (never of worker count or storage
    #: layout), and partials must merge associatively in shard-index order,
    #: so sharded serial, sharded parallel, and :meth:`run_cell` all emit
    #: the same row.
    supports_shards: bool = False

    def cell_shards(
        self, cell: Cell, scale: "ExperimentScale", cache: ScheduleCache
    ) -> List[Any]:
        """Picklable shard specs for ``cell``, in shard-index order.

        An empty list means "run this cell whole via :meth:`run_cell`" —
        the default for definitions that never shard, and the escape hatch
        for modes of a sharding definition that cannot split.
        """
        return []

    def run_cell_shard(
        self, cell: Cell, shard: Any, scale: "ExperimentScale", cache: ScheduleCache
    ) -> Any:
        """Execute one shard of ``cell``; returns a picklable partial."""
        raise NotImplementedError(
            f"experiment {self.name} declares supports_shards but does not "
            "implement run_cell_shard"
        )

    def merge_shards(
        self, cell: Cell, scale: "ExperimentScale", partials: List[Any]
    ) -> CellResult:
        """Merge shard partials (given in shard-index order) into the cell row."""
        raise NotImplementedError(
            f"experiment {self.name} declares supports_shards but does not "
            "implement merge_shards"
        )

    def assemble(
        self, scale: "ExperimentScale", results: List[CellResult]
    ) -> "ExperimentResult":
        """Merge cell results (already in cell order) into one result."""
        from repro.experiments.config import ExperimentResult

        merged = ExperimentResult(
            name=self.result_name or self.name,
            scale_label=scale.label,
            notes=self.notes,
        )
        curves: Dict[str, Any] = {}
        for cell_result in results:
            merged.rows.append(cell_result.row)
            if cell_result.curve is not None:
                curves[cell_result.curve_key or cell_result.cell.label] = cell_result.curve
        if curves:
            merged.curves = curves  # type: ignore[attr-defined]
        return merged


# ---------------------------------------------------------------------- #
# Shared record/replay cell logic
# ---------------------------------------------------------------------- #
def build_live_slack_policy(configured, override: Optional[str] = None):
    """Materialize a direct-simulation cell's send-time slack policy.

    Both override rules live here — the single resolution point for live
    experiments (Figures 2/3), so the semantics cannot drift between them:

    * ``override`` (a registry name, e.g. an experiment's
      ``--slack-policy``) replaces the cell's ``configured`` registry name;
    * a cell with no configured policy (a conventional scheduler) is never
      given one by an override — ``configured=None`` always resolves to
      ``None``, whatever the override says.

    Returns:
        A built :class:`~repro.core.slack.SlackPolicy`, or ``None``.
    """
    if configured is None:
        return None
    name = override if override is not None else configured
    from repro.core.slack_policy import SLACK_POLICIES

    return SLACK_POLICIES.get(str(name)).build_live()


def scenario_cache_key(scenario: Scenario) -> str:
    """The schedule-cache key this scenario's record/replay cell will use.

    Computed from plain specs (no simulation runs), so the runner can plan
    recording work — one pool task for all the cells that share one original
    schedule — before fanning anything out to workers.  Scenarios pinned to a slack
    policy hash the policy's serialized form (plus a live-mode marker when
    the policy shaped the recording) into their key; scenarios pinned to a
    non-empty fault schedule hash the fault plan's fingerprint; plain
    scenarios hash exactly what they always did.
    """
    return schedule_cache_key(
        scenario.build_topology(),
        scenario.original,
        scenario.workload(),
        scenario.seed,
        slack_policy=scenario.slack_policy_def(),
        slack_mode=scenario.slack_mode,
        faults=scenario.fault_plan(),
    )


def recording_twin(scenario: Scenario) -> Scenario:
    """``scenario`` without the inputs that act on its replay leg only.

    A fault plan and a ``slack_mode="replay"`` policy shape the replay, never
    the recording (:func:`record_scenario_schedule` reads neither), so every
    scenario with the same twin records the same original schedule.  The
    twin's :func:`scenario_cache_key` is the *recording key* the runner
    groups schedule keys by; a live-mode policy stays in, because it shaped
    the recording.
    """
    policy = scenario.slack_policy if scenario.slack_mode == "live" else None
    return replace(scenario, slack_policy=policy, faults=None, fault_seed=0)


def record_scenario_schedule(
    scenario: Scenario,
    topology=None,
    workload=None,
) -> Schedule:
    """Record the original schedule for ``scenario`` (no cache involved).

    A scenario carrying a live-mode slack policy
    (``slack_mode="live"``) records with that policy installed on the
    network, so the recorded schedule is what the policy-stamped deployment
    actually produced; every other scenario records exactly as before.
    """
    topology = topology if topology is not None else scenario.build_topology()
    workload = workload if workload is not None else scenario.workload()
    factory = original_scheduler_factory(
        scenario.original, topology, rng=RandomState(scenario.seed + 1)
    )
    return record_schedule(
        topology,
        factory,
        workload,
        seed=scenario.seed,
        slack_policy=scenario.live_slack_policy(),
    )


def cached_schedule(
    scenario: Scenario,
    cache: ScheduleCache,
    topology=None,
    workload=None,
    recording: Optional[Schedule] = None,
) -> Schedule:
    """``scenario``'s original schedule through ``cache``, recorded on first use.

    The only ``get_or_record`` caller in the package: every lookup is keyed
    by exactly what :func:`scenario_cache_key` hashes (slack policy and its
    mode, fault plan), so the entry a cell loads, the entry the runner's
    recording phase writes and the entry a shard plan points at are always
    the same one.  Pass ``topology`` / ``workload`` when already built, and
    ``recording`` when the caller already holds the schedule of a scenario
    with the same :func:`recording_twin`: a miss then stores it instead of
    recording again.
    """
    topology = topology if topology is not None else scenario.build_topology()
    workload = workload if workload is not None else scenario.workload()
    schedule, _ = cache.get_or_record(
        topology=topology,
        original=scenario.original,
        workload=workload,
        seed=scenario.seed,
        recorder=lambda: (
            recording
            if recording is not None
            else record_scenario_schedule(scenario, topology, workload)
        ),
        slack_policy=scenario.slack_policy_def(),
        slack_mode=scenario.slack_mode,
        faults=scenario.fault_plan(),
    )
    return schedule


def replay_scenario(
    scenario: Scenario,
    mode: Optional[str] = None,
    cache: Optional[ScheduleCache] = None,
) -> ReplayResult:
    """Record (or fetch from cache) ``scenario``'s schedule and replay it.

    This is the workhorse every replay-style experiment cell goes through:
    the original schedule comes from the content-addressed cache, so cells
    sharing a scenario (e.g. the same schedule replayed under LSTF and under
    simple priorities) record it only once.

    When the scenario carries a ``slack_policy`` in ``slack_mode="replay"``,
    the policy's initializer replaces the replay mode's default header
    initialization (heuristic slack instead of recorded output times); the
    mode must then be one of
    :data:`~repro.core.slack_policy.POLICY_COMPATIBLE_MODES`, since the
    omniscient and static-priority modes read header fields only the
    recorded schedule can supply.  In ``slack_mode="live"`` the policy
    already shaped the *recording* (it stamped packets at send time), so the
    replay itself uses the mode's own initializer on that policy-shaped
    schedule.

    The *replay* leg runs on ``$REPRO_BACKEND`` if set (what ``run
    --backend`` pins for the run), else on the fastest available engine that
    accepts this replay's configuration
    (:func:`repro.sim.backend.select_engine`).  The *recording* chooses
    for itself (:func:`repro.core.replay.record_schedule`): every original
    a shipped experiment records, live slack policies included, on the flat
    recording loop, everything else — and everything in a process pinned to
    ``python`` — on the reference engine.  Engines are bit-identical by
    contract, so the choice never changes a row or a saved byte — only how
    fast it is produced — which is why it stays out of every cache key.

    A scenario pinned to a fault schedule (``scenario.faults``) injects the
    plan into the *replay* network only — the recording stays fault-free, so
    the question each fault row answers is "how does the candidate UPS cope
    when the network misbehaves under it?".  Unselected fault-bearing
    replays run on ``compiled`` like the rest.
    """
    cache = cache if cache is not None else ScheduleCache()
    topology = scenario.build_topology()
    workload = scenario.workload()
    policy = scenario.slack_policy_def()
    resolved_mode = mode or scenario.replay_mode
    initializer = None
    if policy is not None and scenario.slack_mode == "replay":
        initializer = policy.build_initializer(resolved_mode)
    return evaluate_replay(
        topology,
        cached_schedule(scenario, cache, topology, workload),
        mode=resolved_mode,
        threshold_packet_bytes=float(workload.mss),
        initializer=initializer,
        faults=scenario.fault_plan(),
    )


class ScenarioExperimentDef(ExperimentDef):
    """An experiment whose cells are (scenario x replay mode) replays.

    A subclass declares :meth:`base_scenarios`, :attr:`modes` and
    :meth:`row`; scenario expansion (with every override the runner can
    pin), the cell list and the record-once/replay-per-mode cell body are
    shared.  All modes of one scenario replay the *same* recorded schedule
    — the schedule cache records it once even when the cells land on
    different workers.

    Args:
        scenarios: Explicit scenario list replacing :meth:`base_scenarios`.
        **attrs: Initial values for class-level attributes — the override
            attributes (``replicates``, ``workload``, ...) or a subclass's
            own knobs; an unknown name is a :class:`TypeError`.
    """

    #: Replay modes per scenario, in cell order; a ``None`` entry stands for
    #: the scenario's own ``replay_mode``.
    modes: Tuple[Optional[str], ...] = (None,)

    def __init__(
        self, scenarios: Optional[Sequence[Scenario]] = None, **attrs: Any
    ) -> None:
        unknown = [name for name in attrs if not hasattr(type(self), name)]
        if unknown:
            raise TypeError(
                f"{type(self).__name__} has no attribute(s) {', '.join(unknown)}"
            )
        self._scenarios = scenarios
        vars(self).update(attrs)

    @abstractmethod
    def base_scenarios(self, scale: "ExperimentScale") -> List[Scenario]:
        """The experiment's own scenarios at ``scale``, before any override."""

    @abstractmethod
    def row(self, scenario: Scenario, mode: str, result: ReplayResult) -> Dict[str, Any]:
        """One (scenario, replay mode) outcome as a result row."""

    def pin_workload(self, scenarios: List[Scenario], workload: str) -> List[Scenario]:
        """Apply the ``workload`` override (hook: the default pins every scenario)."""
        return override_workload(scenarios, workload)

    def scenarios(self, scale: "ExperimentScale") -> List[Scenario]:
        """All scenarios in cell order, with overrides and replicates applied.

        A ``faults`` override pins every scenario (a fault-free baseline row
        included) onto the requested schedule.
        """
        base = (
            list(self._scenarios)
            if self._scenarios is not None
            else self.base_scenarios(scale)
        )
        if self.faults is not None:
            base = override_faults(base, self.faults, self.fault_seed)
        if self.workload is not None:
            base = self.pin_workload(base, self.workload)
        if self.slack_policy is not None:
            base = override_slack_policy(base, self.slack_policy)
        return expand_replicates(base, self.replicates)

    def cells(self, scale: "ExperimentScale") -> List[Cell]:
        """One cell per (scenario, mode), scenarios outermost."""
        return [
            Cell(
                self.name,
                scenario.name,
                mode or scenario.replay_mode,
                scenario.seed,
                spec=scenario,
            )
            for scenario in self.scenarios(scale)
            for mode in self.modes
        ]

    def run_cell(
        self, cell: Cell, scale: "ExperimentScale", cache: ScheduleCache
    ) -> CellResult:
        """Replay the cell's scenario under the cell's mode; one row."""
        result = replay_scenario(cell.spec, mode=cell.mode, cache=cache)
        return CellResult(cell=cell, row=self.row(cell.spec, cell.mode, result))


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class ScenarioRegistry(Registry[ExperimentDef]):
    """Maps experiment names to their definitions, in registration order."""

    def __init__(self) -> None:
        super().__init__("experiment")

    def register(self, definition: ExperimentDef) -> ExperimentDef:
        """Add (or replace) a definition; returns it for decorator-style use."""
        if not definition.name:
            raise ValueError("experiment definitions need a non-empty name")
        return super().register(definition)


#: The process-wide registry.  Populated by importing :mod:`repro.experiments`
#: (directly or via :func:`default_registry`).
REGISTRY = ScenarioRegistry()


def register_experiment(definition: ExperimentDef) -> ExperimentDef:
    """Register ``definition`` in the global registry."""
    return REGISTRY.register(definition)


def default_registry() -> ScenarioRegistry:
    """The global registry with every built-in experiment registered.

    Importing :mod:`repro.experiments` registers the paper's experiments as a
    side effect; pool workers call this too, so a freshly spawned worker sees
    the same registry as the driver.
    """
    import repro.experiments  # noqa: F401  (import populates REGISTRY)

    return REGISTRY
