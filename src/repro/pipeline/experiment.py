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

The global :data:`REGISTRY` maps experiment names (``"table1"``,
``"figure2"``, ...) to their definitions; the definitions themselves live in
:mod:`repro.experiments`, which registers them at import time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.replay import (
    ReplayResult,
    evaluate_replay,
    original_scheduler_factory,
    record_schedule,
)
from repro.core.schedule import Schedule
from repro.pipeline.cache import ScheduleCache, schedule_cache_key
from repro.pipeline.scenario import Scenario
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
    #: (set by :meth:`with_workload` / the ``--workload`` CLI override).
    #: Definitions that opt in must apply ``self.workload`` when expanding
    #: scenarios; the runner notes unsupported experiments instead of
    #: silently ignoring the override.
    supports_workload: bool = False
    #: Whether this experiment honors the ``replicates`` attribute
    #: (seed replicates set by :meth:`with_replicates` / ``--replicates``).
    supports_replicates: bool = False
    #: Whether this experiment honors the ``slack_policy`` attribute (set by
    #: :meth:`with_slack_policy` / the ``--slack-policy`` CLI override).
    #: Definitions that opt in must apply ``self.slack_policy`` when
    #: expanding scenarios (:func:`~repro.pipeline.scenario
    #: .override_slack_policy`); the runner notes unsupported experiments
    #: instead of silently ignoring the override.
    supports_slack_policy: bool = False
    #: Whether this experiment honors the ``faults`` attribute (set by
    #: :meth:`with_faults` / the ``--fault`` CLI override).  Definitions
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

    def with_workload(self, workload: str) -> "ExperimentDef":
        """A copy of this definition pinned to one registry workload."""
        import copy

        clone = copy.copy(self)
        clone.workload = workload
        return clone

    def with_slack_policy(self, slack_policy: str) -> "ExperimentDef":
        """A copy of this definition pinned to one registry slack policy."""
        import copy

        clone = copy.copy(self)
        clone.slack_policy = slack_policy
        return clone

    def with_replicates(self, replicates: int) -> "ExperimentDef":
        """A copy of this definition running ``replicates`` seed replicates."""
        import copy

        clone = copy.copy(self)
        clone.replicates = replicates
        return clone

    def with_faults(self, faults: str, fault_seed: int = 0) -> "ExperimentDef":
        """A copy of this definition pinned to one registry fault schedule."""
        import copy

        clone = copy.copy(self)
        clone.faults = faults
        clone.fault_seed = fault_seed
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
        from repro.pipeline.scenario import PipelineConfigError

        policy = SLACK_POLICIES.get(self.slack_policy)  # KeyError on typo
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
    recording work — deduplicating cells that share one original schedule —
    before fanning anything out to workers.  Scenarios pinned to a slack
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


def replay_scenario(
    scenario: Scenario,
    mode: Optional[str] = None,
    cache: Optional[ScheduleCache] = None,
    backend: Optional[str] = None,
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

    ``backend`` selects the simulation engine for the *replay* leg (the
    recording always runs on the reference engine — no optimized backend
    reimplements the original-scheduler zoo); it overrides the scenario's
    own ``backend`` field, and both default to ``$REPRO_BACKEND`` if set,
    else to the fastest available engine that supports this replay's
    configuration (:func:`repro.sim.backend.replay_candidates`).  Backends
    are bit-identical by contract, so the choice never changes a row — only
    how fast it is produced — which is why it stays out of every cache key.

    A scenario pinned to a fault schedule (``scenario.faults``) injects the
    plan into the *replay* network only — the recording stays fault-free, so
    the question each fault row answers is "how does the candidate UPS cope
    when the network misbehaves under it?".  Accelerated backends decline
    fault-bearing replays via ``supports_replay``, so these run on the
    reference engine.
    """
    cache = cache if cache is not None else ScheduleCache()
    topology = scenario.build_topology()
    workload = scenario.workload()
    policy = scenario.slack_policy_def()
    resolved_mode = mode or scenario.replay_mode
    initializer = None
    if policy is not None and scenario.slack_mode == "replay":
        from repro.core.slack_policy import POLICY_COMPATIBLE_MODES

        if resolved_mode not in POLICY_COMPATIBLE_MODES:
            raise ValueError(
                f"scenario {scenario.name}: slack policy {policy.name!r} cannot "
                f"drive replay mode {resolved_mode!r}; compatible modes: "
                f"{', '.join(POLICY_COMPATIBLE_MODES)}"
            )
        initializer = policy.build_initializer()
    fault_plan = scenario.fault_plan()
    schedule, _ = cache.get_or_record(
        topology=topology,
        original=scenario.original,
        workload=workload,
        seed=scenario.seed,
        recorder=lambda: record_scenario_schedule(scenario, topology, workload),
        slack_policy=policy,
        slack_mode=scenario.slack_mode,
        faults=fault_plan,
    )
    return evaluate_replay(
        topology,
        schedule,
        mode=resolved_mode,
        threshold_packet_bytes=float(workload.mss),
        initializer=initializer,
        backend=backend if backend is not None else scenario.backend,
        faults=fault_plan,
    )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class ScenarioRegistry:
    """Maps experiment names to their definitions, in registration order."""

    def __init__(self) -> None:
        self._definitions: Dict[str, ExperimentDef] = {}

    def register(self, definition: ExperimentDef) -> ExperimentDef:
        """Add (or replace) a definition; returns it for decorator-style use."""
        if not definition.name:
            raise ValueError("experiment definitions need a non-empty name")
        self._definitions[definition.name] = definition
        return definition

    def get(self, name: str) -> ExperimentDef:
        """The definition for ``name`` (KeyError listing known names if absent)."""
        try:
            return self._definitions[name]
        except KeyError:
            known = ", ".join(sorted(self._definitions))
            raise KeyError(f"unknown experiment {name!r}; known: {known}") from None

    def names(self) -> List[str]:
        """All registered experiment names, in registration order."""
        return list(self._definitions)

    def experiments(self) -> List[ExperimentDef]:
        """All registered definitions, in registration order."""
        return list(self._definitions.values())

    def __contains__(self, name: str) -> bool:
        return name in self._definitions

    def __len__(self) -> int:
        return len(self._definitions)

    def __iter__(self):
        return iter(self._definitions.values())


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
