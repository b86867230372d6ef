"""Random scenario synthesis for the differential fuzz harness.

The fuzzer (:mod:`repro.diff.fuzz`) needs a stream of seeded, reproducible
:class:`~repro.pipeline.scenario.Scenario` values spanning the full
configuration space — topology × original scheduler × workload/perturbation
× replay mode × slack policy × fault plan.  This module owns that synthesis
(it sits in the pipeline layer because a scenario is a pipeline concept) and
the lossless dict round-trip used to persist minimized fuzz repro artifacts.

Every draw comes from one :class:`~repro.utils.rng.RandomState`, so a
``(seed, index)`` pair always yields the same scenario on every platform —
the property that makes a CI fuzz failure reproducible locally from its
artifact alone.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Optional

from repro.core.slack_policy import POLICY_COMPATIBLE_MODES
from repro.experiments.config import ExperimentScale
from repro.pipeline.scenario import Scenario, stable_seed
from repro.utils.rng import RandomState

#: Topology builders the synthesizer draws from (Internet2 weighted up: it is
#: the paper's primary topology and the cheapest to simulate).
TOPOLOGIES = ("internet2", "internet2", "internet2", "fattree", "rocketfuel")

#: Original schedulers that can record a fuzz schedule — every per-port
#: algorithm the paper uses plus the Table-1 mixture.
ORIGINALS = ("fifo", "fq", "fifo+", "sjf", "srpt", "lifo", "random", "fq+fifo+")

#: Candidate replay modes (LSTF weighted up — it is the universality claim).
REPLAY_MODES = ("lstf", "lstf", "edf", "priority", "omniscient", "fifo", "lstf-preemptive")

#: Offered loads on the reference link.
UTILIZATIONS = (0.3, 0.5, 0.7, 0.9)

#: Workload registry names the synthesizer draws from (the plain paper
#: default weighted up; the rest exercise the perturbation layer).
WORKLOADS_POOL = (
    "paper-default",
    "paper-default",
    "web-search",
    "data-mining",
    "incast-burst",
    "on-off-jamming",
    "heavy-tail-extreme",
    "deadline-tagged",
    "deadline-tagged-tight",
    "adversarial-combo",
)

#: Replay-capable slack policies (``None`` weighted up: most replays use the
#: mode's own initializer).
SLACK_POLICIES_POOL = (None, None, None, "replay", "zero", "deadline", "static-delay")

#: Fault schedules (``None`` weighted up; fault-bearing replays also exercise
#: the accelerated backends' decline-and-fall-back path).
FAULTS_POOL = (None, None, None, "loss-1pct", "loss-5pct", "burst-loss", "outage-short", "jam-bursts")


def random_scenario(
    seed: int, index: int, scale: Optional[ExperimentScale] = None
) -> Scenario:
    """The ``index``-th random scenario of the fuzz stream seeded by ``seed``.

    Draws every dimension from a dedicated
    :class:`~repro.utils.rng.RandomState` seeded by ``stable_seed(seed,
    index)``, so scenarios are independent of each other and of iteration
    order.  Constraint solving is minimal by construction: slack policies
    are only attached when the drawn replay mode is policy-compatible, and
    the transport stays ``"udp"`` (the paper's open-loop replay setting —
    the one the bit-identity contract covers).

    Args:
        seed: Fuzz-stream seed (the CLI's ``--seed``).
        index: Case number within the stream.
        scale: Scale preset (default: smoke, the fastest preset — fuzzing
            wants many small cases over few big ones).
    """
    scale = scale if scale is not None else ExperimentScale.smoke()
    rng = RandomState(stable_seed("fuzz", seed, index))
    topology = rng.choice(TOPOLOGIES)
    replay_mode = rng.choice(REPLAY_MODES)
    slack_policy = (
        rng.choice(SLACK_POLICIES_POOL)
        if replay_mode in POLICY_COMPATIBLE_MODES
        else None
    )
    faults = rng.choice(FAULTS_POOL)
    return Scenario(
        name=f"fuzz-{seed}-{index}",
        scale=scale,
        topology=topology,
        utilization=rng.choice(UTILIZATIONS),
        original=rng.choice(ORIGINALS),
        duration_scale=rng.choice((0.5, 1.0)),
        replay_mode=replay_mode,
        seed_override=rng.randint(0, 2**20),
        workload_name=rng.choice(WORKLOADS_POOL),
        slack_policy=slack_policy,
        faults=faults,
        fault_seed=rng.randint(0, 1000) if faults is not None else 0,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Lossless JSON-serializable form of a scenario (fuzz artifacts).

    The embedded scale is serialized field-by-field, so an artifact rebuilt
    on a machine with different presets still reproduces the exact scenario
    it was minimized on.
    """
    payload = asdict(scenario)
    payload["scale"] = asdict(scenario.scale)
    payload["topology_args"] = [list(pair) for pair in scenario.topology_args]
    return payload


def scenario_from_dict(data: dict) -> Scenario:
    """Inverse of :func:`scenario_to_dict`.

    Artifacts written before ``Scenario`` lost its ``backend`` field (it was
    always ``None`` there) still load: the stale key is dropped.
    """
    payload = dict(data)
    payload.pop("backend", None)
    payload["scale"] = ExperimentScale(**payload["scale"])
    payload["topology_args"] = tuple(
        (name, value) for name, value in payload.get("topology_args", ())
    )
    return Scenario(**payload)


def simplified(scenario: Scenario) -> list:
    """Candidate one-step simplifications of ``scenario``, most drastic first.

    The fuzz shrinker walks these greedily: each candidate removes or
    shrinks exactly one dimension, so the minimized repro differs from the
    plain default scenario only in the dimensions that *matter* for the
    divergence.  Returns ``(description, scenario)`` pairs; candidates equal
    to the input are omitted.
    """
    candidates = []
    if scenario.faults is not None:
        candidates.append(
            ("drop fault plan", replace(scenario, faults=None, fault_seed=0))
        )
    if scenario.slack_policy is not None:
        candidates.append(("drop slack policy", replace(scenario, slack_policy=None)))
    if scenario.workload_name != "paper-default":
        candidates.append(
            ("plain workload", replace(scenario, workload_name="paper-default"))
        )
    if scenario.topology != "internet2":
        candidates.append(
            ("internet2 topology", replace(scenario, topology="internet2", topology_args=()))
        )
    if scenario.duration_scale > 0.25:
        candidates.append(
            (
                "halve duration",
                replace(scenario, duration_scale=scenario.duration_scale / 2.0),
            )
        )
    if scenario.utilization > 0.5:
        candidates.append(("utilization 0.5", replace(scenario, utilization=0.5)))
    if scenario.original != "fifo":
        candidates.append(("fifo original", replace(scenario, original="fifo")))
    return candidates
