"""Deterministic fault injection for the record/replay engine.

The paper proves LSTF's universality for an *ideal* network; this package
asks (with Böhm et al.'s adversarial-jamming formulation, see PAPERS.md) how
far that universality survives a network that misbehaves.  It mirrors the
registry conventions of :mod:`repro.core.slack_policy` and
:mod:`repro.traffic.registry`:

* :mod:`repro.faults.defs` — frozen, picklable :class:`FaultDef` value
  objects (link down/up windows, Bernoulli and Gilbert-Elliott packet loss,
  jamming intervals) with lossless ``to_dict``/``from_dict``;
* :mod:`repro.faults.registry` — named :class:`FaultScheduleDef` bundles in
  the :data:`FAULTS` registry (``python -m repro list --faults``);
* :mod:`repro.faults.injector` — :class:`FaultPlan` (a schedule definition
  plus a fault seed, independent of the workload seed) and the
  :class:`FaultInjector` that installs it on a live
  :class:`~repro.sim.network.Network`.

Determinism rules, cache-key contract, and a worked example live in
``docs/faults.md``.
"""

from repro.faults.defs import (
    FAULT_KINDS,
    BernoulliLoss,
    FaultDef,
    GilbertElliottLoss,
    JammingIntervals,
    LinkOutage,
    fault_from_dict,
    register_fault_kind,
)
from repro.faults.injector import FaultInjector, FaultPlan, PortFaultState
from repro.faults.registry import (
    FAULTS,
    FaultScheduleDef,
    register_fault_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "FAULTS",
    "BernoulliLoss",
    "FaultDef",
    "FaultInjector",
    "FaultPlan",
    "FaultScheduleDef",
    "GilbertElliottLoss",
    "JammingIntervals",
    "LinkOutage",
    "PortFaultState",
    "fault_from_dict",
    "register_fault_kind",
    "register_fault_schedule",
]
