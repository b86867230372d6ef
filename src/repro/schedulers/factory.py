"""Scheduler factories: how experiments deploy schedulers across a network.

A :data:`~repro.sim.network.SchedulerFactory` is a callable
``(node_name, link) -> Scheduler`` invoked once per output port.  The helpers
here cover the deployment patterns used in the paper:

* the same algorithm at every port (:func:`uniform_factory`),
* different algorithms at different routers, e.g. the Table-1 scenario where
  half the routers run FIFO+ and the other half fair queueing
  (:func:`alternating_factory`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Type

from repro.schedulers.base import Scheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.fifo_plus import FifoPlusScheduler
from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.lifo import LifoScheduler
from repro.schedulers.lstf import LstfScheduler, PreemptiveLstfScheduler
from repro.schedulers.priority import SjfScheduler, StaticPriorityScheduler
from repro.schedulers.random_sched import RandomScheduler
from repro.schedulers.srpt import SjfStarvationFreeScheduler, SrptScheduler
from repro.sim.link import Link
from repro.sim.network import SchedulerFactory
from repro.utils.rng import RandomState

#: Registry of scheduler names used by experiment configurations.
SCHEDULER_REGISTRY: Dict[str, Type[Scheduler]] = {
    "fifo": FifoScheduler,
    "lifo": LifoScheduler,
    "random": RandomScheduler,
    "priority": StaticPriorityScheduler,
    "sjf": SjfScheduler,
    "sjf-flow": SjfStarvationFreeScheduler,
    "srpt": SrptScheduler,
    "fq": FairQueueingScheduler,
    "fifo+": FifoPlusScheduler,
    "lstf": LstfScheduler,
    "lstf-preemptive": PreemptiveLstfScheduler,
    "edf": EdfScheduler,
}


def scheduler_class(name: str) -> Type[Scheduler]:
    """Look up a scheduler class by its registry name (case-insensitive)."""
    try:
        return SCHEDULER_REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SCHEDULER_REGISTRY))
        raise KeyError(f"unknown scheduler {name!r}; known schedulers: {known}") from None


def uniform_factory(
    name_or_class, rng: Optional[RandomState] = None, **kwargs
) -> SchedulerFactory:
    """Deploy the same scheduler type at every output port.

    Args:
        name_or_class: A registry name (e.g. ``"lstf"``) or a Scheduler class.
        rng: Random source handed to stochastic schedulers (each port gets an
            independent child stream so deployments stay reproducible).
        **kwargs: Extra constructor arguments for the scheduler.
    """
    cls = scheduler_class(name_or_class) if isinstance(name_or_class, str) else name_or_class

    def factory(node_name: str, link: Link) -> Scheduler:
        if cls is RandomScheduler:
            port_rng = rng.spawn() if rng is not None else None
            return cls(port_rng, **kwargs)
        return cls(**kwargs)

    return factory


def alternating_factory(
    node_names: Iterable[str],
    first: SchedulerFactory,
    second: SchedulerFactory,
    default: Optional[SchedulerFactory] = None,
) -> SchedulerFactory:
    """Assign ``first`` to half of ``node_names`` and ``second`` to the other half.

    Nodes are split by their sorted order so the assignment is deterministic.
    Nodes outside ``node_names`` use ``default`` (or ``first`` if not given).
    This reproduces the Table-1 scenario where half the routers run FIFO+ and
    half run fair queueing.
    """
    ordered = sorted(node_names)
    first_half = set(ordered[: len(ordered) // 2])
    listed = set(ordered)
    fallback = default if default is not None else first

    def factory(node_name: str, link: Link) -> Scheduler:
        if node_name not in listed:
            return fallback(node_name, link)
        chosen = first if node_name in first_half else second
        return chosen(node_name, link)

    return factory
