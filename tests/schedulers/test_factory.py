"""Tests for scheduler factories and the registry."""

import pytest

from repro.schedulers.factory import (
    SCHEDULER_REGISTRY,
    alternating_factory,
    scheduler_class,
    uniform_factory,
)
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.fifo_plus import FifoPlusScheduler
from repro.schedulers.fq import FairQueueingScheduler
from repro.schedulers.lstf import LstfScheduler
from repro.schedulers.random_sched import RandomScheduler
from repro.sim.link import Link
from repro.utils import mbps
from repro.utils.rng import RandomState


LINK = Link("a", "b", mbps(10))


def test_registry_contains_every_paper_scheduler():
    for name in ("fifo", "lifo", "random", "priority", "sjf", "srpt", "fq",
                 "fifo+", "lstf", "lstf-preemptive", "edf"):
        assert name in SCHEDULER_REGISTRY


def test_scheduler_class_lookup_is_case_insensitive():
    assert scheduler_class("LSTF") is LstfScheduler
    assert scheduler_class("FiFo") is FifoScheduler


def test_unknown_scheduler_name_raises_with_known_list():
    with pytest.raises(KeyError) as excinfo:
        scheduler_class("wfq2000")
    assert "lstf" in str(excinfo.value)


def test_uniform_factory_builds_fresh_instances():
    factory = uniform_factory("fifo")
    first = factory("r0", LINK)
    second = factory("r1", LINK)
    assert isinstance(first, FifoScheduler)
    assert first is not second


def test_uniform_factory_accepts_class_objects():
    factory = uniform_factory(LstfScheduler)
    assert isinstance(factory("r0", LINK), LstfScheduler)


def test_random_scheduler_gets_per_port_rng():
    factory = uniform_factory("random", rng=RandomState(3))
    first = factory("r0", LINK)
    second = factory("r1", LINK)
    assert isinstance(first, RandomScheduler)
    assert first._rng is not second._rng


def test_alternating_factory_splits_routers_in_half():
    routers = [f"r{i}" for i in range(6)]
    factory = alternating_factory(
        routers, uniform_factory("fq"), uniform_factory("fifo+"),
        default=uniform_factory("fifo"),
    )
    kinds = [type(factory(name, LINK)) for name in sorted(routers)]
    assert kinds.count(FairQueueingScheduler) == 3
    assert kinds.count(FifoPlusScheduler) == 3
    # Nodes outside the listed set (e.g. hosts) fall back to the default.
    assert isinstance(factory("host-x", LINK), FifoScheduler)


def test_alternating_factory_is_deterministic():
    routers = ["b", "a", "d", "c"]
    factory1 = alternating_factory(routers, uniform_factory("fq"), uniform_factory("fifo+"))
    factory2 = alternating_factory(list(reversed(routers)), uniform_factory("fq"), uniform_factory("fifo+"))
    for name in routers:
        assert type(factory1(name, LINK)) is type(factory2(name, LINK))
