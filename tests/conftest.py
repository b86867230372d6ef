"""Shared fixtures for the test suite."""

from __future__ import annotations

import shutil

import pytest

import repro.sim.compiled as compiled_mod
from repro.schedulers.factory import uniform_factory
from repro.sim.engine import Simulator
from repro.sim.flow import Flow
from repro.sim.tracer import Tracer
from repro.topology import dumbbell_topology
from repro.topology.base import linear_topology, single_switch_topology
from repro.traffic import WorkloadSpec, paper_default_workload
from repro.utils import mbps
from repro.utils.rng import RandomState


@pytest.fixture
def rng() -> RandomState:
    """A deterministic random source."""
    return RandomState(123)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulation engine."""
    return Simulator()


@pytest.fixture
def dumbbell():
    """A 4-pair dumbbell topology with a 10 Mbps bottleneck."""
    return dumbbell_topology(
        num_pairs=4,
        bottleneck_bandwidth_bps=mbps(10),
        access_bandwidth_bps=mbps(100),
    )


@pytest.fixture
def small_line():
    """A 3-router linear topology with one host pair."""
    return linear_topology(num_routers=3, bandwidth_bps=mbps(10), hosts_per_end=1)


@pytest.fixture
def star():
    """A single-switch star with 4 hosts."""
    return single_switch_topology(num_hosts=4, bandwidth_bps=mbps(10))


@pytest.fixture
def udp_workload():
    """A small UDP workload at 60% utilization of a 10 Mbps reference link."""
    return WorkloadSpec(
        utilization=0.6,
        reference_bandwidth_bps=mbps(10),
        size_distribution=paper_default_workload(),
        transport="udp",
        duration=0.3,
    )


@pytest.fixture
def kernel_sandbox(tmp_path, monkeypatch):
    """The kernel loader pointed at a temp copy of ``_kernel.c`` with an empty cache.

    Yields the copy's directory (builds land in its ``__pycache__``).  The
    one availability memo is dropped on the way in and out: the test probes
    from scratch, and later tests re-probe the checkout's own cache.
    """
    forget = compiled_mod._memo.clear
    directory = tmp_path / "sim"
    directory.mkdir()
    shutil.copy(compiled_mod._SOURCE, directory / "_kernel.c")
    monkeypatch.setattr(compiled_mod, "_SOURCE", str(directory / "_kernel.c"))
    forget()
    yield directory
    forget()


@pytest.fixture
def needs_compiler():
    """Skip where this machine cannot build the kernel for real."""
    if compiled_mod._compiler() is None:
        pytest.skip("no C compiler on this machine")


@pytest.fixture
def no_compiler(kernel_sandbox, monkeypatch):
    """A machine without a C compiler, against an empty kernel cache."""
    monkeypatch.setattr(compiled_mod, "_compiler", lambda: None)
    return kernel_sandbox


@pytest.fixture
def fifo_network(sim, dumbbell):
    """A built dumbbell network with FIFO everywhere and a tracer."""
    tracer = Tracer()
    network = dumbbell.build(sim, uniform_factory("fifo"), tracer=tracer)
    return network


def make_flow(
    src: str = "src0",
    dst: str = "dst0",
    size_bytes: float = 14600.0,
    start_time: float = 0.0,
) -> Flow:
    """Helper to build a flow."""
    return Flow(src=src, dst=dst, size_bytes=size_bytes, start_time=start_time)
