"""Topology specifications and generators for the paper's evaluation scenarios."""

from repro.topology.base import dumbbell_topology

__all__ = ["dumbbell_topology"]
