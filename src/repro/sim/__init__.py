"""Packet-level discrete-event network simulator (the paper's ns-2 substitute)."""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.flow import DEFAULT_MSS, Flow
from repro.sim.link import Link
from repro.sim.network import Network, SchedulerFactory
from repro.sim.node import Host, Node, Router
from repro.sim.packet import HopRecord, Packet, PacketHeader, PacketType
from repro.sim.port import OutputPort
from repro.sim.routing import RoutingError, RoutingTable
from repro.sim.simulation import Simulation, SimulationResult
from repro.sim.tracer import Tracer

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "Packet",
    "PacketHeader",
    "PacketType",
    "HopRecord",
    "Flow",
    "DEFAULT_MSS",
    "Link",
    "Node",
    "Router",
    "Host",
    "OutputPort",
    "Network",
    "SchedulerFactory",
    "RoutingTable",
    "RoutingError",
    "Tracer",
    "Simulation",
    "SimulationResult",
]
