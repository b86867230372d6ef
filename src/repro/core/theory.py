"""Executable versions of the paper's theoretical results.

The appendix proves its theorems with small constructed networks in which
every congestion point is a unit-transmission-time resource and every other
element is instantaneous.  This module rebuilds those constructions on top of
the real simulator so they can be *run*, not just read:

* :func:`appendix_c_example` — the two-case counterexample showing no UPS
  exists under black-box initialization (Appendix C).
* :func:`appendix_f_example` — the priority cycle showing simple priorities
  cannot replay schedules with two congestion points per packet (Appendix F);
  the same scenario doubles as a witness that LSTF *can* (Appendix G's
  positive direction).
* :func:`appendix_g_example` — the three-congestion-point schedule that LSTF
  cannot replay (Appendix G's negative direction).

Each example returns a :class:`TheoryExample` holding the topology, one or
more hand-built viable schedules (exactly the tables in the paper's figures),
and the named packets the argument hinges on, so tests can both verify the
schedules' structure and replay them with the real engine.

A congestion point with transmission time ``T`` is modelled as a two-node
segment ``<name>-in -> <name>-out`` joined by a link whose bandwidth makes a
unit packet take ``T`` seconds; every packet crossing the congestion point is
routed over that shared link, reproducing the abstract single-server
congestion point of the proofs.  All other links are effectively instant
(``FAST_BANDWIDTH``).
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.schedule import NO_TIME, Schedule
from repro.topology.base import Topology
from repro.utils.units import BITS_PER_BYTE

#: Size (bytes) of the unit packets used in the theory constructions.
UNIT_PACKET_BYTES = 1.0

#: Bandwidth of "instantaneous" links: a unit packet takes 1e-12 s, which is
#: below every comparison tolerance used in the examples.
FAST_BANDWIDTH_BPS = UNIT_PACKET_BYTES * BITS_PER_BYTE / 1e-12


def bandwidth_for_transmission_time(transmission_time: float, size_bytes: float = UNIT_PACKET_BYTES) -> float:
    """Link bandwidth that makes a packet of ``size_bytes`` take ``transmission_time``."""
    if transmission_time <= 0:
        raise ValueError("transmission time must be positive")
    return size_bytes * BITS_PER_BYTE / transmission_time


def add_congestion_segment(
    topology: Topology,
    name: str,
    transmission_time: float,
    size_bytes: float = UNIT_PACKET_BYTES,
) -> Tuple[str, str]:
    """Add a congestion point as an ``-in``/``-out`` router pair joined by a slow link.

    Returns the (ingress-side, egress-side) router names of the segment.
    """
    in_name = topology.add_router(f"{name}-in")
    out_name = topology.add_router(f"{name}-out")
    topology.add_link(
        in_name, out_name, bandwidth_for_transmission_time(transmission_time, size_bytes)
    )
    return in_name, out_name


@dataclass
class TheoryExample:
    """A constructed scenario from the paper's appendix.

    Attributes:
        name: Which appendix construction this is.
        topology: The network the schedules live on.
        schedules: One or more viable schedules (Appendix C has two cases).
        packet_names: Maps human-readable packet names (``"a"``, ``"x"``, ...)
            to the packet ids used inside each schedule.
        notes: Short description of what the example demonstrates.
    """

    name: str
    topology: Topology
    schedules: List[Schedule]
    packet_names: Dict[str, int]
    notes: str = ""

    @property
    def schedule(self) -> Schedule:
        """The (first) schedule, for single-schedule examples."""
        return self.schedules[0]


def _row(
    packet_id: int,
    src: str,
    dst: str,
    path: Sequence[str],
    ingress: float,
    output: float,
    hops: Sequence[Tuple[str, float, float]] = (),
) -> dict:
    """A hand-built schedule row of one unit packet, alone in its flow.

    ``hops`` lists ``(node, arrival_time, service_time)`` triples for the
    congestion points the packet visits (used by the priority-cycle detector
    and for congestion-point counting).
    """
    return {
        "packet_id": packet_id,
        "flow_id": packet_id,
        "src": src,
        "dst": dst,
        "size_bytes": UNIT_PACKET_BYTES,
        "ingress_time": ingress,
        "output_time": output,
        "path": list(path),
        "hops": [(node, arrival, service, None) for node, arrival, service in hops],
    }


# ---------------------------------------------------------------------- #
# Appendix C: no UPS under black-box initialization
# ---------------------------------------------------------------------- #
def appendix_c_example() -> TheoryExample:
    """The two-case counterexample of Appendix C (Figure 5).

    Packets ``a`` and ``x`` have identical ``(i(p), o(p), path(p))`` in both
    cases, yet case 1 is only viable if ``a`` is scheduled before ``x`` at
    their shared first congestion point, and case 2 only if ``x`` precedes
    ``a``.  A deterministic scheduler whose header initialization sees only
    ``(i, o, path)`` must therefore fail on at least one of the two cases.
    """
    topo = Topology("appendix-c")
    # Congestion points alpha0..alpha4, each with unit transmission time.
    segments = {}
    for index in range(5):
        segments[index] = add_congestion_segment(topo, f"alpha{index}", 1.0)

    hosts = {}
    for flow in ("A", "B", "C", "X", "Y", "Z"):
        hosts[f"S{flow}"] = topo.add_host(f"S{flow}")
        hosts[f"D{flow}"] = topo.add_host(f"D{flow}")

    fast = FAST_BANDWIDTH_BPS
    # Flow A: SA -> a0 -> a1 -> a2 -> DA ; Flow X: SX -> a0 -> a3 -> a4 -> DX.
    topo.add_link("SA", segments[0][0], fast)
    topo.add_link("SX", segments[0][0], fast)
    topo.add_link(segments[0][1], segments[1][0], fast)
    topo.add_link(segments[0][1], segments[3][0], fast)
    topo.add_link(segments[1][1], segments[2][0], fast)
    topo.add_link(segments[2][1], "DA", fast)
    topo.add_link(segments[3][1], segments[4][0], fast)
    topo.add_link(segments[4][1], "DX", fast)
    # Flow B enters at alpha1, C at alpha2, Y at alpha3, Z at alpha4.
    topo.add_link("SB", segments[1][0], fast)
    topo.add_link(segments[1][1], "DB", fast)
    topo.add_link("SC", segments[2][0], fast)
    topo.add_link(segments[2][1], "DC", fast)
    topo.add_link("SY", segments[3][0], fast)
    topo.add_link(segments[3][1], "DY", fast)
    topo.add_link("SZ", segments[4][0], fast)
    topo.add_link(segments[4][1], "DZ", fast)

    def seg_path(*indices: int) -> List[str]:
        nodes: List[str] = []
        for index in indices:
            nodes.extend(segments[index])
        return nodes

    path_a = ["SA"] + seg_path(0, 1, 2) + ["DA"]
    path_x = ["SX"] + seg_path(0, 3, 4) + ["DX"]
    path_b = ["SB"] + seg_path(1) + ["DB"]
    path_c = ["SC"] + seg_path(2) + ["DC"]
    path_y = ["SY"] + seg_path(3) + ["DY"]
    path_z = ["SZ"] + seg_path(4) + ["DZ"]

    a0, a1, a2, a3, a4 = (segments[i][0] for i in range(5))

    # Case 1: a scheduled before x at alpha0.
    case1 = Schedule.from_rows(
        [
            _row(1, "SA", "DA", path_a, 0.0, 5.0,
                 hops=[(a0, 0.0, 0.0), (a1, 1.0, 1.0), (a2, 2.0, 4.0)]),
            _row(2, "SX", "DX", path_x, 0.0, 4.0,
                 hops=[(a0, 0.0, 1.0), (a3, 2.0, 2.0), (a4, 3.0, 3.0)]),
            _row(3, "SB", "DB", path_b, 2.0, 3.0, hops=[(a1, 2.0, 2.0)]),
            _row(4, "SB", "DB", path_b, 3.0, 4.0, hops=[(a1, 3.0, 3.0)]),
            _row(5, "SB", "DB", path_b, 4.0, 5.0, hops=[(a1, 4.0, 4.0)]),
            _row(6, "SC", "DC", path_c, 2.0, 3.0, hops=[(a2, 2.0, 2.0)]),
            _row(7, "SC", "DC", path_c, 3.0, 4.0, hops=[(a2, 3.0, 3.0)]),
            _row(8, "SY", "DY", path_y, 2.0, 4.0, hops=[(a3, 2.0, 3.0)]),
            _row(9, "SY", "DY", path_y, 3.0, 5.0, hops=[(a3, 3.0, 4.0)]),
            _row(10, "SZ", "DZ", path_z, 2.0, 3.0, hops=[(a4, 2.0, 2.0)]),
        ]
    )

    # Case 2: x scheduled before a at alpha0.  a and x keep the same
    # (ingress, output, path) attributes as in case 1.
    case2 = Schedule.from_rows(
        [
            _row(1, "SA", "DA", path_a, 0.0, 5.0,
                 hops=[(a0, 0.0, 1.0), (a1, 2.0, 2.0), (a2, 3.0, 4.0)]),
            _row(2, "SX", "DX", path_x, 0.0, 4.0,
                 hops=[(a0, 0.0, 0.0), (a3, 1.0, 1.0), (a4, 2.0, 3.0)]),
            _row(3, "SB", "DB", path_b, 2.0, 4.0, hops=[(a1, 2.0, 3.0)]),
            _row(4, "SB", "DB", path_b, 3.0, 5.0, hops=[(a1, 3.0, 4.0)]),
            _row(5, "SB", "DB", path_b, 4.0, 6.0, hops=[(a1, 4.0, 5.0)]),
            _row(6, "SC", "DC", path_c, 2.0, 3.0, hops=[(a2, 2.0, 2.0)]),
            _row(7, "SC", "DC", path_c, 3.0, 4.0, hops=[(a2, 3.0, 3.0)]),
            _row(8, "SY", "DY", path_y, 2.0, 3.0, hops=[(a3, 2.0, 2.0)]),
            _row(9, "SY", "DY", path_y, 3.0, 4.0, hops=[(a3, 3.0, 3.0)]),
            _row(10, "SZ", "DZ", path_z, 2.0, 3.0, hops=[(a4, 2.0, 2.0)]),
        ]
    )

    return TheoryExample(
        name="appendix-c",
        topology=topo,
        schedules=[case1, case2],
        packet_names={"a": 1, "x": 2},
        notes=(
            "Packets a and x have identical (i, o, path) in both cases but "
            "must be ordered differently at alpha0; no deterministic black-box "
            "initialization can replay both."
        ),
    )


# ---------------------------------------------------------------------- #
# Appendix F: simple priorities fail at two congestion points per packet
# ---------------------------------------------------------------------- #
def appendix_f_example() -> TheoryExample:
    """The priority-cycle example of Appendix F (Figure 6).

    Three flows, each crossing two congestion points, whose viable schedule
    requires priority(a) < priority(b) < priority(c) < priority(a) — an
    impossible assignment for static priorities, while LSTF replays the
    schedule exactly (Appendix G's positive direction).
    """
    topo = Topology("appendix-f")
    a1 = add_congestion_segment(topo, "alpha1", 1.0)
    a2 = add_congestion_segment(topo, "alpha2", 0.5)
    a3 = add_congestion_segment(topo, "alpha3", 0.2)
    for flow in ("A", "B", "C"):
        topo.add_host(f"S{flow}")
        topo.add_host(f"D{flow}")

    fast = FAST_BANDWIDTH_BPS
    topo.add_link("SA", a1[0], fast)
    topo.add_link("SB", a1[0], fast)
    # Link L: alpha1 -> alpha3 with propagation delay 2 (on flow A's path).
    topo.add_link(a1[1], a3[0], fast, propagation_delay=2.0)
    topo.add_link(a1[1], a2[0], fast)
    topo.add_link("SC", a2[0], fast)
    topo.add_link(a2[1], "DB", fast)
    topo.add_link(a2[1], a3[0], fast)
    topo.add_link(a3[1], "DA", fast)
    topo.add_link(a3[1], "DC", fast)

    path_a = ["SA", a1[0], a1[1], a3[0], a3[1], "DA"]
    path_b = ["SB", a1[0], a1[1], a2[0], a2[1], "DB"]
    path_c = ["SC", a2[0], a2[1], a3[0], a3[1], "DC"]

    schedule = Schedule.from_rows(
        [
            _row(1, "SA", "DA", path_a, 0.0, 3.4,
                 hops=[(a1[0], 0.0, 0.0), (a3[0], 3.0, 3.2)]),
            _row(2, "SB", "DB", path_b, 0.0, 2.5,
                 hops=[(a1[0], 0.0, 1.0), (a2[0], 2.0, 2.0)]),
            _row(3, "SC", "DC", path_c, 2.0, 3.2,
                 hops=[(a2[0], 2.0, 2.5), (a3[0], 3.0, 3.0)]),
        ]
    )
    return TheoryExample(
        name="appendix-f",
        topology=topo,
        schedules=[schedule],
        packet_names={"a": 1, "b": 2, "c": 3},
        notes=(
            "Viable two-congestion-point schedule with a priority cycle: "
            "simple priorities cannot replay it, LSTF can."
        ),
    )


# ---------------------------------------------------------------------- #
# Appendix G: LSTF fails at three congestion points per packet
# ---------------------------------------------------------------------- #
def appendix_g_example() -> TheoryExample:
    """The three-congestion-point LSTF failure example (Figure 7)."""
    topo = Topology("appendix-g")
    a0 = add_congestion_segment(topo, "alpha0", 1.0)
    a1 = add_congestion_segment(topo, "alpha1", 1.0)
    a2 = add_congestion_segment(topo, "alpha2", 1.0)
    for flow in ("A", "B", "C", "D"):
        topo.add_host(f"S{flow}")
        topo.add_host(f"D{flow}")

    fast = FAST_BANDWIDTH_BPS
    topo.add_link("SA", a0[0], fast)
    topo.add_link("SB", a0[0], fast)
    topo.add_link(a0[1], "DB", fast)
    topo.add_link(a0[1], a1[0], fast)
    topo.add_link("SC", a1[0], fast)
    topo.add_link(a1[1], "DC", fast)
    topo.add_link(a1[1], a2[0], fast)
    topo.add_link("SD", a2[0], fast)
    topo.add_link(a2[1], "DD", fast)
    topo.add_link(a2[1], "DA", fast)

    path_a = ["SA", a0[0], a0[1], a1[0], a1[1], a2[0], a2[1], "DA"]
    path_b = ["SB", a0[0], a0[1], "DB"]
    path_c = ["SC", a1[0], a1[1], "DC"]
    path_d = ["SD", a2[0], a2[1], "DD"]

    schedule = Schedule.from_rows(
        [
            _row(1, "SA", "DA", path_a, 0.0, 5.0,
                 hops=[(a0[0], 0.0, 0.0), (a1[0], 1.0, 1.0), (a2[0], 2.0, 4.0)]),
            _row(2, "SB", "DB", path_b, 0.0, 2.0, hops=[(a0[0], 0.0, 1.0)]),
            _row(3, "SC", "DC", path_c, 2.0, 3.0, hops=[(a1[0], 2.0, 2.0)]),
            _row(4, "SC", "DC", path_c, 3.0, 4.0, hops=[(a1[0], 3.0, 3.0)]),
            _row(5, "SD", "DD", path_d, 2.0, 3.0, hops=[(a2[0], 2.0, 2.0)]),
            _row(6, "SD", "DD", path_d, 3.0, 4.0, hops=[(a2[0], 3.0, 3.0)]),
        ]
    )
    return TheoryExample(
        name="appendix-g",
        topology=topo,
        schedules=[schedule],
        packet_names={"a": 1, "b": 2, "c1": 3, "c2": 4, "d1": 5, "d2": 6},
        notes=(
            "Flow A crosses three congestion points; LSTF cannot divide A's "
            "slack correctly among them and some packet misses its target."
        ),
    )


# ---------------------------------------------------------------------- #
# Structural analyses
# ---------------------------------------------------------------------- #
def priority_order_constraints(schedule: Schedule, epsilon: float = 1e-12) -> Dict[int, Set[int]]:
    """Required precedence constraints a static priority assignment must satisfy.

    For every node with recorded hop timings, if packet ``p`` was scheduled
    there before packet ``q`` *while q was already waiting* (q's arrival is
    no later than p's service time), then any replay restricted to static
    priorities must give ``p`` a higher priority: edge ``p -> q``.

    Returns a directed graph over packet ids, each mapped to the set of its
    successors; a cycle in this graph proves that no static priority
    assignment can reproduce the schedule.
    """
    cols = schedule.columns()
    off = cols.hop_offset
    owners = [pid for pid, first, last in zip(cols.packet_id, off, off[1:]) for _ in range(first, last)]
    graph: Dict[int, Set[int]] = {pid: set() for pid in cols.packet_id}
    per_node: Dict[str, List[Tuple[float, float, int]]] = {}
    for node, arrival, start, pid in zip(cols.hop_node, cols.hop_arrival, cols.hop_start_service, owners):
        if start != NO_TIME:
            per_node.setdefault(node, []).append((arrival, start, pid))
    for node, entries in per_node.items():
        for arrival_p, service_p, pid in entries:
            for arrival_q, service_q, qid in entries:
                if pid == qid:
                    continue
                if service_p < service_q - epsilon and arrival_q <= service_p + epsilon:
                    graph[pid].add(qid)
    return graph


def has_priority_cycle(schedule: Schedule) -> bool:
    """Whether the schedule's precedence constraints contain a cycle."""
    try:
        TopologicalSorter(priority_order_constraints(schedule)).prepare()
    except CycleError:
        return True
    return False


def blackbox_attributes(row: dict) -> Tuple[float, float, Tuple[str, ...]]:
    """The information available to black-box initialization: ``(i, o, path)`` of a row."""
    return (row["ingress_time"], row["output_time"], tuple(row["path"]))


def identical_blackbox_views(
    schedule_a: Schedule, schedule_b: Schedule, packet_id: int
) -> bool:
    """Whether a packet looks identical to black-box initialization in two schedules."""
    return blackbox_attributes(schedule_a.row(packet_id)) == blackbox_attributes(
        schedule_b.row(packet_id)
    )
