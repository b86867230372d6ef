"""Internet2-like backbone topology.

The paper's default topology is "a simplified Internet-2 topology, identical
to the one used in [21] (consisting of 10 routers and 16 links in the core)";
each core router is connected to 10 edge routers, and each edge router to one
end host.  The paper does not give the fiber map or the link speeds, so this
module makes choices that no source here confirms:

* 10 core routers, 16 core links (so paths traverse 4–7 hops),
* the relative bandwidths of host↔edge, edge↔core, and core links, which the
  paper varies across Table-1 rows (1 Gbps-10 Gbps, 1 Gbps-1 Gbps,
  10 Gbps-10 Gbps), and
* a heterogeneous core in which some links are slower than the access links.

The core is a fixed adjacency list modelled after the Abilene/Internet2
backbone (10 PoPs, 16 links) with kilometre-scale propagation delays, and
the three bandwidth knobs are exposed.  These choices are load-bearing: at
1/100 of the paper's bandwidths, seed 1, the default Table-1 row, LSTF's
overdue fraction moves about 100x between readings of the map and link
speeds (5.79 % as shipped, 0.056 % with a 10 Gbps edge↔core and 1 Gbps hosts).

For laptop-scale runs the ``scale`` parameter divides every bandwidth by a
constant and ``edge_routers_per_core`` shrinks the fan-out.  Results depend
on the absolute scale, not only on utilization: scaling bandwidth changes the
ratio of propagation to transmission time.  1/1000 of the bandwidths over
10 s and 1/100 over 1 s carry the same 14,163 packets, yet priority replay
leaves 0.94 % against 6.23 % of them overdue by more than one bottleneck
transmission time.
"""

from __future__ import annotations

from typing import Optional

from repro.topology.base import Topology
from repro.utils.units import gbps, milliseconds

#: Core PoPs (10 routers), loosely named after Internet2 points of presence.
CORE_ROUTERS = [
    "seattle",
    "sunnyvale",
    "losangeles",
    "denver",
    "kansascity",
    "houston",
    "chicago",
    "atlanta",
    "washington",
    "newyork",
]

#: 16 core links (pairs of PoP indices) with one-way propagation delays in ms.
#: The adjacency gives path lengths of 1–5 core hops (4–7 hops once the edge
#: and access links are included), matching the paper's setup.
CORE_LINKS = [
    ("seattle", "sunnyvale", 4.0),
    ("seattle", "denver", 6.0),
    ("seattle", "chicago", 10.0),
    ("sunnyvale", "losangeles", 2.0),
    ("sunnyvale", "denver", 5.0),
    ("losangeles", "houston", 7.0),
    ("denver", "kansascity", 3.0),
    ("kansascity", "houston", 4.0),
    ("kansascity", "chicago", 3.0),
    ("houston", "atlanta", 5.0),
    ("chicago", "atlanta", 5.0),
    ("chicago", "newyork", 4.0),
    ("atlanta", "washington", 3.0),
    ("washington", "newyork", 2.0),
    ("losangeles", "atlanta", 10.0),
    ("denver", "chicago", 5.0),
]

#: Core-link bandwidth pattern: the Internet2-like core is heterogeneous, with
#: a little over half the links at 10 Gbps and the rest at 2.4 Gbps (OC-48
#: class).  Indexed in the same order as :data:`CORE_LINKS`.
CORE_BANDWIDTH_PATTERN_GBPS = [10, 2.4, 10, 2.4, 10, 2.4, 10, 2.4, 10, 2.4,
                               10, 2.4, 10, 2.4, 10, 10]


def internet2_topology(
    edge_core_bandwidth_bps: float = gbps(1),
    host_edge_bandwidth_bps: float = gbps(10),
    core_bandwidth_bps: Optional[float] = None,
    edge_routers_per_core: int = 10,
    hosts_per_edge: int = 1,
    scale: float = 1.0,
    propagation_scale: float = 1.0,
    name: Optional[str] = None,
) -> Topology:
    """Build the Internet2-like topology used throughout the paper.

    Args:
        edge_core_bandwidth_bps: Bandwidth of edge-router ↔ core-router links
            (the first number in the paper's "I2 X-Y" naming).
        host_edge_bandwidth_bps: Bandwidth of host ↔ edge-router links (the
            second number in the naming).
        core_bandwidth_bps: If given, every core link uses this bandwidth;
            otherwise the heterogeneous 10 / 2.4 Gbps pattern is used.
        edge_routers_per_core: Fan-out of each core router (paper: 10).
        hosts_per_edge: Hosts attached to each edge router (paper: 1).
        scale: Every bandwidth is divided by this factor.  Scaling all
            bandwidths equally preserves utilization and queueing behaviour
            while letting short simulations carry far fewer packets.
        propagation_scale: Multiplier on the core propagation delays (the
            fairness experiment shrinks propagation to converge faster).
        name: Override the generated topology name.
    """
    if edge_routers_per_core < 1:
        raise ValueError("need at least one edge router per core router")
    if hosts_per_edge < 1:
        raise ValueError("need at least one host per edge router")
    if scale <= 0:
        raise ValueError("scale must be positive")

    def scaled(bandwidth: float) -> float:
        return bandwidth / scale

    label = name or (
        f"I2-{edge_core_bandwidth_bps / gbps(1):g}Gbps-"
        f"{host_edge_bandwidth_bps / gbps(1):g}Gbps"
    )
    topo = Topology(label)

    for router in CORE_ROUTERS:
        topo.add_router(f"core-{router}")

    for index, (a, b, delay_ms) in enumerate(CORE_LINKS):
        if core_bandwidth_bps is not None:
            bandwidth = core_bandwidth_bps
        else:
            bandwidth = gbps(CORE_BANDWIDTH_PATTERN_GBPS[index])
        topo.add_link(
            f"core-{a}",
            f"core-{b}",
            scaled(bandwidth),
            milliseconds(delay_ms) * propagation_scale,
        )

    edge_delay = milliseconds(0.5) * propagation_scale
    host_delay = milliseconds(0.05) * propagation_scale
    for core in CORE_ROUTERS:
        for edge_index in range(edge_routers_per_core):
            edge_name = f"edge-{core}-{edge_index}"
            topo.add_router(edge_name)
            topo.add_link(
                edge_name, f"core-{core}", scaled(edge_core_bandwidth_bps), edge_delay
            )
            for host_index in range(hosts_per_edge):
                host_name = f"host-{core}-{edge_index}-{host_index}"
                topo.add_host(host_name)
                topo.add_link(
                    host_name, edge_name, scaled(host_edge_bandwidth_bps), host_delay
                )
    return topo
