"""The ``"vectorized"`` replay backend: batch setup + flat event loop.

Replay is the pipeline's hot path — one record run feeds many replay cells —
and everything a replay needs is known before the first event fires:
``core/replay.py`` already sorts records by ingress time, routes are pinned
(source routing), buffers are infinite, and the candidate schedulers' keys
are either static per hop (EDF, priority, omniscient; constant for FIFO) or
an affine function of one dynamic per-packet value (LSTF slack).  This
backend exploits that:

1. **Setup** (here): read the schedule's columns (no record object is
   built), expand each distinct route into per-hop arrays, and compute
   per-hop transmission times vectorized in the exact ``bytes * 8 / bw``
   float form so every derived timestamp is bit-identical to the OO
   engine's.  Headers come from the same
   :meth:`~repro.core.slack.ReplayInitializer.headers` call the OO injector
   stamps packets from, so any initializer replays here.
2. **Run** (:func:`repro.sim.vectorized.run_flat_replay`): one flat event
   loop over those arrays that mirrors the OO engine's event choreography
   tuple-for-tuple (see that module's docstring); its output arrays become
   the replayed schedule's columns as they are.  A fault plan is compiled
   per port by the same :meth:`~repro.faults.FaultPlan.link_faults` the OO
   injector installs from; packets it destroys never exit and are left out
   of the result.

The backend declines configurations its loop does not model — preemptive
LSTF, finite buffers, unknown modes, fault kinds other than the shipped ones
(:meth:`VectorizedBackend.decline_reason`) — and
:func:`repro.sim.backend.select_engine` then offers the replay to its next
candidate, ending at the ``"python"`` reference backend, so callers never
see a behaviour difference, only a speed difference.

numpy is this backend's only dependency and a hard dependency of the
package (``repro.utils`` imports it), so the backend is always available;
the ``[vectorized]`` extra in ``pyproject.toml`` is a packaging name.
"""

from __future__ import annotations

import math
from functools import reduce as _reduce
from itertools import chain
from operator import add as _add, itemgetter
from typing import List, Optional

import numpy as np

from repro.core.replay import replay_fault_horizon, replay_initializer
from repro.core.schedule import Schedule, paused_gc
from repro.core.slack import LinkParams, ReplayInitializer
from repro.faults.defs import BernoulliLoss, GilbertElliottLoss, JammingIntervals, LinkOutage
from repro.sim.backend import SimBackend
from repro.sim.engine import Simulator
from repro.sim.vectorized import run_flat_replay
from repro.topology.base import Topology


def _flatten(topology: Topology, schedule: Schedule, link_params: LinkParams) -> tuple:
    """Topology-dependent flat arrays of ``(topology, schedule)``.

    Returns ``(off, hop_pkt, hop_port, hop_node, hop_tx, hop_prop, hop_sum,
    num_ports)``: per-packet offsets into the per-hop arrays (one hop per
    link of the packet's path), and per hop the owning packet row, directed
    port id, transmitting node, transmission delay, propagation delay and
    their sum — derived from the ``path`` / ``size_bytes`` columns one
    *route* at a time (flow-structured traffic repeats a few dozen routes).
    Being mode-independent, they stay on the schedule (``schedule.derived``,
    keyed by the link parameters) for its next replay — record once, replay
    many — and are read-only to every caller (the kernel writes only into
    per-call output arrays), which is what makes sharing them sound.
    ``link_params`` is :meth:`~repro.topology.base.Topology.link_params`;
    its key order numbers the ports.
    """
    cols = schedule.columns()
    if schedule.derived is not None and schedule.derived[0] == link_params:
        return schedule.derived[1]

    # ---- one port-id list per distinct route (a port per directed link) ----
    ports = {hop: pid for pid, hop in enumerate(link_params)}
    try:
        route_pids = {
            route: [ports[hop] for hop in zip(route, route[1:])]
            for route in dict.fromkeys(cols.path)
        }
    except KeyError as missing:
        hop = missing.args[0]
        packet_id = next(
            i for i, route in zip(cols.packet_id, cols.path) if hop in zip(route, route[1:])
        )
        raise ValueError(
            f"replayed path of packet {packet_id} crosses {hop[0]!r}->{hop[1]!r}, "
            f"which is not a link of topology {topology.name!r}"
        ) from None

    # ---- per-hop arrays: routes expanded per packet, delays vectorized ----
    packet_pids = list(map(route_pids.__getitem__, cols.path))
    hop_port = list(chain.from_iterable(packet_pids))
    hop_node = list(chain.from_iterable(map(itemgetter(slice(None, -1)), cols.path)))
    counts = np.fromiter(map(len, packet_pids), dtype=np.intp, count=len(packet_pids))
    off = [0] + np.cumsum(counts).tolist()
    hop_pkt = np.repeat(np.arange(len(counts)), counts).tolist()
    sizes = np.array(cols.size_bytes, dtype=np.float64)
    hop_port_arr = np.array(hop_port, dtype=np.intp)
    bw_arr, prop_arr = np.array(list(link_params.values()), dtype=np.float64).T
    # Exactly Link.transmission_delay: ``size_bytes * 8 / bandwidth_bps``
    # (IEEE-754 doubles either way, so the batch form is bit-identical).
    hop_tx_arr = (np.repeat(sizes, counts) * 8) / bw_arr[hop_port_arr]
    hop_prop_arr = prop_arr[hop_port_arr]
    # Per-hop (tx + prop): elementwise, so each sum is the same float the
    # OO code computes; folds downstream then add them in the same order.
    hop_sum = (hop_tx_arr + hop_prop_arr).tolist()
    hop_tx, hop_prop = hop_tx_arr.tolist(), hop_prop_arr.tolist()
    flat = (off, hop_pkt, hop_port, hop_node, hop_tx, hop_prop, hop_sum, len(ports))
    schedule.derived = (link_params, flat)
    return flat


class VectorizedBackend(SimBackend):
    """Array-based replay engine; bit-identical to ``"python"``, much faster."""

    name = "vectorized"
    replay_note = (
        "flat kernel (lstf/edf/priority/omniscient/fifo, infinite buffers, "
        "fault plans); numpy batch precompute + pure-python event loop"
    )

    #: Replay modes with a flat-loop key model.  ``lstf-preemptive`` is
    #: excluded: preemption re-opens in-flight transmissions, which the flat
    #: loop does not model (the python backend handles it).
    SUPPORTED_MODES = frozenset({"lstf", "edf", "priority", "omniscient", "fifo"})

    #: Fault kinds the flat loop replays: the shipped ones, whose drop
    #: filters ignore their packet argument (the loop has no packet object
    #: to hand them).  ``None`` = this engine's kernel takes no fault plan.
    FAULT_KINDS: Optional[frozenset] = frozenset(
        {LinkOutage, BernoulliLoss, GilbertElliottLoss, JammingIntervals}
    )

    def _kernel(self, *args, **kwargs):
        """The flat event loop this backend drives.

        The seam the ``"compiled"`` backend overrides: everything else —
        flattening, header initialization, wrapping the output arrays
        as the replayed schedule — is shared orchestration, so a backend
        swaps engines by swapping this one call
        (:mod:`repro.core.replay_compiled`).
        """
        return run_flat_replay(*args, **kwargs)

    def decline_reason(
        self,
        topology: Topology,
        mode: str,
        default_buffer_bytes: Optional[float] = None,
        faults=None,
    ) -> Optional[str]:
        """Anything the flat loop does not model: preemption, finite buffers,
        foreign fault kinds.

        The loop never overflows a queue, so finite buffers — the default or
        any one link's — belong to the reference engine, as does a plan with
        a fault kind outside :attr:`FAULT_KINDS`.  Any header initializer runs.
        """
        if mode not in self.SUPPORTED_MODES:
            return f"replay mode {mode}"
        if faults is not None and not faults.is_empty():
            if self.FAULT_KINDS is None:
                return "fault plan"
            for fault in faults.definition.faults:
                if type(fault) not in self.FAULT_KINDS:
                    return f"fault kind {fault.kind}"
        if default_buffer_bytes is not None:
            return "finite default buffer"
        for spec in topology.links:
            if spec.buffer_bytes is not None:
                return f"finite buffer at {spec.a}<->{spec.b}"
        return None

    def replay(
        self,
        topology: Topology,
        schedule: Schedule,
        mode: str = "lstf",
        default_buffer_bytes: Optional[float] = None,
        max_events: Optional[int] = None,
        initializer: Optional[ReplayInitializer] = None,
        faults=None,
    ) -> Schedule:
        if initializer is None:
            initializer = replay_initializer(mode)
        link_params = topology.link_params()
        off, hop_pkt, hop_port, hop_node, hop_tx, hop_prop, hop_sum, num_ports = _flatten(
            topology, schedule, link_params
        )

        # ---- header initialization -> per-mode scheduler keys ----
        slack, priority, deadline, vectors = initializer.headers(schedule.columns(), link_params)
        # lstf keys are dynamic, computed in the loop from ``slack`` (a copy:
        # the Python kernel decrements it in place); the other modes hand the
        # kernel static per-hop keys instead.
        hop_key: Optional[List[float]] = None
        if mode == "fifo":
            # One constant key: the per-port enqueue sequence breaks every
            # tie, i.e. serves in arrival order (FifoScheduler).
            hop_key = [0.0] * off[-1]
        elif mode == "priority":
            hop_key = [priority[j] for j in hop_pkt]
        elif mode == "omniscient":
            hop_key = []
            for vector, first, last in zip(vectors, off, off[1:]):
                # One vector entry is consumed per enqueue, i.e. per hop in
                # path order; hops beyond the vector key at +inf.
                hops = last - first
                hop_key.extend(vector[:hops])
                hop_key.extend([math.inf] * (hops - len(vector)))
        elif mode == "edf":
            hop_key = []
            for target, base, last in zip(deadline, off, off[1:]):
                hops = last - base
                if target == math.inf:
                    hop_key.extend([math.inf] * hops)
                    continue
                for k in range(hops):
                    # Network.tmin_along over the remaining path: a forward
                    # left-fold of (tx + prop) per link, association kept
                    # (hop_sum[i] is the elementwise tx + prop; reduce() is
                    # the same fold, driven from C).
                    tmin_remaining = _reduce(_add, hop_sum[base + k : base + hops], 0.0)
                    # EdfScheduler.key: deadline - tmin_remaining + tx.
                    hop_key.append(target - tmin_remaining + hop_tx[base + k])

        slack = list(slack) if hop_key is None else None

        # ---- the fault plan, compiled per port in install order ----
        options = {}
        if faults is not None and not faults.is_empty():
            ports = {f"{a}->{b}": port for port, (a, b) in enumerate(link_params)}
            options["faults"] = [
                (ports[link_name], filters, windows)
                for link_name, filters, windows in faults.link_faults(
                    link_params, replay_fault_horizon(schedule)
                )
            ]

        # ---- run; the result wraps the kernel's output arrays as columns ----
        # The loop allocates hundreds of thousands of heap tuples and floats.
        with paused_gc():
            arr, start, dep, egress, executed = self._kernel(
                schedule.columns().ingress_time,
                off,
                hop_pkt,
                hop_port,
                hop_tx,
                hop_prop,
                num_ports,
                slack,
                hop_key,
                max_events=max_events,
                **options,
            )
        Simulator.events_executed_total += executed
        return schedule.with_timings(
            output_time=egress,
            hop_offset=off,
            hop_node=hop_node,
            hop_arrival=arr,
            hop_start_service=start,
            hop_departure=dep,
        )
