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
   engine's.  The shipped header initializers
   (:attr:`VectorizedBackend.INITIALIZER_KINDS`) have exact batch
   equivalents: same float expressions, same fold order for ``tmin``.
2. **Run** (:func:`repro.sim.vectorized.run_flat_replay`): one flat event
   loop over those arrays that mirrors the OO engine's event choreography
   tuple-for-tuple (see that module's docstring); its output arrays become
   the replayed schedule's columns as they are.  A fault plan is compiled
   per port by the same :meth:`~repro.faults.FaultPlan.link_faults` the OO
   injector installs from; packets it destroys never exit and are left out
   of the result.

The backend declines configurations its loop does not model — preemptive
LSTF, finite buffers, unknown modes, initializers and fault kinds other than
the shipped ones (:meth:`VectorizedBackend.decline_reason`) — and
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.replay import replay_fault_horizon, replay_initializer
from repro.core.schedule import Schedule, paused_gc
from repro.core.slack import (
    BlackBoxSlackInitializer,
    DeadlineSlackInitializer,
    OmniscientInitializer,
    OutputTimePriorityInitializer,
    ReplayInitializer,
    StaticDelaySlackInitializer,
    ZeroSlackInitializer,
)
from repro.faults.defs import BernoulliLoss, GilbertElliottLoss, JammingIntervals, LinkOutage
from repro.sim.backend import SimBackend
from repro.sim.engine import Simulator
from repro.sim.vectorized import run_flat_replay
from repro.topology.base import Topology


def _link_params(topology: Topology) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """``(bandwidth, propagation)`` of every directed link; its key order numbers the ports.

    Straight from the declarative specs: the flat loop needs only these two
    floats per hop, and the specs carry exactly the ones ``topology.build``
    would hand the Link objects, so skipping the build (hosts, ports,
    per-port scheduler instances — none of which the loop touches) changes no
    output bit while removing the dominant fixed cost on small cells.
    """
    link_params: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for spec in topology.links:
        params = (spec.bandwidth_bps, spec.propagation_delay)
        link_params[(spec.a, spec.b)] = params
        link_params[(spec.b, spec.a)] = params
    return link_params


def _flatten(topology: Topology, schedule: Schedule) -> tuple:
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
    """
    link_params = _link_params(topology)
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
        "flat kernel (lstf/edf/priority/omniscient/fifo, infinite buffers, shipped "
        "initializers, fault plans); numpy batch precompute + pure-python event loop"
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

    #: Header initializers with an exact batch form (:func:`_initialize_headers`),
    #: matched by exact class: a subclass may override ``initialize``.
    INITIALIZER_KINDS = frozenset(
        {
            BlackBoxSlackInitializer,
            OutputTimePriorityInitializer,
            OmniscientInitializer,
            ZeroSlackInitializer,
            StaticDelaySlackInitializer,
            DeadlineSlackInitializer,
        }
    )

    def _kernel(self, *args, **kwargs):
        """The flat event loop this backend drives.

        The seam the ``"compiled"`` backend overrides: everything else —
        flattening, batch header initialization, wrapping the output arrays
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
        initializer: Optional[ReplayInitializer] = None,
        faults=None,
    ) -> Optional[str]:
        """Anything the flat loop does not model: preemption, finite buffers,
        foreign initializers and fault kinds.

        The loop never overflows a queue, so finite buffers — the default or
        any one link's — belong to the reference engine, as does an
        initializer outside :attr:`INITIALIZER_KINDS` or a plan with a fault
        kind outside :attr:`FAULT_KINDS`.
        """
        if mode not in self.SUPPORTED_MODES:
            return f"replay mode {mode}"
        if initializer is not None and type(initializer) not in self.INITIALIZER_KINDS:
            return f"initializer {type(initializer).__name__}"
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
        off, hop_pkt, hop_port, hop_node, hop_tx, hop_prop, hop_sum, num_ports = _flatten(
            topology, schedule
        )

        # ---- header initialization -> per-mode scheduler keys ----
        slack, priority, deadline, vectors = _initialize_headers(
            initializer, schedule, topology, off, hop_sum
        )
        # lstf keys are dynamic, computed in the loop from ``slack``; the
        # other modes hand the kernel static per-hop keys instead.
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

        if hop_key is not None:
            slack = None

        # ---- the fault plan, compiled per port in install order ----
        options = {}
        if faults is not None and not faults.is_empty():
            links = _link_params(topology)
            ports = {f"{a}->{b}": port for port, (a, b) in enumerate(links)}
            options["faults"] = [
                (ports[link_name], filters, windows)
                for link_name, filters, windows in faults.link_faults(
                    links, replay_fault_horizon(schedule)
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


def _initialize_headers(
    initializer: ReplayInitializer,
    schedule: Schedule,
    topology: Topology,
    off: List[int],
    hop_sum: List[float],
):
    """Per-packet header state (slack, priority, deadline, hop vectors).

    Each of :attr:`VectorizedBackend.INITIALIZER_KINDS` is evaluated in batch
    over the schedule's columns with the exact float expressions of its
    ``initialize`` method (``None`` encoded as ``math.inf``, which keys and
    decrements identically); any other initializer was declined.
    """
    cols = schedule.columns()
    n = len(cols.packet_id)
    inf = math.inf
    # What a header field the initializer leaves unset (None) encodes to
    # (``vectors`` is only ever read, so one empty list serves every packet).
    slack, priority, deadline = [inf] * n, [inf] * n, [inf] * n
    vectors: List[List[float]] = [[]] * n
    kind = type(initializer)

    if kind is BlackBoxSlackInitializer:
        # slack = o - i - tmin(path); deadline = o.  The tmin fold matches
        # Network.tmin_along: total += (tx + prop), link by link, forward
        # (hop_sum[f] is the elementwise tx + prop of hop f).
        slack = [
            # reduce() drives the same left fold from C: ((0.0 + a) + b) + ...
            output - ingress - _reduce(_add, hop_sum[first:last], 0.0)
            for output, ingress, first, last in zip(
                cols.output_time, cols.ingress_time, off, off[1:]
            )
        ]
        deadline = cols.output_time
    elif kind is OutputTimePriorityInitializer:
        priority = deadline = cols.output_time
    elif kind is OmniscientInitializer:
        # PacketRecord.hop_output_times: the recorded service starts.
        starts, own = cols.hop_start_service, cols.hop_offset
        vectors = [
            [t for t in starts[first:last] if t is not None]
            for first, last in zip(own, own[1:])
        ]
        deadline = cols.output_time
    elif kind is ZeroSlackInitializer:
        slack = [0.0] * n
        deadline = [inf if d is None else d for d in cols.deadline]
    elif kind is StaticDelaySlackInitializer:
        slack = [initializer.slack_seconds] * n
        deadline = [inf if d is None else d for d in cols.deadline]
    elif kind is DeadlineSlackInitializer:
        # Same min as the initializer's per-network cache takes over
        # network.links: full-duplex links share one bandwidth, so the
        # spec-level min is the same float.
        bottleneck = min(spec.bandwidth_bps for spec in topology.links)
        fallback = initializer.no_deadline_slack
        slack = []
        deadline = []
        for target, flow_bytes, size, ingress in zip(
            cols.deadline, cols.flow_size_bytes, cols.size_bytes, cols.ingress_time
        ):
            if target is None:
                slack.append(fallback)
                deadline.append(inf)
                continue
            if flow_bytes is None:
                flow_bytes = size
            # Same float form as DeadlineSlackInitializer.initialize.
            residual = flow_bytes * 8 / bottleneck
            slack.append(target - ingress - residual)
            deadline.append(target)
    return slack, priority, deadline, vectors
