"""The ``"compiled"`` replay engine: batch setup + the native flat event loop.

Replay is the pipeline's hot path — one record run feeds many replay cells —
and everything a replay needs is known before the first event fires:
a schedule's columns are already in ingress-time order, routes are pinned
(source routing), buffers are infinite, and the candidate schedulers' keys
are either static per hop (EDF, priority, omniscient), arrival order (FIFO)
or an affine function of one dynamic per-packet value (LSTF slack).  This
engine exploits that:

1. **Setup** (here): read the schedule's columns (no per-packet object
   is built), expand each distinct route into per-hop arrays, and compute
   per-hop transmission times vectorized in the exact ``bytes * 8 / bw``
   float form so every derived timestamp is bit-identical to the OO
   engine's.  Headers come from the same
   :meth:`~repro.core.slack.ReplayInitializer.headers` call the OO injector
   stamps packets from, so any initializer replays here.  A fault plan is
   compiled per port by the same :meth:`~repro.faults.FaultPlan.link_faults`
   the OO injector installs from.
2. **Run**: ``run_flat_replay`` in the compiled kernel extension
   (:mod:`repro.sim.compiled`, a hand-written CPython C extension; see
   ``_kernel.c`` for the event choreography it mirrors and the bit-identity
   argument), which takes typed ``array`` buffers only.  It runs the flat
   recorder's port model and event loop (:mod:`repro.sim.flat_record`).  Its
   output arrays become the replayed schedule's columns as they are; packets
   a fault destroys never exit and are left out.

:func:`decline_reason` names what the loop does not model — preemptive LSTF,
finite buffers, unknown modes, fault kinds other than the shipped ones — and
:func:`repro.sim.backend.select_engine` then hands the replay to
``"python"``, the reference engine, so callers never see a behaviour
difference, only a speed difference.  Where the kernel cannot be built (no
C compiler, no Python headers) unselected replays run on ``python`` and
naming ``compiled`` fails with the loader's reason
(:func:`repro.sim.backend.check_backend`, CLI exit 2).
"""

from __future__ import annotations

import math
from array import array
from functools import reduce as _reduce
from itertools import chain, repeat
from operator import add as _add, itemgetter, sub
from typing import Optional

import numpy as np

from repro.core.replay import REPLAY_MODES, replay_fault_horizon, replay_initializer
from repro.core.schedule import Schedule
from repro.core.slack import LinkParams, ReplayInitializer
from repro.faults.defs import BernoulliLoss, GilbertElliottLoss, JammingIntervals, LinkOutage
from repro.schedulers.priority import SjfScheduler
from repro.sim.compiled import kernel_loop
from repro.sim.engine import Simulator
from repro.sim.flat_record import KINDS
from repro.topology.base import Topology


def _as_array(typecode: str, values: np.ndarray) -> array:
    """``values`` copied into a stdlib ``array`` of ``typecode``."""
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(values, dtype=np.dtype(typecode)).data.cast("B"))
    return out


def _flatten(topology: Topology, schedule: Schedule, link_params: LinkParams) -> tuple:
    """Topology-dependent flat arrays of ``(topology, schedule)``.

    Returns ``(off, hop_port, hop_node, hop_tx, hop_sum, prop)``: per-packet
    offsets into the per-hop arrays (one hop per link of the packet's path),
    per hop the directed port id, transmitting node, transmission delay and
    its sum with the link's propagation delay — derived from the ``path`` /
    ``size_bytes`` columns one *route* at a time (flow-structured traffic
    repeats a few dozen routes) — and per port the propagation delay.  All
    but ``hop_node`` (a list of names) are typed ``array`` buffers: ``'q'``
    for the offsets and port ids, ``'d'`` for the delays.
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
    hop_port = array("q", chain.from_iterable(packet_pids))
    hop_node = list(chain.from_iterable(map(itemgetter(slice(None, -1)), cols.path)))
    counts = np.fromiter(map(len, packet_pids), dtype=np.int64, count=len(packet_pids))
    off = array("q", [0])
    off.extend(_as_array("q", np.cumsum(counts)))
    sizes = np.array(cols.size_bytes, dtype=np.float64)
    hop_port_arr = np.frombuffer(hop_port, dtype=np.int64)
    bw_arr, prop_arr = np.array(list(link_params.values()), dtype=np.float64).T
    # Exactly Link.transmission_delay: ``size_bytes * 8 / bandwidth_bps``
    # (IEEE-754 doubles either way, so the batch form is bit-identical).
    hop_tx_arr = (np.repeat(sizes, counts) * 8) / bw_arr[hop_port_arr]
    hop_prop_arr = prop_arr[hop_port_arr]
    # Per-hop (tx + prop): elementwise, so each sum is the same float the
    # OO code computes; folds downstream then add them in the same order.
    hop_sum = _as_array("d", hop_tx_arr + hop_prop_arr)
    flat = (off, hop_port, hop_node, _as_array("d", hop_tx_arr), hop_sum, _as_array("d", prop_arr))
    schedule.derived = (link_params, flat)
    return flat


#: Replay modes with a flat-loop key model.  ``lstf-preemptive`` is excluded:
#: preemption re-opens in-flight transmissions, which the flat loop does not
#: model (the python engine handles it).
SUPPORTED_MODES = frozenset({"lstf", "edf", "priority", "omniscient", "fifo"})

#: Fault kinds the flat loop replays: the shipped ones, whose drop filters
#: ignore their packet argument (the loop has no packet object to hand them).
SUPPORTED_FAULTS = frozenset({LinkOutage, BernoulliLoss, GilbertElliottLoss, JammingIntervals})


def decline_reason(
    topology: Topology, mode: str, default_buffer_bytes: Optional[float] = None, faults=None
) -> Optional[str]:
    """Why the flat loop cannot replay this configuration bit-identically, or ``None``.

    Asked only by :func:`repro.sim.backend.select_engine`; the short, stable
    reason ends up in the replay's log line.  The loop never overflows a
    queue, so finite buffers — the default or any one link's — belong to the
    reference engine, as do preemption and a plan with a fault kind outside
    :data:`SUPPORTED_FAULTS`.  An empty plan is fault-free; any header
    initializer runs.
    """
    if mode not in SUPPORTED_MODES:
        return f"replay mode {mode}"
    if faults is not None and not faults.is_empty():
        for fault in faults.definition.faults:
            if type(fault) not in SUPPORTED_FAULTS:
                return f"fault kind {fault.kind}"
    if default_buffer_bytes is not None:
        return "finite default buffer"
    for spec in topology.links:
        if spec.buffer_bytes is not None:
            return f"finite buffer at {spec.a}<->{spec.b}"
    return None


def replay(
    topology: Topology,
    schedule: Schedule,
    mode: str = "lstf",
    default_buffer_bytes: Optional[float] = None,
    max_events: Optional[int] = None,
    initializer: Optional[ReplayInitializer] = None,
    faults=None,
) -> Schedule:
    """Replay ``schedule`` on the flat loop (see :func:`repro.core.replay.replay_schedule`);
    a mode outside :data:`SUPPORTED_MODES` is a ``ValueError``, never another mode."""
    if mode not in SUPPORTED_MODES:
        raise ValueError(f"the flat loop does not model replay mode {mode!r}")
    if initializer is None:
        initializer = replay_initializer(mode)
    link_params = topology.link_params()
    off, hop_port, hop_node, hop_tx, hop_sum, prop = _flatten(topology, schedule, link_params)

    # ---- header initialization -> the ports' queue kind and its keys ----
    slack, priority, deadline, vectors = initializer.headers(schedule.columns(), link_params)
    # The port kind of the mode's scheduler where the recorder has one
    # (lstf keyed in the loop from the per-packet ``slack``, fifo not at
    # all); the other modes hand per-hop keys to SJF's static-key queue.
    kind = KINDS.get(REPLAY_MODES[mode][0], KINDS[SjfScheduler])
    keys = None if mode == "fifo" else array("d", slack if mode == "lstf" else ())
    if mode == "priority":
        # Each packet's priority on every one of its hops.
        keys.extend(chain.from_iterable(map(repeat, priority, map(sub, off[1:], off))))
    elif mode == "omniscient":
        for vector, first, last in zip(vectors, off, off[1:]):
            # One vector entry is consumed per enqueue, i.e. per hop in
            # path order; hops beyond the vector key at +inf.
            hops = last - first
            keys.extend(vector[:hops])
            keys.extend([math.inf] * (hops - len(vector)))
    elif mode == "edf":
        for target, base, last in zip(deadline, off, off[1:]):
            hops = last - base
            if target == math.inf:
                keys.extend([math.inf] * hops)
                continue
            for k in range(hops):
                # Network.tmin_along over the remaining path: a forward
                # left-fold of (tx + prop) per link, association kept
                # (hop_sum[i] is the elementwise tx + prop; reduce() is
                # the same fold, driven from C).
                tmin_remaining = _reduce(_add, hop_sum[base + k : base + hops], 0.0)
                # EdfScheduler.key: deadline - tmin_remaining + tx.
                keys.append(target - tmin_remaining + hop_tx[base + k])

    # ---- the fault plan, compiled per port in install order ----
    plan = None
    if faults is not None and not faults.is_empty():
        ports = {f"{a}->{b}": port for port, (a, b) in enumerate(link_params)}
        plan = [
            (ports[link_name], filters, windows)
            for link_name, filters, windows in faults.link_faults(
                link_params, replay_fault_horizon(schedule)
            )
        ]

    # ---- run; the result wraps the kernel's output arrays as columns ----
    (arr, start, dep, egress), executed = kernel_loop("run_flat_replay")(
        array("d", schedule.columns().ingress_time),
        off,
        hop_port,
        hop_tx,
        prop,
        kind,
        keys,
        max_events=max_events,
        faults=plan,
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
