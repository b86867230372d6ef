"""The ``"vectorized"`` replay backend: batch setup + flat event loop.

Replay is the pipeline's hot path — one record run feeds many replay cells —
and everything a replay needs is known before the first event fires:
``core/replay.py`` already sorts records by ingress time, routes are pinned
(source routing), buffers are infinite, and the candidate schedulers' keys
are either static per hop (EDF, priority, omniscient) or an affine function
of one dynamic per-packet value (LSTF slack).  This backend exploits that:

1. **Setup** (here): build the network once (for link parameters and
   routing-independent checks), flatten every packet-hop into arrays, and
   compute per-hop transmission times vectorized in the exact
   ``bytes * 8 / bw`` float form so every derived timestamp is bit-identical
   to the OO engine's.  The shipped header initializers have exact batch
   equivalents (same float expressions, same fold order for ``tmin``);
   an unrecognized initializer falls back to running the real initializer
   on real :class:`Packet` objects, so custom/slack-policy initializers
   behave exactly as on the python backend.
2. **Run** (:func:`repro.sim.vectorized.run_flat_replay`): a flat event loop
   over those arrays that mirrors the OO engine's event choreography
   tuple-for-tuple; see that module's docstring for the determinism
   argument.

The backend declines configurations outside the fast path — preemptive LSTF,
finite buffers, faults, unknown modes — and
:func:`repro.core.replay.replay_schedule` then offers the replay to its next
candidate, ending at the ``"python"`` reference backend, so callers never see
a behaviour difference, only a speed difference.

Header initializers must be pure functions of ``(record, network)`` (every
shipped initializer is): they are evaluated upfront here, not interleaved
with the simulation as on the python backend.

numpy is this backend's only dependency; it is declared as the
``[vectorized]`` extra in ``pyproject.toml`` and its absence surfaces as a
:class:`~repro.pipeline.scenario.PipelineConfigError` (CLI exit 2) the
moment the backend is explicitly selected.
"""

from __future__ import annotations

import gc
import math
import weakref
from functools import reduce as _reduce
from operator import add as _add
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.core.replay import replay_initializer, replay_scheduler_factory
from repro.core.schedule import HopTiming, PacketRecord, Schedule
from repro.core.slack import (
    BlackBoxSlackInitializer,
    DeadlineSlackInitializer,
    OmniscientInitializer,
    OutputTimePriorityInitializer,
    ReplayInitializer,
    StaticDelaySlackInitializer,
    ZeroSlackInitializer,
)
from repro.sim.backend import SimBackend, register_backend
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.sim.tracer import Tracer
from repro.sim.vectorized import run_flat_replay
from repro.topology.base import Topology


def _config_error(message: str) -> Exception:
    from repro.pipeline.scenario import PipelineConfigError

    return PipelineConfigError(message)


#: Per-schedule flattening cache.  The flat view below depends only on the
#: schedule's records and the topology's link parameters — not on the replay
#: mode or initializer — and the pipeline's whole shape is record once,
#: replay many (one recorded schedule drives every candidate mode and
#: replicate), so the flattening is reused across replays of the same
#: schedule.  Keys are weak: a dropped schedule drops its arrays.  Entries
#: are validated against ``Schedule._version`` (bumped on every ``add``) and
#: the freshly derived link parameters, so a hit is exact, never heuristic.
_FLATTEN_CACHE: "weakref.WeakKeyDictionary[Schedule, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _flatten(topology: Topology, schedule: Schedule) -> tuple:
    """Mode-independent flat view of ``(topology, schedule)``.

    Returns ``(records, ingress, off, hop_pkt, hop_port, hop_tx, hop_prop,
    hop_sum, num_ports)``; see :meth:`VectorizedBackend.replay` for the
    meaning of each array.  All returned arrays are treated as read-only by
    the callers (the kernel writes only into per-call output arrays), which
    is what makes caching them sound.
    """
    np = _np
    # ---- link parameters straight from the declarative specs ----
    # The flat loop needs only per-hop (bandwidth, propagation); the specs
    # carry exactly the floats ``topology.build`` would hand the Link
    # objects, so skipping the build (hosts, ports, per-port scheduler
    # instances — none of which the loop touches) changes no output bit
    # while removing the dominant fixed cost on small cells.
    link_params: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for spec in topology.links:
        params = (spec.bandwidth_bps, spec.propagation_delay)
        link_params[(spec.a, spec.b)] = params
        link_params[(spec.b, spec.a)] = params

    cached = _FLATTEN_CACHE.get(schedule)
    if cached is not None:
        version, count, params, flat = cached
        if (
            version == schedule._version
            and count == len(schedule)
            and params == link_params
        ):
            return flat

    records = schedule.records()

    # ---- flatten packet-hops: ports, delays (vectorized), offsets ----
    # Replay traffic is flow-structured, so routes repeat heavily; the
    # per-route port-id cache turns per-hop dict/link lookups into one
    # tuple lookup per packet.
    port_ids: Dict[Tuple[str, str], int] = {}
    route_pids: Dict[Tuple[str, ...], List[int]] = {}
    bandwidths: List[float] = []
    propagations: List[float] = []
    hop_pkt: List[int] = []
    hop_port: List[int] = []
    off: List[int] = [0]
    total = 0
    for j, record in enumerate(records):
        route_key = tuple(record.path)
        pids = route_pids.get(route_key)
        if pids is None:
            pids = []
            for k in range(len(route_key) - 1):
                hop = (route_key[k], route_key[k + 1])
                pid = port_ids.get(hop)
                if pid is None:
                    try:
                        bw, prop = link_params[hop]
                    except KeyError:
                        raise ValueError(
                            f"replayed path of packet {record.packet_id} "
                            f"crosses {hop[0]!r}->{hop[1]!r}, which is not "
                            f"a link of topology {topology.name!r}"
                        ) from None
                    pid = len(bandwidths)
                    port_ids[hop] = pid
                    bandwidths.append(bw)
                    propagations.append(prop)
                pids.append(pid)
            route_pids[route_key] = pids
        hop_port.extend(pids)
        hop_pkt.extend([j] * len(pids))
        total += len(pids)
        off.append(total)

    sizes = np.array([r.size_bytes for r in records], dtype=np.float64)
    hop_port_arr = np.array(hop_port, dtype=np.intp)
    counts = np.diff(np.array(off, dtype=np.intp))
    bw_arr = np.array(bandwidths, dtype=np.float64)
    prop_arr = np.array(propagations, dtype=np.float64)
    # Exactly Link.transmission_delay: ``size_bytes * 8 / bandwidth_bps``
    # (IEEE-754 doubles either way, so the batch form is bit-identical).
    hop_tx_arr = (np.repeat(sizes, counts) * 8) / bw_arr[hop_port_arr]
    hop_tx = hop_tx_arr.tolist()
    hop_prop_arr = prop_arr[hop_port_arr]
    hop_prop = hop_prop_arr.tolist()
    # Per-hop (tx + prop): elementwise, so each sum is the same float the
    # OO code computes; folds downstream then add them in the same order.
    hop_sum = (hop_tx_arr + hop_prop_arr).tolist()
    ingress = [r.ingress_time for r in records]

    flat = (
        records,
        ingress,
        off,
        hop_pkt,
        hop_port,
        hop_tx,
        hop_prop,
        hop_sum,
        len(bandwidths),
    )
    _FLATTEN_CACHE[schedule] = (schedule._version, len(schedule), link_params, flat)
    return flat


class VectorizedBackend(SimBackend):
    """Array-based replay engine; bit-identical to ``"python"``, much faster."""

    name = "vectorized"
    replay_note = (
        "replay fast path (lstf/edf/priority/omniscient, infinite buffers); "
        "numpy batch precompute + pure-python flat event loop"
    )

    #: Replay modes with a flat-loop key model.  ``lstf-preemptive`` is
    #: excluded: preemption re-opens in-flight transmissions, which the flat
    #: loop does not model (the python backend handles it).
    SUPPORTED_MODES = frozenset({"lstf", "edf", "priority", "omniscient"})

    def _kernel(self, *args, **kwargs):
        """The flat event loop this backend drives.

        The seam the ``"compiled"`` backend overrides: everything else —
        flattening, batch header initialization, schedule rebuild — is
        shared orchestration, so a backend swaps engines by swapping this
        one call (:mod:`repro.core.replay_compiled`).
        """
        return run_flat_replay(*args, **kwargs)

    def check_available(self) -> None:
        if _np is None:
            raise _config_error(
                "backend 'vectorized' requires numpy, which is not installed; "
                "install the [vectorized] extra (pip install 'repro-ups[vectorized]') "
                "or select --backend python"
            )

    def supports_replay(
        self,
        mode: str,
        default_buffer_bytes: Optional[float] = None,
        initializer: Optional[ReplayInitializer] = None,
        topology: Optional[Topology] = None,
        faults=None,
    ) -> bool:
        """The fast path: infinite buffers, a non-preemptive key-mode, no faults.

        A topology with finite per-link buffers also declines: the flat
        loop never drops packets, so finite-buffer replays belong to the
        reference backend.  Fault-bearing replays (a non-empty fault plan)
        decline for the same reason — the flat loop has no drop path.
        """
        return (
            _np is not None
            and mode in self.SUPPORTED_MODES
            and default_buffer_bytes is None
            and (faults is None or faults.is_empty())
            and (
                topology is None
                or all(spec.buffer_bytes is None for spec in topology.links)
            )
        )

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
        self.check_available()
        if not self.supports_replay(
            mode, default_buffer_bytes=default_buffer_bytes, topology=topology, faults=faults
        ):
            raise _config_error(
                f"vectorized backend does not support mode={mode!r} with "
                f"default_buffer_bytes={default_buffer_bytes!r}, "
                f"faults={'set' if faults is not None and not faults.is_empty() else None!r} "
                f"on topology {topology.name!r}; use the python backend "
                "(replay_schedule falls back automatically)"
            )
        if initializer is None:
            initializer = replay_initializer(mode)
        if not len(schedule):
            return Schedule()
        (
            records,
            ingress,
            off,
            hop_pkt,
            hop_port,
            hop_tx,
            hop_prop,
            hop_sum,
            num_ports,
        ) = _flatten(topology, schedule)
        n = len(records)

        # ---- header initialization -> per-mode scheduler keys ----
        slack, priority, deadline, vectors = _initialize_headers(
            initializer, records, topology, mode, off, hop_sum
        )
        hop_key: Optional[List[float]] = None
        if mode == "lstf":
            pass  # dynamic keys, computed in the loop from ``slack``
        elif mode == "priority":
            slack = None
            hop_key = [priority[j] for j in hop_pkt]
        elif mode == "omniscient":
            slack = None
            hop_key = []
            for j in range(n):
                vector = vectors[j]
                hops = off[j + 1] - off[j]
                # One vector entry is consumed per enqueue, i.e. per hop in
                # path order; hops beyond the vector key at +inf.
                if len(vector) >= hops:
                    hop_key.extend(vector[:hops])
                else:
                    hop_key.extend(vector)
                    hop_key.extend([math.inf] * (hops - len(vector)))
        else:  # edf
            slack = None
            hop_key = []
            for j in range(n):
                base = off[j]
                hops = off[j + 1] - base
                target = deadline[j]
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

        # ---- run + rebuild the schedule keyed by original packet ids ----
        # The loop and the rebuild allocate hundreds of thousands of
        # non-cyclic objects (heap tuples, HopTiming, PacketRecord); pausing
        # the cycle collector around them avoids repeated gen-0 scans of an
        # ever-growing live set.  Refcounting still frees everything.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            arr, start, dep, egress, executed = self._kernel(
                ingress,
                off,
                hop_pkt,
                hop_port,
                hop_tx,
                hop_prop,
                num_ports,
                slack,
                hop_key,
                max_events=max_events,
            )
            Simulator.events_executed_total += executed

            replayed = Schedule()
            add = replayed._records.__setitem__  # ids unique per records()
            make_hop = HopTiming
            make_record = PacketRecord
            for j, record in enumerate(records):
                out_time = egress[j]
                if out_time is None:  # still in flight when max_events hit
                    continue
                path = record.path
                base = off[j]
                end = off[j + 1]
                # map() stops at the shortest iterable: the slices carry one
                # entry per transit node, so the destination (path[-1]) is
                # naturally excluded.
                hops = list(
                    map(make_hop, path, arr[base:end], start[base:end], dep[base:end])
                )
                add(
                    record.packet_id,
                    make_record(
                        record.packet_id,
                        record.flow_id,
                        record.src,
                        record.dst,
                        record.size_bytes,
                        ingress[j],
                        out_time,
                        list(path),
                        hops,
                        record.flow_size_bytes,
                        record.deadline,
                    ),
                )
        finally:
            if gc_was_enabled:
                gc.enable()
        return replayed


def _initialize_headers(
    initializer: ReplayInitializer,
    records,
    topology: Topology,
    mode: str,
    off: List[int],
    hop_sum: List[float],
):
    """Per-packet header state (slack, priority, deadline, hop vectors).

    The shipped initializers are evaluated in batch with the exact float
    expressions of their ``initialize`` methods (``None`` encoded as
    ``math.inf``, which keys and decrements identically).  Any other
    initializer runs for real, on real packets against a freshly built
    network, in record order — slower, but behaviourally indistinguishable
    from the python backend.
    """
    n = len(records)
    inf = math.inf
    slack: Optional[List[float]] = None
    priority: Optional[List[float]] = None
    deadline: Optional[List[float]] = None
    vectors: Optional[List[List[float]]] = None
    kind = type(initializer)

    if kind is BlackBoxSlackInitializer:
        # slack = o - i - tmin(path); deadline = o.  The tmin fold matches
        # Network.tmin_along: total += (tx + prop), link by link, forward
        # (hop_sum[f] is the elementwise tx + prop of hop f).
        slack = []
        deadline = []
        for j, record in enumerate(records):
            # reduce() drives the same left fold from C: ((0.0 + a) + b) + ...
            tmin = _reduce(_add, hop_sum[off[j] : off[j + 1]], 0.0)
            slack.append(record.output_time - record.ingress_time - tmin)
            deadline.append(record.output_time)
    elif kind is OutputTimePriorityInitializer:
        priority = [r.output_time for r in records]
        deadline = list(priority)
    elif kind is OmniscientInitializer:
        vectors = [r.hop_output_times() for r in records]
        deadline = [r.output_time for r in records]
    elif kind is ZeroSlackInitializer:
        slack = [0.0] * n
        deadline = [inf if r.deadline is None else r.deadline for r in records]
    elif kind is StaticDelaySlackInitializer:
        slack = [initializer.slack_seconds] * n
        deadline = [inf if r.deadline is None else r.deadline for r in records]
    elif kind is DeadlineSlackInitializer:
        # Same min as the initializer's per-network cache takes over
        # network.links: full-duplex links share one bandwidth, so the
        # spec-level min is the same float.
        bottleneck = min(spec.bandwidth_bps for spec in topology.links)
        fallback = initializer.no_deadline_slack
        slack = []
        deadline = []
        for record in records:
            target = record.deadline
            if target is None:
                slack.append(fallback)
                deadline.append(inf)
                continue
            flow_bytes = record.flow_size_bytes
            if flow_bytes is None:
                flow_bytes = record.size_bytes
            # Same float form as DeadlineSlackInitializer.initialize.
            residual = flow_bytes * 8 / bottleneck
            slack.append(target - record.ingress_time - residual)
            deadline.append(target)
    else:
        # Unknown initializer: run the real thing on real packets against a
        # real network, exactly as ReplayInjector._inject builds them.  The
        # build is deferred to here because only this path needs it.
        network = topology.build(
            Simulator(),
            replay_scheduler_factory(mode),
            tracer=Tracer(),
            default_buffer_bytes=None,
        )
        slack = []
        priority = []
        deadline = []
        vectors = []
        for record in records:
            packet = Packet(
                flow_id=record.flow_id,
                src=record.src,
                dst=record.dst,
                size_bytes=record.size_bytes,
                ptype=PacketType.DATA,
                route=list(record.path),
                replay_of=record.packet_id,
            )
            packet.header.flow_size_bytes = record.flow_size_bytes
            packet.flow_deadline = record.deadline
            initializer.initialize(packet, record, network)
            header = packet.header
            slack.append(inf if header.slack is None else header.slack)
            priority.append(inf if header.priority is None else header.priority)
            deadline.append(inf if header.deadline is None else header.deadline)
            vectors.append(
                list(header.hop_output_times)
                if header.hop_output_times is not None
                else []
            )
        return slack, priority, deadline, vectors

    if slack is None:
        slack = [inf] * n
    if priority is None:
        priority = [inf] * n
    if deadline is None:
        deadline = [inf] * n
    if vectors is None:
        vectors = [[] for _ in range(n)]
    return slack, priority, deadline, vectors


register_backend("vectorized", VectorizedBackend)
