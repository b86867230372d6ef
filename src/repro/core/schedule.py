"""Schedules: the paper's central object.

A *schedule* is the set ``{(path(p), i(p), o(p))}`` produced by running some
collection of scheduling algorithms over a fixed input load (Section 2.1).
:class:`PacketRecord` captures one packet's entry, :class:`Schedule` the whole
set, along with the per-hop timing detail needed for omniscient replay and for
congestion-point analysis.

Schedules come from three places:

* recorded from a simulation run (:meth:`Schedule.from_tracer`),
* constructed by hand (the theory counterexamples build small viable
  schedules directly, exactly as the paper's appendix figures do), or
* loaded from disk (:func:`load_schedule`) — the pipeline's "record once,
  replay many" workflow persists recorded schedules as gzipped JSON-lines
  so replays (possibly in other processes) never re-record.

The on-disk format (``repro-schedule/1``) is one JSON object per line: a
header carrying free-form metadata (the pipeline stores the topology spec and
the cache key there) followed by one line per :class:`PacketRecord`.  The
round-trip is lossless: floats are serialized with full ``repr`` precision,
so a loaded schedule replays bit-identically to the in-memory original.

Large schedules may instead be **sharded** (``repro-schedule-manifest/1``):
a single-line JSON manifest (``<key>.manifest.json``) naming ingress-time
chunks stored as ordinary ``repro-schedule/1`` files
(``<key>.shard-<i>.jsonl.gz``), each covering a contiguous slice of the
canonical ``(ingress_time, packet_id)`` order.  Sharding is pure storage
layout: it never enters cache keys, and :func:`load_schedule` returns the
same schedule either way.  :func:`iter_schedule_records` cursors through
either form one record at a time, so scale-tier consumers (the streaming
injector, the flat-array kernels, the streaming metrics) never hold a whole
schedule in memory.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import os
from dataclasses import dataclass, field
from itertools import starmap
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.sim.packet import Packet
from repro.sim.tracer import Tracer

#: Format tag written into the header line of serialized schedules.
SCHEDULE_FORMAT = "repro-schedule/1"

#: Format tag of the shard manifest for sharded schedules.
MANIFEST_FORMAT = "repro-schedule-manifest/1"

#: Filename suffix that marks a shard manifest.
MANIFEST_SUFFIX = ".manifest.json"


@dataclass(slots=True)
class HopTiming:
    """Original-schedule timing of one packet at one node.

    Treated as immutable by convention (not enforced: schedules construct
    millions of these on the replay hot path, and a frozen dataclass pays
    an ``object.__setattr__`` per field — ~3x the construction cost).

    Attributes:
        node: Node name.
        arrival_time: When the packet (last bit) arrived at the node.
        start_service_time: When the node started transmitting the packet —
            the paper's ``o(p, alpha)``.
        departure_time: When the last bit left the node.
    """

    node: str
    arrival_time: float
    start_service_time: Optional[float]
    departure_time: Optional[float]

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting in the node's queue before service began."""
        if self.start_service_time is None:
            return 0.0
        return self.start_service_time - self.arrival_time

    def to_list(self) -> list:
        """Compact JSON form, in field order: ``HopTiming(*hop.to_list())`` inverts it."""
        return [self.node, self.arrival_time, self.start_service_time, self.departure_time]


@dataclass(slots=True)
class PacketRecord:
    """One packet's entry in a schedule.

    Attributes:
        packet_id: Identifier of the packet in the original run.
        flow_id: Flow the packet belonged to.
        src: Source host name (the packet's ingress).
        dst: Destination host name (the packet's egress).
        size_bytes: Packet size.
        ingress_time: ``i(p)`` — when the packet entered the network.
        output_time: ``o(p)`` — when the packet's last bit left the network.
        path: Node names from source to destination (inclusive).
        hops: Per-hop timing from the original run (may be empty for
            hand-built schedules that only specify end-to-end times).
        flow_size_bytes: Size of the packet's flow, carried through so that
            replay modes that need it (e.g. SJF-flavoured analyses) have it.
        deadline: Absolute completion deadline of the packet's flow
            (``None`` when the workload carried no deadlines).  Set by
            deadline-tagging perturbations; replay evaluation reports
            deadline-met fractions for original and replay when present.
    """

    packet_id: int
    flow_id: int
    src: str
    dst: str
    size_bytes: float
    ingress_time: float
    output_time: float
    path: List[str]
    hops: List[HopTiming] = field(default_factory=list)
    flow_size_bytes: Optional[float] = None
    deadline: Optional[float] = None

    @classmethod
    def from_packet(cls, packet: Packet) -> "PacketRecord":
        """Build a record from a delivered packet of a finished simulation."""
        if packet.egress_time is None:
            raise ValueError(
                f"packet {packet.packet_id} has not exited the network; only "
                "delivered packets can enter a schedule"
            )
        hops = [
            HopTiming(
                node=hop.node,
                arrival_time=hop.arrival_time,
                start_service_time=hop.start_service_time,
                departure_time=hop.departure_time,
            )
            for hop in packet.hops
        ]
        path = [hop.node for hop in packet.hops]
        if not path or path[-1] != packet.dst:
            path = path + [packet.dst]
        return cls(
            packet_id=packet.packet_id,
            flow_id=packet.flow_id,
            src=packet.src,
            dst=packet.dst,
            size_bytes=packet.size_bytes,
            ingress_time=packet.ingress_time if packet.ingress_time is not None else 0.0,
            output_time=packet.egress_time,
            path=path,
            hops=hops,
            flow_size_bytes=packet.header.flow_size_bytes,
            deadline=packet.flow_deadline,
        )

    @property
    def network_delay(self) -> float:
        """End-to-end delay ``o(p) - i(p)`` in the original schedule."""
        return self.output_time - self.ingress_time

    @property
    def total_queueing_delay(self) -> float:
        """Sum of per-hop queueing delays in the original schedule."""
        return sum(hop.queueing_delay for hop in self.hops)

    def congestion_points(self, epsilon: float = 1e-12) -> int:
        """Number of nodes at which the packet waited more than ``epsilon``.

        This is the paper's notion of a congestion point: "a node where a
        packet is forced to wait during a given schedule".
        """
        return sum(1 for hop in self.hops if hop.queueing_delay > epsilon)

    def hop_output_times(self) -> List[float]:
        """The per-hop service-start times ``o(p, alpha_i)`` (omniscient header)."""
        times: List[float] = []
        for hop in self.hops:
            if hop.start_service_time is not None:
                times.append(hop.start_service_time)
        return times

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable form of this record (lossless)."""
        return {
            "packet_id": self.packet_id,
            "flow_id": self.flow_id,
            "src": self.src,
            "dst": self.dst,
            "size_bytes": self.size_bytes,
            "ingress_time": self.ingress_time,
            "output_time": self.output_time,
            "path": list(self.path),
            "hops": [hop.to_list() for hop in self.hops],
            "flow_size_bytes": self.flow_size_bytes,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PacketRecord":
        """Inverse of :meth:`to_dict`.

        Positional, in field order: this is the cache-decode inner loop (one
        call per stored packet), where keyword binding plus a Python-level
        call per hop cost about a sixth of the decode.
        """
        try:
            hops = list(starmap(HopTiming, data["hops"]))
        except TypeError:
            raise ValueError(
                f"packet {data.get('packet_id')}: every hop must be "
                "[node, arrival, start_service, departure]"
            ) from None
        return cls(
            data["packet_id"],
            data["flow_id"],
            data["src"],
            data["dst"],
            data["size_bytes"],
            data["ingress_time"],
            data["output_time"],
            list(data["path"]),
            hops,
            data.get("flow_size_bytes"),
            data.get("deadline"),
        )


# Canonical record order (ingress time, then packet id).  attrgetter builds
# the key tuples in C — records() sits on the replay hot path, where the
# equivalent lambda costs ~2.5x as much per sort.
_RECORD_ORDER = attrgetter("ingress_time", "packet_id")


class Schedule:
    """A set of packet records indexed by packet id."""

    def __init__(self, records: Optional[Iterable[PacketRecord]] = None) -> None:
        self._records: Dict[int, PacketRecord] = {}
        #: Mutation counter: bumped by every ``add``, so derived views (the
        #: vectorized backend's per-schedule flattening cache) can detect
        #: staleness exactly instead of guessing from lengths.
        self._version = 0
        if records is not None:
            for record in records:
                self.add(record)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, record: PacketRecord) -> None:
        """Insert a record (packet ids must be unique)."""
        if record.packet_id in self._records:
            raise ValueError(f"duplicate packet id {record.packet_id} in schedule")
        self._records[record.packet_id] = record
        self._version += 1

    @classmethod
    def from_packets(
        cls, packets: Iterable[Packet], use_replay_ids: bool = False
    ) -> "Schedule":
        """Build a schedule from delivered packets.

        Args:
            packets: Delivered packets (must have egress times).
            use_replay_ids: If true, records are keyed by each packet's
                ``replay_of`` id, so a replay run's schedule lines up with the
                original schedule it was replaying.
        """
        schedule = cls()
        for packet in packets:
            record = PacketRecord.from_packet(packet)
            if use_replay_ids and packet.replay_of is not None:
                record.packet_id = packet.replay_of
            schedule.add(record)
        return schedule

    @classmethod
    def from_tracer(cls, tracer: Tracer, data_only: bool = True) -> "Schedule":
        """Build a schedule from a finished simulation's tracer."""
        packets = tracer.delivered_data_packets() if data_only else tracer.delivered
        return cls.from_packets(packets)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self._records.values())

    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self._records

    def record(self, packet_id: int) -> PacketRecord:
        """The record for ``packet_id`` (raises ``KeyError`` if absent)."""
        return self._records[packet_id]

    def get(self, packet_id: int) -> Optional[PacketRecord]:
        """The record for ``packet_id``, or ``None``."""
        return self._records.get(packet_id)

    def records(self) -> List[PacketRecord]:
        """All records, ordered by ingress time (then packet id)."""
        return sorted(self._records.values(), key=_RECORD_ORDER)

    def canonical_records(self) -> List[PacketRecord]:
        """Records in the comparator's canonical order.

        The canonical order is ``(ingress_time, packet_id)`` across records,
        with each record's hops visited in ``hop_index`` order — the walk
        order of the first-divergence comparator (:mod:`repro.diff`), of
        replay injection, and of the on-disk format.  Today this is exactly
        :meth:`records`; the alias exists so every canonical-order consumer
        names the contract it depends on.
        """
        return self.records()

    def packet_ids(self) -> List[int]:
        """All packet ids present in the schedule."""
        return list(self._records.keys())

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def max_congestion_points(self, epsilon: float = 1e-12) -> int:
        """Largest per-packet congestion-point count in the schedule."""
        return max((r.congestion_points(epsilon) for r in self), default=0)

    def congestion_point_histogram(self, epsilon: float = 1e-12) -> Dict[int, int]:
        """Histogram mapping congestion-point count to number of packets."""
        histogram: Dict[int, int] = {}
        for record in self:
            count = record.congestion_points(epsilon)
            histogram[count] = histogram.get(count, 0) + 1
        return histogram

    def time_span(self) -> Tuple[float, float]:
        """(earliest ingress, latest output) across all records."""
        if not self._records:
            return (0.0, 0.0)
        start = min(record.ingress_time for record in self)
        end = max(record.output_time for record in self)
        return (start, end)

    def total_bytes(self) -> float:
        """Sum of all packet sizes in the schedule."""
        return sum(record.size_bytes for record in self)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_jsonl(self, path: Union[str, "os.PathLike"], meta: Optional[dict] = None) -> None:
        """Write this schedule to ``path`` as (optionally gzipped) JSON-lines.

        Paths ending in ``.gz`` are gzip-compressed.  ``meta`` is stored in
        the header line and returned by :func:`load_schedule`; the pipeline
        uses it to carry the topology spec and cache-key provenance.
        """
        save_schedule(path, self, meta=meta)

    @classmethod
    def from_jsonl(cls, path: Union[str, "os.PathLike"]) -> "Schedule":
        """Load a schedule previously written by :meth:`to_jsonl`."""
        schedule, _ = load_schedule(path)
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Schedule packets={len(self)}>"


# ---------------------------------------------------------------------- #
# On-disk JSON-lines format
# ---------------------------------------------------------------------- #
def _open_for_write(path: str, compressed: bool) -> io.TextIOBase:
    if compressed:
        return gzip.open(path, "wt", encoding="utf-8", compresslevel=5)
    return open(path, "w", encoding="utf-8")


def _open_for_read(path: str) -> io.TextIOBase:
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _atomic_write_lines(path: str, lines: Iterable[str]) -> None:
    """Write text lines to ``path`` atomically (temp file + ``os.replace``)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with _open_for_write(tmp_path, compressed=path.endswith(".gz")) as stream:
            for line in lines:
                stream.write(line)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _schedule_lines(records: Sequence[PacketRecord], meta: Optional[dict]) -> Iterator[str]:
    header = {
        "format": SCHEDULE_FORMAT,
        "packets": len(records),
        "meta": meta or {},
    }
    yield json.dumps(header) + "\n"
    for record in records:
        yield json.dumps(record.to_dict()) + "\n"


def save_schedule(
    path: Union[str, "os.PathLike"],
    schedule: Schedule,
    meta: Optional[dict] = None,
) -> None:
    """Serialize ``schedule`` to ``path`` (gzipped when the name ends in ``.gz``).

    The write is atomic (temp file + ``os.replace``) so concurrent pipeline
    workers racing to populate the same cache entry cannot leave a truncated
    file behind.
    """
    path = os.fspath(path)
    _atomic_write_lines(path, _schedule_lines(schedule.records(), meta))


def shard_file_name(manifest_path: Union[str, "os.PathLike"], index: int) -> str:
    """Filename (no directory) of shard ``index`` of a sharded schedule.

    The manifest ``<key>.manifest.json`` owns shards
    ``<key>.shard-<i>.jsonl.gz`` in the same directory — the naming is a
    pure function of the manifest path, so callers never guess.
    """
    base = os.path.basename(os.fspath(manifest_path))
    if not base.endswith(MANIFEST_SUFFIX):
        raise ValueError(f"{manifest_path}: manifest paths must end in {MANIFEST_SUFFIX}")
    return f"{base[: -len(MANIFEST_SUFFIX)]}.shard-{index}.jsonl.gz"


def save_schedule_sharded(
    path: Union[str, "os.PathLike"],
    schedule: Schedule,
    meta: Optional[dict] = None,
    shard_packets: int = 100_000,
) -> List[str]:
    """Serialize ``schedule`` as ingress-time shards plus a manifest.

    ``path`` must end in :data:`MANIFEST_SUFFIX`; shards land next to it as
    ``<key>.shard-<i>.jsonl.gz``, each a self-contained ``repro-schedule/1``
    file covering ``shard_packets`` consecutive records of the canonical
    ``(ingress_time, packet_id)`` order (so shard boundaries are ingress-time
    chunks and concatenating shards in manifest order reproduces the
    canonical stream exactly).  Every shard is written — atomically — before
    the manifest is, so a crash can never leave a manifest naming a missing
    shard; a dangling shard without a manifest is invisible garbage.

    Returns the shard file names (no directory), in order.
    """
    path = os.fspath(path)
    if shard_packets < 1:
        raise ValueError(f"shard_packets must be >= 1, got {shard_packets}")
    records = schedule.records()
    directory = os.path.dirname(path) or "."
    shards: List[dict] = []
    for index, start in enumerate(range(0, len(records), shard_packets)):
        chunk = records[start : start + shard_packets]
        name = shard_file_name(path, index)
        _atomic_write_lines(
            os.path.join(directory, name),
            _schedule_lines(chunk, {"shard_index": index}),
        )
        shards.append(
            {
                "file": name,
                "packets": len(chunk),
                "ingress_min": chunk[0].ingress_time,
                "ingress_max": chunk[-1].ingress_time,
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "packets": len(records),
        "meta": meta or {},
        "shards": shards,
    }
    _atomic_write_lines(path, [json.dumps(manifest) + "\n"])
    return [shard["file"] for shard in shards]


def load_manifest(path: Union[str, "os.PathLike"]) -> dict:
    """Load and validate a shard manifest written by :func:`save_schedule_sharded`."""
    path = os.fspath(path)
    with _open_for_read(path) as stream:
        line = stream.readline()
    if not line.strip():
        raise ValueError(f"{path}: empty manifest file")
    manifest = json.loads(line)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: not a {MANIFEST_FORMAT} file (format={manifest.get('format')!r})"
        )
    shards = manifest["shards"]
    total = sum(shard["packets"] for shard in shards)
    if total != manifest["packets"]:
        raise ValueError(
            f"{path}: manifest promises {manifest['packets']} packets but its "
            f"shards sum to {total}"
        )
    return manifest


def _iter_single_file_records(path: str) -> Iterator[PacketRecord]:
    """Yield the records of one ``repro-schedule/1`` file, validating the count."""
    with _open_for_read(path) as stream:
        header_line = stream.readline()
        if not header_line:
            raise ValueError(f"{path}: empty schedule file")
        header = json.loads(header_line)
        if header.get("format") != SCHEDULE_FORMAT:
            raise ValueError(
                f"{path}: not a {SCHEDULE_FORMAT} file (format={header.get('format')!r})"
            )
        count = 0
        for line in stream:
            if line.strip():
                count += 1
                yield PacketRecord.from_dict(json.loads(line))
    if count != header.get("packets", count):
        raise ValueError(
            f"{path}: header promises {header.get('packets')} packets, "
            f"found {count} (truncated file?)"
        )


def stored_schedule_packets(path: Union[str, "os.PathLike"]) -> int:
    """Packet count of a stored schedule, read from its header/manifest only.

    Costs one line of I/O regardless of schedule size — how shard planners
    size their partitions without touching any record data.
    """
    path = os.fspath(path)
    if path.endswith(MANIFEST_SUFFIX):
        return load_manifest(path)["packets"]
    with _open_for_read(path) as stream:
        header_line = stream.readline()
    if not header_line:
        raise ValueError(f"{path}: empty schedule file")
    header = json.loads(header_line)
    if header.get("format") != SCHEDULE_FORMAT:
        raise ValueError(
            f"{path}: not a {SCHEDULE_FORMAT} file (format={header.get('format')!r})"
        )
    return int(header["packets"])


def iter_schedule_records(path: Union[str, "os.PathLike"]) -> Iterator[PacketRecord]:
    """Cursor through a stored schedule's records in canonical order.

    Works on both on-disk forms — a single ``repro-schedule/1`` file or a
    ``repro-schedule-manifest/1`` manifest (shards are visited in manifest
    order, which *is* canonical ``(ingress_time, packet_id)`` order) — and
    holds one record at a time, never the whole schedule.  This is the
    scale tier's read path: the streaming metrics and per-shard replay
    cursors consume it directly.

    Raises the same errors as :func:`load_schedule` on malformed input:
    ``ValueError`` for truncated or foreign files, ``OSError`` (e.g.
    ``FileNotFoundError``) for a shard the manifest names but the directory
    lacks.
    """
    path = os.fspath(path)
    if path.endswith(MANIFEST_SUFFIX):
        manifest = load_manifest(path)
        directory = os.path.dirname(path) or "."
        for shard in manifest["shards"]:
            shard_path = os.path.join(directory, shard["file"])
            count = 0
            for record in _iter_single_file_records(shard_path):
                count += 1
                yield record
            if count != shard["packets"]:
                raise ValueError(
                    f"{shard_path}: manifest promises {shard['packets']} packets, "
                    f"found {count} (truncated shard?)"
                )
    else:
        yield from _iter_single_file_records(path)


def load_schedule(path: Union[str, "os.PathLike"]) -> Tuple[Schedule, dict]:
    """Load a schedule written by :func:`save_schedule` or :func:`save_schedule_sharded`.

    Manifest paths (ending in :data:`MANIFEST_SUFFIX`) load every shard and
    return a schedule identical to the single-file form — shard layout is
    storage, not content.

    Returns:
        ``(schedule, meta)`` where ``meta`` is the free-form metadata stored
        in the file's header line (the manifest's, for sharded schedules).
    """
    # Decoding builds ~15 containers per packet, none of them cyclic, while
    # earlier schedules sit live in the caller's cache: pausing the cycle
    # collector spares it rescanning that growing set.  Refcounting still
    # frees everything.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _load_schedule(os.fspath(path))
    finally:
        if gc_was_enabled:
            gc.enable()


def _load_schedule(path: str) -> Tuple[Schedule, dict]:
    """:func:`load_schedule` proper; the caller holds the cycle collector paused."""
    if path.endswith(MANIFEST_SUFFIX):
        manifest = load_manifest(path)
        schedule = Schedule()
        for record in iter_schedule_records(path):
            schedule.add(record)
        if len(schedule) != manifest["packets"]:
            raise ValueError(
                f"{path}: manifest promises {manifest['packets']} packets, "
                f"found {len(schedule)} (truncated shards?)"
            )
        return schedule, manifest.get("meta", {})
    with _open_for_read(path) as stream:
        header_line = stream.readline()
        if not header_line:
            raise ValueError(f"{path}: empty schedule file")
        header = json.loads(header_line)
        if header.get("format") != SCHEDULE_FORMAT:
            raise ValueError(
                f"{path}: not a {SCHEDULE_FORMAT} file (format={header.get('format')!r})"
            )
        schedule = Schedule()
        for line in stream:
            if line.strip():
                schedule.add(PacketRecord.from_dict(json.loads(line)))
    if len(schedule) != header.get("packets", len(schedule)):
        raise ValueError(
            f"{path}: header promises {header.get('packets')} packets, "
            f"found {len(schedule)} (truncated file?)"
        )
    return schedule, header.get("meta", {})
