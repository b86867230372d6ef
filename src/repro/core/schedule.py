"""Schedules: the paper's central object.

A *schedule* is the set ``{(path(p), i(p), o(p))}`` produced by running some
collection of scheduling algorithms over a fixed input load (Section 2.1).
:class:`PacketRecord` captures one packet's entry, :class:`Schedule` the whole
set, along with the per-hop timing detail needed for omniscient replay and for
congestion-point analysis.  A schedule is *stored* as a table
(:class:`ScheduleColumns`, one list per field, in canonical order) that the
loader, the replay kernels and the metrics read and write directly; records
are read-only views built from it on request.

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
same schedule either way.  Both forms are read back by one decode loop with
two consumers: :func:`load_schedule` fills a whole :class:`ScheduleColumns`
from it, and :func:`iter_schedule_columns` hands its batches out one small
table at a time, so a scale-tier fold (the mergeable schedule statistics)
never holds a whole schedule in memory.  Neither builds a record object.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice, starmap
from operator import itemgetter, le, methodcaller
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.sim.packet import Packet
from repro.sim.tracer import Tracer
from repro.utils.stats import left_sum

#: Format tag written into the header line of serialized schedules.
SCHEDULE_FORMAT = "repro-schedule/1"

#: Format tag of the shard manifest for sharded schedules.
MANIFEST_FORMAT = "repro-schedule-manifest/1"

#: Filename suffix that marks a shard manifest.
MANIFEST_SUFFIX = ".manifest.json"


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cycle collector around a burst of acyclic allocations (decoded
    packets, views, heap tuples): they only make it rescan an ever-growing live
    set, and refcounting still frees them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: The stored-packet keys every file carries, in :class:`PacketRecord` field
#: order (``path``/``hops`` follow; the last two fields default to ``None``).
_REQUIRED = ("packet_id", "flow_id", "src", "dst", "size_bytes", "ingress_time", "output_time")
#: :class:`ScheduleColumns`' one-entry-per-packet and one-entry-per-hop fields.
_PER_PACKET = _REQUIRED + ("path", "flow_size_bytes", "deadline")
_PER_HOP = ("hop_node", "hop_arrival", "hop_start_service", "hop_departure")


@dataclass(slots=True)
class HopTiming:
    """Original-schedule timing of one packet at one node.

    A read-only snapshot by convention: a schedule never reads a view back.

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
        return Schedule.from_packets([packet]).records()[0]

    @property
    def network_delay(self) -> float:
        """End-to-end delay ``o(p) - i(p)`` in the original schedule."""
        return self.output_time - self.ingress_time

    @property
    def total_queueing_delay(self) -> float:
        """Sum of per-hop queueing delays in the original schedule."""
        return left_sum(hop.queueing_delay for hop in self.hops)

    def congestion_points(self, epsilon: float = 1e-12) -> int:
        """Number of nodes at which the packet waited more than ``epsilon``.

        This is the paper's notion of a congestion point: "a node where a
        packet is forced to wait during a given schedule".
        """
        return sum(1 for hop in self.hops if hop.queueing_delay > epsilon)

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
        """Inverse of :meth:`to_dict` (positional, in field order)."""
        try:
            hops = list(starmap(HopTiming, data["hops"]))
        except TypeError:
            raise ValueError(
                f"packet {data.get('packet_id')}: every hop must be "
                "[node, arrival, start_service, departure]"
            ) from None
        return cls(
            *map(data.__getitem__, _REQUIRED),
            list(data["path"]),
            hops,
            data.get("flow_size_bytes"),
            data.get("deadline"),
        )


@dataclass(slots=True)
class ScheduleColumns:
    """A schedule as a table: one list per field, read-only to consumers.

    The first ten columns hold one entry per packet and mirror
    :class:`PacketRecord` (``path`` as a tuple, so routes hash); packet ``j``
    owns hops ``hop_offset[j]:hop_offset[j + 1]`` of the four per-hop
    columns, which mirror :class:`HopTiming`.  Entries are the very objects
    a record or file carried in, so the table is as lossless as the objects.
    Only :meth:`extend` and :meth:`rows` convert between the table and the
    record shape (``PacketRecord.to_dict``) that objects, JSON lines and
    packets all go through.
    """

    packet_id: List[int] = field(default_factory=list)
    flow_id: List[int] = field(default_factory=list)
    src: List[str] = field(default_factory=list)
    dst: List[str] = field(default_factory=list)
    size_bytes: List[float] = field(default_factory=list)
    ingress_time: List[float] = field(default_factory=list)
    output_time: List[float] = field(default_factory=list)
    path: List[Tuple[str, ...]] = field(default_factory=list)
    flow_size_bytes: List[Optional[float]] = field(default_factory=list)
    deadline: List[Optional[float]] = field(default_factory=list)
    hop_offset: List[int] = field(default_factory=lambda: [0])
    hop_node: List[str] = field(default_factory=list)
    hop_arrival: List[float] = field(default_factory=list)
    hop_start_service: List[Optional[float]] = field(default_factory=list)
    hop_departure: List[Optional[float]] = field(default_factory=list)

    def extend(self, packets: Sequence[dict]) -> None:
        """Append packets given in ``PacketRecord.to_dict`` shape, column-wise."""
        for name in _REQUIRED:
            getattr(self, name).extend(map(itemgetter(name), packets))
        paths = list(map(tuple, map(itemgetter("path"), packets)))
        routes = dict(zip(paths, paths))  # one tuple per distinct route, not per packet
        self.path.extend(map(routes.__getitem__, paths))
        self.flow_size_bytes.extend(map(methodcaller("get", "flow_size_bytes"), packets))
        self.deadline.extend(map(methodcaller("get", "deadline"), packets))
        hop_lists = list(map(itemgetter("hops"), packets))
        try:
            hops = list(chain.from_iterable(hop_lists))
            well_formed = set(map(len, hops)) <= {4}
        except TypeError:
            well_formed = False
        if not well_formed:
            for packet in packets:
                PacketRecord.from_dict(packet)  # raises the ValueError naming the packet
            raise ValueError("every hop must be [node, arrival, start_service, departure]")
        counts = accumulate(map(len, hop_lists), initial=self.hop_offset[-1])
        self.hop_offset.extend(islice(counts, 1, None))
        self.hop_node.extend(map(itemgetter(0), hops))
        self.hop_arrival.extend(map(itemgetter(1), hops))
        self.hop_start_service.extend(map(itemgetter(2), hops))
        self.hop_departure.extend(map(itemgetter(3), hops))

    def rows(self, positions: Iterable[int]) -> Iterator[dict]:
        """The packets at ``positions`` in ``PacketRecord.to_dict`` shape."""
        off = self.hop_offset
        timings = [getattr(self, name) for name in _PER_HOP]
        for j in positions:
            hops = slice(off[j], off[j + 1])
            yield {
                "packet_id": self.packet_id[j],
                "flow_id": self.flow_id[j],
                "src": self.src[j],
                "dst": self.dst[j],
                "size_bytes": self.size_bytes[j],
                "ingress_time": self.ingress_time[j],
                "output_time": self.output_time[j],
                "path": self.path[j],
                "hops": list(zip(*(column[hops] for column in timings))),
                "flow_size_bytes": self.flow_size_bytes[j],
                "deadline": self.deadline[j],
            }

    def take(self, positions: Iterable[int]) -> "ScheduleColumns":
        """New columns holding the packets at ``positions``, in that order."""
        positions = list(positions)
        off = self.hop_offset
        spans = [slice(off[j], off[j + 1]) for j in positions]
        taken = ScheduleColumns()
        for name in _PER_PACKET:
            setattr(taken, name, list(map(getattr(self, name).__getitem__, positions)))
        taken.hop_offset = list(accumulate((off[j + 1] - off[j] for j in positions), initial=0))
        for name in _PER_HOP:
            column = getattr(self, name)
            setattr(taken, name, list(chain.from_iterable(map(column.__getitem__, spans))))
        return taken


class Schedule:
    """A set of packet records indexed by packet id, stored as columns.

    :class:`ScheduleColumns` is the only storage.  :class:`PacketRecord` /
    :class:`HopTiming` objects are read-only *views*: snapshots built from
    the columns on each request, never kept or written back.  Storage order
    is the canonical ``(ingress_time, packet_id)`` order whatever order
    records were added in, so every walk and float fold over a fresh
    recording and over its cache-loaded twin agrees to the bit.
    """

    def __init__(self, records: Optional[Iterable[PacketRecord]] = None) -> None:
        #: ``(key, arrays)`` a replay backend derived from the columns for
        #: its next replay of this schedule; dropped by ``add``.
        self.derived: Optional[tuple] = None
        self._adopt(ScheduleColumns())
        for record in records or ():
            self.add(record)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _adopt(self, cols: ScheduleColumns) -> "Schedule":
        """Make ``cols`` (any packet order, unique ids) this schedule's storage."""
        ids = cols.packet_id
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            duplicate = next(i for i, count in Counter(ids).items() if count > 1)
            raise ValueError(f"duplicate packet id {duplicate} in schedule")
        self._cols = cols
        #: packet id -> row of ``_cols``.
        self._index: Dict[int, int] = index
        #: Whether ``_cols`` is known to be in canonical order (:meth:`columns`).
        self._sorted = False
        #: Whether a replay result shares these lists: ``add`` copies first.
        self._shared = False
        return self

    @classmethod
    def from_columns(cls, cols: ScheduleColumns) -> "Schedule":
        """A schedule stored in ``cols`` (adopted, not copied; any packet order)."""
        return cls()._adopt(cols)

    def add(self, record: PacketRecord) -> None:
        """Insert a record (packet ids must be unique)."""
        if record.packet_id in self._index:
            raise ValueError(f"duplicate packet id {record.packet_id} in schedule")
        if self._shared:
            self._adopt(self._cols.take(range(len(self))))
        self._index[record.packet_id] = len(self)
        self._cols.extend([record.to_dict()])
        self._sorted = False
        self.derived = None

    def with_timings(self, **timings: list) -> "Schedule":
        """This schedule's packets under new timing columns — a replay's result.

        ``timings`` are :class:`ScheduleColumns` fields aligned with
        :meth:`columns` (a flat kernel's output arrays): wrapped, not copied,
        beside identity columns shared with ``self`` by reference.  Packets
        whose ``output_time`` is ``None`` never exited and are left out.
        """
        cols = replace(self.columns(), **timings)
        if None in cols.output_time:
            exited = [j for j, t in enumerate(cols.output_time) if t is not None]
            return Schedule.from_columns(cols.take(exited))
        replayed = Schedule()
        replayed._cols, replayed._index = cols, self._index
        replayed._sorted = replayed._shared = self._shared = True
        return replayed

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "Schedule":
        """Build a schedule from delivered packets.

        A replay's packets carry their recorded ids, so a replayed schedule
        lines up with the original it replayed.

        Args:
            packets: Delivered packets (must have egress times).
        """
        rows = []
        for packet in packets:
            if packet.egress_time is None:
                raise ValueError(
                    f"packet {packet.packet_id} has not exited the network; only "
                    "delivered packets can enter a schedule"
                )
            path = [hop.node for hop in packet.hops]
            if not path or path[-1] != packet.dst:
                path.append(packet.dst)
            rows.append(
                {
                    "packet_id": packet.packet_id,
                    "flow_id": packet.flow_id,
                    "src": packet.src,
                    "dst": packet.dst,
                    "size_bytes": packet.size_bytes,
                    "ingress_time": 0.0 if packet.ingress_time is None else packet.ingress_time,
                    "output_time": packet.egress_time,
                    "path": path,
                    "hops": [
                        (h.node, h.arrival_time, h.start_service_time, h.departure_time)
                        for h in packet.hops
                    ],
                    "flow_size_bytes": packet.header.flow_size_bytes,
                    "deadline": packet.flow_deadline,
                }
            )
        # Delivery order in, canonical order stored: nothing re-sorts later.
        rows.sort(key=itemgetter("ingress_time", "packet_id"))
        cols = ScheduleColumns()
        cols.extend(rows)
        return cls.from_columns(cols)

    @classmethod
    def from_tracer(cls, tracer: Tracer, data_only: bool = True) -> "Schedule":
        """Build a schedule from a finished simulation's tracer."""
        packets = tracer.delivered_data_packets() if data_only else tracer.delivered
        return cls.from_packets(packets)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def columns(self) -> ScheduleColumns:
        """The storage itself, in canonical order.  Treat as read-only."""
        if not self._sorted:  # adopted or added to since the order was last checked
            keys = list(zip(self._cols.ingress_time, self._cols.packet_id))
            if not all(map(le, keys, islice(keys, 1, None))):
                self._adopt(self._cols.take(sorted(range(len(keys)), key=keys.__getitem__)))
            self._sorted = True
        return self._cols

    def rows_of(self, packet_ids: Iterable[int]) -> List[Optional[int]]:
        """Row in :meth:`columns` of each packet id (``None`` where absent)."""
        self.columns()
        return list(map(self._index.get, packet_ids))

    def queueing_delays(self) -> List[float]:
        """Each packet's :attr:`PacketRecord.total_queueing_delay`, by row:
        the same left fold over the same per-hop floats, read off the columns."""
        cols = self.columns()
        waits = [  # HopTiming.queueing_delay: never served means never waited
            0.0 if start is None else start - arrival
            for start, arrival in zip(cols.hop_start_service, cols.hop_arrival)
        ]
        off = cols.hop_offset
        return [left_sum(waits[first:last]) for first, last in zip(off, islice(off, 1, None))]

    def _view(self, row: int) -> PacketRecord:
        (data,) = self._cols.rows((row,))
        return PacketRecord.from_dict(data)

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records())

    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self._index

    def record(self, packet_id: int) -> PacketRecord:
        """The record for ``packet_id`` (raises ``KeyError`` if absent)."""
        return self._view(self._index[packet_id])

    def get(self, packet_id: int) -> Optional[PacketRecord]:
        """The record for ``packet_id``, or ``None``."""
        row = self._index.get(packet_id)
        return None if row is None else self._view(row)

    def records(self) -> List[PacketRecord]:
        """All records in canonical order: by ingress time, then packet id,
        hops in hop-index order — the storage order, and the walk order of
        the first-divergence comparator (:mod:`repro.diff`), of replay
        injection and of the on-disk format."""
        rows = self.columns().rows(range(len(self)))
        with paused_gc():
            return list(map(PacketRecord.from_dict, rows))

    def packet_ids(self) -> List[int]:
        """All packet ids present in the schedule."""
        return list(self.columns().packet_id)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def max_congestion_points(self, epsilon: float = 1e-12) -> int:
        """Largest per-packet congestion-point count in the schedule."""
        return max((r.congestion_points(epsilon) for r in self), default=0)

    def congestion_point_histogram(self, epsilon: float = 1e-12) -> Dict[int, int]:
        """Histogram mapping congestion-point count to number of packets."""
        return dict(Counter(record.congestion_points(epsilon) for record in self))

    def time_span(self) -> Tuple[float, float]:
        """(earliest ingress, latest output) across all records."""
        if not self._index:
            return (0.0, 0.0)
        return (min(self._cols.ingress_time), max(self._cols.output_time))

    def total_bytes(self) -> float:
        """Sum of all packet sizes in the schedule."""
        return sum(self.columns().size_bytes)

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


def _schedule_lines(cols: ScheduleColumns, rows: range, meta: Optional[dict]) -> Iterator[str]:
    """The ``repro-schedule/1`` lines of packets ``rows`` of ``cols``."""
    header = {"format": SCHEDULE_FORMAT, "packets": len(rows), "meta": meta or {}}
    yield json.dumps(header) + "\n"
    for packet in cols.rows(rows):
        yield json.dumps(packet) + "\n"


def save_schedule(
    path: Union[str, "os.PathLike"],
    schedule: Schedule,
    meta: Optional[dict] = None,
) -> None:
    """Serialize ``schedule`` to ``path`` (gzipped when the name ends in ``.gz``).

    ``meta`` is stored in the header line and returned by
    :func:`load_schedule`; the pipeline uses it to carry the topology spec and
    cache-key provenance.  The write is atomic (temp file + ``os.replace``) so
    concurrent pipeline workers racing to populate the same cache entry cannot
    leave a truncated file behind.
    """
    path = os.fspath(path)
    _atomic_write_lines(path, _schedule_lines(schedule.columns(), range(len(schedule)), meta))


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
    cols = schedule.columns()
    directory = os.path.dirname(path) or "."
    shards: List[dict] = []
    for index, start in enumerate(range(0, len(schedule), shard_packets)):
        rows = range(start, min(start + shard_packets, len(schedule)))
        name = shard_file_name(path, index)
        _atomic_write_lines(
            os.path.join(directory, name),
            _schedule_lines(cols, rows, {"shard_index": index}),
        )
        shards.append(
            {
                "file": name,
                "packets": len(rows),
                "ingress_min": cols.ingress_time[rows[0]],
                "ingress_max": cols.ingress_time[rows[-1]],
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "packets": len(schedule),
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


def _read_header(stream: io.TextIOBase, path: str) -> dict:
    """Read and validate the header line of a ``repro-schedule/1`` stream."""
    header_line = stream.readline()
    if not header_line:
        raise ValueError(f"{path}: empty schedule file")
    header = json.loads(header_line)
    if header.get("format") != SCHEDULE_FORMAT:
        raise ValueError(
            f"{path}: not a {SCHEDULE_FORMAT} file (format={header.get('format')!r})"
        )
    return header


def _check_counts(path: str, header: dict, promised: Optional[int], count: int) -> None:
    """``count`` packets were read from ``path``: its header and manifest must agree."""
    if count != header.get("packets", count):
        raise ValueError(
            f"{path}: header promises {header.get('packets')} packets, "
            f"found {count} (truncated file?)"
        )
    if promised is not None and count != promised:
        raise ValueError(
            f"{path}: manifest promises {promised} packets, "
            f"found {count} (truncated shard?)"
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
        return int(_read_header(stream, path)["packets"])


def _stored_files(path: str) -> Tuple[List[Tuple[str, Optional[int]]], Optional[dict]]:
    """``([(file, packets the manifest promises)], manifest)`` of a stored schedule;
    a single ``repro-schedule/1`` file is its own only part: ``([(path, None)], None)``."""
    if not path.endswith(MANIFEST_SUFFIX):
        return [(path, None)], None
    manifest = load_manifest(path)
    directory = os.path.dirname(path) or "."
    shards = manifest["shards"]
    return [(os.path.join(directory, s["file"]), s["packets"]) for s in shards], manifest


#: Stored packets decoded per batch: bounds the transient JSON objects a
#: read holds beside the columns it is filling.
_DECODE_BATCH = 512


def _decoded_parts(
    files: List[Tuple[str, Optional[int]]],
) -> Iterator[Tuple[List[dict], Optional[tuple]]]:
    """The one decode loop: every part of :func:`_stored_files`, in order.

    Yields ``(packets, None)`` per batch of stored packets (in
    ``PacketRecord.to_dict`` shape) and ``([], part)`` at each file's end,
    ``part`` being the :func:`_check_counts` arguments for that file.  A
    consumer must drop ``packets`` before advancing, or it keeps one batch's
    JSON objects alive while the next batch is parsed.
    """
    for file_path, promised in files:
        count = 0
        with _open_for_read(file_path) as stream:
            header = _read_header(stream, file_path)
            lines = filter(str.strip, stream)
            # One decoder call per batch, not per line: a batch's lines
            # are parsed as the elements of a single JSON array.
            while batch := list(islice(lines, _DECODE_BATCH)):
                count += len(batch)
                yield json.loads(f"[{','.join(batch)}]"), None
        yield [], (file_path, header, promised, count)


def iter_schedule_columns(path: Union[str, "os.PathLike"]) -> Iterator[ScheduleColumns]:
    """Cursor through a stored schedule in canonical order, a small table at a time.

    Works on both on-disk forms — a single ``repro-schedule/1`` file or a
    ``repro-schedule-manifest/1`` manifest (shards are visited in manifest
    order, which *is* canonical ``(ingress_time, packet_id)`` order) — and
    yields a fresh :class:`ScheduleColumns` per decoded batch, never the
    whole schedule: concatenated, the batches are
    ``load_schedule(path)[0].columns()``.  This is the scale tier's read
    path; the sharded schedule statistics fold it batch by batch.

    Raises the same errors as :func:`load_schedule` on malformed input (a
    file's counts are checked when its last batch has been consumed):
    ``ValueError`` for truncated or foreign files, ``OSError`` (e.g.
    ``FileNotFoundError``) for a shard the manifest names but the directory
    lacks.  Unlike :func:`load_schedule` it never pauses the collector — a
    generator would leave it paused in its caller's code between batches.
    """
    for packets, part in _decoded_parts(_stored_files(os.fspath(path))[0]):
        if part is not None:
            _check_counts(*part)
            continue
        cols = ScheduleColumns()
        cols.extend(packets)
        del packets
        yield cols


def load_schedule(path: Union[str, "os.PathLike"]) -> Tuple[Schedule, dict]:
    """Load a schedule written by :func:`save_schedule` or :func:`save_schedule_sharded`.

    Manifest paths (ending in :data:`MANIFEST_SUFFIX`) load every shard and
    return a schedule identical to the single-file form — shard layout is
    storage, not content.  Lines decode straight into the schedule's
    columns; no :class:`PacketRecord` is built.

    Returns:
        ``(schedule, meta)`` where ``meta`` is the free-form metadata stored
        in the file's header line (the manifest's, for sharded schedules).
    """
    path = os.fspath(path)
    # Decoding builds ~15 acyclic containers per packet while earlier
    # schedules sit live in the caller's cache.
    with paused_gc():
        cols = ScheduleColumns()
        files, manifest = _stored_files(path)
        parts = []
        for packets, part in _decoded_parts(files):
            if part is not None:
                parts.append(part)
                continue
            cols.extend(packets)
            del packets
        # Adopting the columns rejects duplicate ids, which outranks a count mismatch.
        schedule = Schedule.from_columns(cols)
        for part in parts:
            _check_counts(*part)
        header = parts[-1][1] if manifest is None else manifest
        return schedule, header.get("meta", {})
