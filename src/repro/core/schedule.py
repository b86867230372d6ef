"""Schedules: the paper's central object.

A *schedule* is the set ``{(path(p), i(p), o(p))}`` produced by running some
collection of scheduling algorithms over a fixed input load (Section 2.1),
with the per-hop timing that omniscient replay and congestion-point analysis
need.  A :class:`Schedule` is its columns (:class:`ScheduleColumns`, one list
per field, in canonical order), which the loader, the replay kernels and the
metrics read and write directly.  The one per-packet shape is the *row*, a
dict in the ``repro-schedule/1`` line shape that :class:`ScheduleColumns`
states.  A file stores rows, iterating a schedule yields them and
:meth:`Schedule.from_rows` takes them.

Schedules come from three places:

* recorded from a simulation run (:meth:`Schedule.from_tracer`),
* built by hand from rows (the theory counterexamples build small viable
  schedules directly, exactly as the paper's appendix figures do), or
* loaded from disk (:func:`load_schedule`) — the pipeline's "record once,
  replay many" workflow persists recorded schedules as gzipped JSON-lines
  so replays (possibly in other processes) never re-record.

The on-disk format (``repro-schedule/1``) is one JSON object per line: a
header carrying free-form metadata (the pipeline stores the topology spec and
the cache key there) followed by one row per packet.  The round-trip is
lossless: floats are serialized with full ``repr`` precision, so a loaded
schedule replays bit-identically to the in-memory original.

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
never holds a whole schedule in memory.  Anything malformed in a stored
schedule — a row, a header, a manifest — raises ``ValueError``.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import logging
import os
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import accumulate, chain, islice, zip_longest
from operator import attrgetter, itemgetter, le, methodcaller
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.sim.compiled import kernel_codecs
from repro.sim.packet import Packet
from repro.sim.tracer import Tracer
from repro.utils.stats import left_sum

logger = logging.getLogger(__name__)

#: Format tag written into the header line of serialized schedules.
SCHEDULE_FORMAT = "repro-schedule/1"

#: Format tag of the shard manifest for sharded schedules.
MANIFEST_FORMAT = "repro-schedule-manifest/1"

#: Filename suffix that marks a shard manifest.
MANIFEST_SUFFIX = ".manifest.json"


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cycle collector around a burst of acyclic allocations (decoded
    packets, rows, heap tuples): they only make it rescan an ever-growing live
    set, and refcounting still frees them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: What reading a malformed row into columns raises.
_MALFORMED = (TypeError, KeyError, ValueError)


def _column(scope: str, kind: Optional[tuple] = None, optional: bool = False) -> list:
    """A :class:`ScheduleColumns` field: its ``scope``, the types its entries
    must hold (never a ``bool``) and whether a row may omit its key."""
    return field(default_factory=list, metadata={"scope": scope, "kind": kind, "optional": optional})


@dataclass(slots=True)
class ScheduleColumns:
    """A schedule as a table: one list per field, read-only to consumers.

    The field list is the one statement of the schedule's columns; rows and
    both codecs follow it.  A ``packet`` column holds one entry per packet
    under its row key (``path`` as a tuple, so routes hash); packet ``j``
    owns entries ``hop_offset[j]:hop_offset[j + 1]`` of the ``hop`` columns,
    its row's ``hops`` field by field.  A row's keys come in field order,
    ``hops`` after the required ones.  Entries are the very objects a row or
    file carried in, so the table is as lossless as the rows.
    """

    packet_id: List[int] = _column("packet", kind=(int,))
    flow_id: List[int] = _column("packet")
    src: List[str] = _column("packet")
    dst: List[str] = _column("packet")
    size_bytes: List[float] = _column("packet")
    ingress_time: List[float] = _column("packet", kind=(int, float))
    output_time: List[float] = _column("packet", kind=(int, float))
    path: List[Tuple[str, ...]] = _column("packet")
    flow_size_bytes: List[Optional[float]] = _column("packet", optional=True)
    deadline: List[Optional[float]] = _column("packet", optional=True)
    hop_offset: List[int] = field(default_factory=lambda: [0], metadata={"scope": "link"})
    hop_node: List[str] = _column("hop")
    hop_arrival: List[float] = _column("hop")
    hop_start_service: List[Optional[float]] = _column("hop")
    hop_departure: List[Optional[float]] = _column("hop")

    def lists(self) -> tuple:
        """Every column, in field order: what the native encoder reads and
        the native decoder appends to."""
        return _LISTS(self)

    def extend(self, rows: Sequence[dict]) -> None:
        """Append ``rows`` column-wise.

        Raises:
            ValueError: naming the packet of the first malformed row (a
                missing key, a ``path`` or ``hops`` of the wrong shape, a
                non-integer id, a non-numeric time, a ``bool`` in either);
                nothing is appended.
        """
        try:
            columns = _columns(rows, self.hop_offset[-1])
        except _MALFORMED:
            for row in rows:
                try:
                    _columns([row], 0)
                except _MALFORMED as error:
                    packet = row.get("packet_id") if isinstance(row, dict) else None
                    raise ValueError(
                        f"packet {packet!r}: malformed row ({type(error).__name__}: {error})"
                    ) from None
            raise
        for name, values in columns.items():
            getattr(self, name).extend(values)

    def rows(self, positions: Iterable[int]) -> Iterator[dict]:
        """The packets at ``positions`` as rows."""
        off = self.hop_offset
        required = [(name, getattr(self, name)) for name in _MANDATORY]
        optional = [(name, getattr(self, name)) for name in _OPTIONAL]
        timings = [getattr(self, name) for name in _HOPS]
        for j in positions:
            hops = slice(off[j], off[j + 1])
            row = {key: column[j] for key, column in required}
            row["hops"] = list(zip(*(column[hops] for column in timings)))
            for key, column in optional:
                row[key] = column[j]
            yield row

    def take(self, positions: Iterable[int]) -> "ScheduleColumns":
        """New columns holding the packets at ``positions``, in that order."""
        positions = list(positions)
        off = self.hop_offset
        spans = [slice(off[j], off[j + 1]) for j in positions]
        taken = ScheduleColumns()
        for name in _PACKET:
            setattr(taken, name, list(map(getattr(self, name).__getitem__, positions)))
        taken.hop_offset = list(accumulate((off[j + 1] - off[j] for j in positions), initial=0))
        for name in _HOPS:
            column = getattr(self, name)
            setattr(taken, name, list(chain.from_iterable(map(column.__getitem__, spans))))
        return taken


#: Each column's metadata, by name, in field order.
_SCHEMA = {f.name: f.metadata for f in fields(ScheduleColumns)}
_PACKET = [name for name, meta in _SCHEMA.items() if meta["scope"] == "packet"]
_MANDATORY = [name for name in _PACKET if not _SCHEMA[name]["optional"]]
_OPTIONAL = [name for name in _PACKET if _SCHEMA[name]["optional"]]
_HOPS = [name for name, meta in _SCHEMA.items() if meta["scope"] == "hop"]
_LISTS = attrgetter(*_SCHEMA)


def _columns(rows: Sequence[dict], first_hop: int) -> Dict[str, list]:
    """``rows`` field by field, keyed like :class:`ScheduleColumns` (hop offsets
    counted on from ``first_hop``); a malformed row raises one of :data:`_MALFORMED`."""
    columns = {name: list(map(itemgetter(name), rows)) for name in _MANDATORY}
    columns.update((name, list(map(methodcaller("get", name), rows))) for name in _OPTIONAL)
    for name in _PACKET:
        kind, values = _SCHEMA[name]["kind"], columns[name]
        if kind and not all(issubclass(t, kind) and t is not bool for t in set(map(type, values))):
            raise TypeError(f"{name} has the wrong type")
    paths = list(map(tuple, columns["path"]))
    routes = dict(zip(paths, paths))  # one tuple per distinct route, not per packet
    columns["path"] = list(map(routes.__getitem__, paths))
    hop_lists = list(map(itemgetter("hops"), rows))
    hops = list(chain.from_iterable(hop_lists))
    if not set(map(len, hops)) <= {len(_HOPS)}:
        raise ValueError(f"every hop must be [{', '.join(name[len('hop_'):] for name in _HOPS)}]")
    columns["hop_offset"] = list(islice(accumulate(map(len, hop_lists), initial=first_hop), 1, None))
    for index, name in enumerate(_HOPS):
        columns[name] = list(map(itemgetter(index), hops))
    return columns


class Schedule:
    """A set of packets indexed by packet id, stored as columns.

    :class:`ScheduleColumns` is the only storage; rows are built from it on
    request and never read back.  Storage order is the canonical
    ``(ingress_time, packet_id)`` order whatever order rows came in, so
    every walk and float fold over a fresh recording and over its
    cache-loaded twin agrees to the bit.  ``Schedule()`` is the empty
    schedule.
    """

    def __init__(self) -> None:
        #: ``(key, arrays)`` a replay backend derived from the columns for
        #: its next replay of this schedule.
        self.derived: Optional[tuple] = None
        #: ``(shard_packets, gzip header, bodies)`` the first sharded save of
        #: this schedule kept for the next (:func:`save_schedule_sharded`).
        self.shard_bodies: Optional[tuple] = None
        self._adopt(ScheduleColumns())

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
        return self

    @classmethod
    def from_columns(cls, cols: ScheduleColumns) -> "Schedule":
        """A schedule stored in ``cols`` (adopted, not copied; any packet order)."""
        return cls()._adopt(cols)

    @classmethod
    def from_rows(cls, rows: Iterable[dict]) -> "Schedule":
        """A schedule of ``rows``, given in any order.

        Raises:
            ValueError: a malformed row or a duplicate packet id, naming the packet.
        """
        cols = ScheduleColumns()
        cols.extend(list(rows))
        return cls.from_columns(cols)

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
        replayed._cols, replayed._index, replayed._sorted = cols, self._index, True
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
        return cls.from_rows(rows)

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
        if not self._sorted:  # adopted since the order was last checked
            keys = list(zip(self._cols.ingress_time, self._cols.packet_id))
            if not all(map(le, keys, islice(keys, 1, None))):
                self._adopt(self._cols.take(sorted(range(len(keys)), key=keys.__getitem__)))
            self._sorted = True
        return self._cols

    def rows_of(self, packet_ids: Iterable[int]) -> List[Optional[int]]:
        """Row in :meth:`columns` of each packet id (``None`` where absent)."""
        self.columns()
        return list(map(self._index.get, packet_ids))

    def _waits(self) -> List[float]:
        """Each hop's queueing delay, by hop row: never served means never waited."""
        cols = self.columns()
        return [
            0.0 if start is None else start - arrival
            for start, arrival in zip(cols.hop_start_service, cols.hop_arrival)
        ]

    def _per_packet(self, hop_values: list) -> Iterator[list]:
        """``hop_values`` (one per hop row) cut into each packet's slice, by row."""
        off = self.columns().hop_offset
        return map(hop_values.__getitem__, map(slice, off, islice(off, 1, None)))

    def queueing_delays(self) -> List[float]:
        """Each packet's total queueing delay, by row: a left fold of its hops' waits."""
        return list(map(left_sum, self._per_packet(self._waits())))

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[dict]:
        """Every packet's row, in canonical order: by ingress time, then packet
        id, hops in hop-index order — the storage order, and the walk order of
        the first-divergence comparator (:mod:`repro.diff`), of replay
        injection and of the on-disk format."""
        return self.columns().rows(range(len(self)))

    __contains__ = None  # so ``in`` raises TypeError instead of walking the rows; use :meth:`rows_of`

    def row(self, packet_id: int) -> dict:
        """The row of ``packet_id`` (raises ``KeyError`` if absent)."""
        (data,) = self._cols.rows((self._index[packet_id],))
        return data

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def max_congestion_points(self, epsilon: float = 1e-12) -> int:
        """Most congestion points any one packet crossed.

        A congestion point is "a node where a packet is forced to wait during
        a given schedule": a hop whose wait exceeds ``epsilon``.
        """
        waited = [wait > epsilon for wait in self._waits()]
        return max(map(sum, self._per_packet(waited)), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Schedule packets={len(self)}>"


# ---------------------------------------------------------------------- #
# On-disk JSON-lines format
# ---------------------------------------------------------------------- #
def _open_for_decode(path: str) -> io.BufferedIOBase:
    """``path`` as bytes (decompressed when the name ends in ``.gz``)."""
    return gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")


def _gzip(path: str, blocks: Iterable[bytes], raw: BinaryIO) -> None:
    """Write ``blocks`` gzipped to ``raw``: under a header that names ``path``
    itself and holds no mtime (equal content, equal files), and with the one
    ``Z_SYNC_FLUSH`` a text-mode gzip writer issues on close (its bytes)."""
    with gzip.GzipFile(path, "wb", compresslevel=5, fileobj=raw, mtime=0) as stream:
        stream.writelines(blocks)
        stream.flush()


def _atomic_write(path: str, blocks: Iterable[bytes], compress: bool = True) -> None:
    """Write ``blocks`` to ``path`` atomically (temp file + ``os.replace``),
    :func:`_gzip`-ped when the name ends in ``.gz`` and ``compress`` is set."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as raw:
            if compress and path.endswith(".gz"):
                _gzip(path, blocks, raw)
            else:
                raw.writelines(blocks)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def native_codecs() -> Optional[Tuple[Callable, Callable]]:
    """``(decode_rows, encode_rows)``, which every load and save tries before
    ``json``; ``None`` without a kernel or when they disagree with
    :class:`ScheduleColumns` (:func:`_agreed`)."""
    codecs = kernel_codecs()
    return codecs if codecs is not None and _agreed(*codecs) else None


@lru_cache(maxsize=1)
def _agreed(decode: Callable, encode: Callable) -> bool:
    """Whether the native codecs treat one row as ``json`` does: its bytes,
    then the columns decoded from them.  The row holds a distinct value in
    every column: its index where a kind is set, its name elsewhere (in a
    tuple in ``path``).  If not, one WARNING names the first key that differs."""
    cols, decoded = ScheduleColumns(), ScheduleColumns()
    for index, (name, meta) in enumerate(_SCHEMA.items()):
        kind = meta.get("kind")
        value = kind[-1](index) if kind else (name,) if name == "path" else name
        getattr(cols, name).append(1 if name == "hop_offset" else value)  # one hop
    reference = "".join(json.dumps(row) + "\n" for row in cols.rows([0])).encode()
    expected = [*json.loads(reference).items(), *zip(_SCHEMA, _json_columns(reference)[0].lists())]
    try:
        native = encode(cols.lists(), 0, 1)
        decode(reference, {}, 0, decoded.lists())  # a declined row leaves its columns unequal
        if not isinstance(native, bytes):
            raise ValueError(native)  # the encoder declined
        found = [*json.loads(native).items(), *zip(_SCHEMA, decoded.lists())]
    except (TypeError, ValueError) as error:  # a decline, another column count, bytes json rejects
        found = [(str(error), None)]
    differs = next(((got or want)[0] for want, got in zip_longest(expected, found) if want != got), None)
    if differs is not None:
        logger.warning(
            "native schedule codecs disagree with ScheduleColumns at %r; loads and saves use json", differs
        )
    return differs is None


def _schedule_blocks(
    path: str, cols: ScheduleColumns, rows: range, meta: Optional[dict]
) -> Iterator[bytes]:
    """The ``repro-schedule/1`` text of packets ``rows`` of ``cols``, in blocks
    of about :data:`_DECODE_BYTES`: from the compiled encoder
    (:func:`native_codecs`) first, and from ``json``,
    the reference and the same bytes, where it is unavailable or declines a
    block (one DEBUG line per declined block, naming ``path`` and the packet)."""
    header = {"format": SCHEDULE_FORMAT, "packets": len(rows), "meta": meta or {}}
    yield (json.dumps(header) + "\n").encode()
    codecs = native_codecs()
    encode = codecs and codecs[1]
    columns = cols.lists()
    start, step = rows.start, 256
    while start < rows.stop:
        stop = min(start + step, rows.stop)
        block = encode(columns, start, stop) if encode else None
        if not isinstance(block, bytes):
            if block is not None:
                logger.debug("%s: encoding with json (declined at %s)", path, block)
            block = "".join(json.dumps(row) + "\n" for row in cols.rows(range(start, stop))).encode()
        yield block
        step = max(1, _DECODE_BYTES * (stop - start) // len(block))
        start = stop


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
    _atomic_write(path, _schedule_blocks(path, schedule.columns(), range(len(schedule)), meta))


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
    file covering ``shard_packets`` consecutive packets of the canonical
    ``(ingress_time, packet_id)`` order (so shard boundaries are ingress-time
    chunks and concatenating shards in manifest order reproduces the
    canonical stream exactly).  Every shard is written — atomically — before
    the manifest is, so a crash can never leave a manifest naming a missing
    shard; a dangling shard without a manifest is invisible garbage.

    A shard file is a gzip header, whose name field is all that depends on
    ``path``, and a body built from the shard's rows alone.  The first
    sharded save of ``schedule`` keeps the bodies on it
    (``schedule.shard_bodies``); a later one at the same ``shard_packets``
    writes them under its own names, the same bytes without encoding or
    compressing again.  The manifest, which holds ``meta``, is always new.

    Returns the shard file names (no directory), in order.
    """
    path = os.fspath(path)
    if shard_packets < 1:
        raise ValueError(f"shard_packets must be >= 1, got {shard_packets}")
    cols = schedule.columns()
    directory = os.path.dirname(path) or "."
    kept = schedule.shard_bodies
    reuse = kept is not None and kept[0] == shard_packets
    header, bodies = kept[1:] if reuse else (b"", [])
    shards: List[dict] = []
    for index, start in enumerate(range(0, len(schedule), shard_packets)):
        rows = range(start, min(start + shard_packets, len(schedule)))
        name = shard_file_name(path, index)
        target = os.path.join(directory, name)
        fname = name[: -len(".gz")].encode("latin-1") + b"\0"  # as gzip names it
        if not reuse:
            encoded = io.BytesIO()
            _gzip(target, _schedule_blocks(target, cols, rows, {"shard_index": index}), encoded)
            data = encoded.getvalue()
            header = data[:10]
            bodies.append(data[10 + len(fname) :])
        _atomic_write(target, [header, fname, bodies[index]], compress=False)
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
    _atomic_write(path, [(json.dumps(manifest) + "\n").encode()])
    schedule.shard_bodies = (shard_packets, header, bodies)
    return [shard["file"] for shard in shards]


def load_manifest(path: Union[str, "os.PathLike"]) -> dict:
    """Load and validate a shard manifest written by :func:`save_schedule_sharded`."""
    path = os.fspath(path)
    with _open_for_decode(path) as stream:
        line = stream.readline().decode("utf-8")
    if not line.strip():
        raise ValueError(f"{path}: empty manifest file")
    manifest = _tagged_object(line, path, MANIFEST_FORMAT)
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not all(
        isinstance(shard, dict)
        and isinstance(shard.get("file"), str)
        and isinstance(shard.get("packets"), int)
        for shard in shards
    ):
        raise ValueError(f"{path}: manifest shards must be a list of {{file, packets}} objects")
    total = sum(shard["packets"] for shard in shards)
    if total != manifest.get("packets"):
        raise ValueError(
            f"{path}: manifest promises {manifest.get('packets')} packets but its "
            f"shards sum to {total}"
        )
    return manifest


def _tagged_object(line: str, path: str, tag: str) -> dict:
    """The JSON object on a stored file's first ``line``, which must carry ``"format": tag``."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a {tag} file (its first line is not a JSON object)")
    if data.get("format") != tag:
        raise ValueError(f"{path}: not a {tag} file (format={data.get('format')!r})")
    return data


def _read_header(stream: io.BufferedIOBase, path: str) -> dict:
    """Read and validate the header line of a ``repro-schedule/1`` byte stream.

    The header's ``packets`` must be a non-negative ``int`` (not a ``bool``):
    every reader of a count takes it from here.
    """
    header_line = stream.readline()
    if not header_line:
        raise ValueError(f"{path}: empty schedule file")
    header = _tagged_object(header_line.decode("utf-8"), path, SCHEDULE_FORMAT)
    packets = header.get("packets")
    if type(packets) is not int or packets < 0:
        raise ValueError(f"{path}: header packets must be a non-negative int, not {packets!r}")
    return header


def _check_counts(path: str, header: dict, promised: Optional[int], count: int) -> None:
    """``count`` packets were read from ``path``: its header and manifest must agree."""
    if count != header["packets"]:
        raise ValueError(
            f"{path}: header promises {header['packets']} packets, "
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
    with _open_for_decode(path) as stream:
        return _read_header(stream, path)["packets"]


def _stored_files(path: str) -> Tuple[List[Tuple[str, Optional[int]]], Optional[dict]]:
    """``([(file, packets the manifest promises)], manifest)`` of a stored schedule;
    a single ``repro-schedule/1`` file is its own only part: ``([(path, None)], None)``."""
    if not path.endswith(MANIFEST_SUFFIX):
        return [(path, None)], None
    manifest = load_manifest(path)
    directory = os.path.dirname(path) or "."
    shards = manifest["shards"]
    return [(os.path.join(directory, s["file"]), s["packets"]) for s in shards], manifest


#: Row text per step of the decode loop and, roughly, per block a save
#: encodes: a load holds at most this much (plus one partial line) beside the
#: columns it is filling, and a save about this much text at a time.
_DECODE_BYTES = 1 << 20


def _line_blocks(stream: io.BufferedIOBase) -> Iterator[bytes]:
    """``stream``'s remaining bytes, :data:`_DECODE_BYTES` at a time, each
    block cut after its last newline (the partial line opens the next)."""
    partial = b""
    while chunk := stream.read(_DECODE_BYTES):
        block = partial + chunk
        cut = block.rfind(b"\n") + 1
        partial = block[cut:]
        if cut:
            yield block[:cut]
    if partial:
        yield partial


def _json_columns(block: bytes) -> Tuple[ScheduleColumns, int]:
    """The reference decoder: ``(columns, rows read)`` of a block of row lines.

    Lines split as a text-mode read splits them (universal newlines), blank
    ones are skipped, and the rest go through ``json`` and
    :meth:`ScheduleColumns.extend` — so a malformed row raises its
    ``ValueError`` naming the packet.
    """
    text = block.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in text.split("\n") if line.strip()]
    cols = ScheduleColumns()
    if lines:
        # One json call per block, not per line: its lines are parsed as
        # the elements of a single JSON array.
        cols.extend(json.loads("[" + "\n,".join(lines) + "\n]"))
    return cols, len(lines)


def _decoded_parts(
    files: List[Tuple[str, Optional[int]]],
) -> Iterator[Tuple[Optional[ScheduleColumns], Optional[tuple]]]:
    """The one decode loop: every part of :func:`_stored_files`, in order.

    Yields ``(columns, None)`` per non-empty block of stored rows (hop
    offsets counted from 0) and ``(None, part)`` at each file's end,
    ``part`` being the :func:`_check_counts` arguments for that file.

    Each block goes to the compiled decoder (:func:`native_codecs`) first and to
    :func:`_json_columns`, the reference, when the kernel is unavailable or
    declines it; a file stays on json from its first declined block on, and
    one DEBUG line per such file says why.  Either way the columns are the
    same, to the type and the float bit.

    A corrupt deflate stream raises ``ValueError`` (never ``zlib.error``),
    so every reader's "malformed file" handling covers it.
    """
    codecs = native_codecs()
    memo: dict = {}  # node names and routes, interned across the files
    for file_path, promised in files:
        count = 0
        native = codecs and codecs[0]
        if native is None:
            why = "compiled kernel unavailable" if kernel_codecs() is None else "native codecs declined"
            logger.debug("%s: decoding with json (%s)", file_path, why)
        try:
            with _open_for_decode(file_path) as stream:
                header = _read_header(stream, file_path)
                for block in _line_blocks(stream):
                    cols = ScheduleColumns()
                    rows = native(block, memo, count, cols.lists()) if native else None
                    if not isinstance(rows, int):
                        if rows is not None:
                            logger.debug("%s: decoding with json (declined at %s)", file_path, rows)
                            native = None
                        cols, rows = _json_columns(block)
                    count += rows
                    if rows:
                        yield cols, None
        except zlib.error as error:
            raise ValueError(f"{file_path}: corrupt compressed data ({error})") from error
        yield None, (file_path, header, promised, count)


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
    ``ValueError`` for truncated, foreign or malformed files, ``OSError`` (e.g.
    ``FileNotFoundError``) for a shard the manifest names but the directory
    lacks.  Unlike :func:`load_schedule` it never pauses the collector — a
    generator would leave it paused in its caller's code between batches.
    """
    for cols, part in _decoded_parts(_stored_files(os.fspath(path))[0]):
        if part is not None:
            _check_counts(*part)
        else:
            yield cols


def load_schedule(path: Union[str, "os.PathLike"]) -> Tuple[Schedule, dict]:
    """Load a schedule written by :func:`save_schedule` or :func:`save_schedule_sharded`.

    Manifest paths (ending in :data:`MANIFEST_SUFFIX`) load every shard and
    return a schedule identical to the single-file form — shard layout is
    storage, not content.  Lines decode straight into the schedule's
    columns.

    Raises:
        ValueError: a truncated, foreign or malformed file (a row naming its
            packet, a duplicate packet id, a header or manifest that is not a
            JSON object of its format, a corrupt deflate stream).
        EOFError: a gzip stream cut short.
        OSError: an unreadable file, or a shard the manifest names but the
            directory lacks.

    Returns:
        ``(schedule, meta)`` where ``meta`` is the free-form metadata stored
        in the file's header line (the manifest's, for sharded schedules).
    """
    path = os.fspath(path)
    # Decoding builds a few acyclic containers per packet while earlier
    # schedules sit live in the caller's cache.
    with paused_gc():
        cols = ScheduleColumns()
        files, manifest = _stored_files(path)
        parts = []
        for batch, part in _decoded_parts(files):
            if part is not None:
                parts.append(part)
                continue
            first_hop = cols.hop_offset[-1]
            for name in _PACKET + _HOPS:
                getattr(cols, name).extend(getattr(batch, name))
            cols.hop_offset.extend(map(first_hop.__add__, islice(batch.hop_offset, 1, None)))
        # Adopting the columns rejects duplicate ids, which outranks a count mismatch.
        schedule = Schedule.from_columns(cols)
        for part in parts:
            _check_counts(*part)
        header = parts[-1][1] if manifest is None else manifest
        return schedule, header.get("meta", {})
