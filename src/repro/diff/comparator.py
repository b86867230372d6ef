"""First-divergence schedule comparator.

The whole pipeline is verified by digest equality — golden cache keys,
golden rows, the benchmark's rows digests — but a digest mismatch only says
*that* two schedules differ, not *where*.  This module walks two schedules
row by row in canonical ``(ingress_time, packet_id, hop_index)`` order
(the order iterating a :class:`~repro.core.schedule.Schedule` yields) and
halts at the **first divergent packet**, reporting a field-level diff plus
the ordering context around the divergence.

Invariants (modeled on replay-engine debuggers):

* **First divergence wins** — the walk stops at the earliest canonical
  position where the schedules disagree; later differences are almost
  always cascades of the first one and are deliberately not reported.
* **Comparison is read-only** — neither schedule is mutated, and nothing is
  "healed": a missing packet is a divergence, not something to skip over.
* **Bit-identity is the default** — fields are compared with exact float
  equality (the backends' contract); a ``tolerance`` exists only for
  exploratory comparisons of schedules that never claimed bit-identity.

See ``docs/diff.md`` for the full contract and a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.schedule import NO_TIME, Schedule

#: Default number of preceding packets reported per side at the divergent port.
DEFAULT_CONTEXT = 8

#: Record-level fields compared before the per-hop walk, in comparison order.
#: Identity fields lead (a packet that changed size or route diverged before
#: any timing did), then ingress, then the hop timings, then egress.
_IDENTITY_FIELDS = ("src", "dst", "size_bytes", "flow_id", "flow_size_bytes", "deadline")
#: The names of a row's ``hops`` entries, in entry order (``hops[i].<name>`` labels).
_HOP_FIELDS = ("node", "arrival_time", "start_service_time", "departure_time")


@dataclass(frozen=True)
class FieldDiff:
    """One divergent field of the first divergent packet.

    Attributes:
        field: Dotted field path (``"output_time"``,
            ``"hops[2].departure_time"``, ...).
        a: The field's value in schedule A (``None`` = absent).
        b: The field's value in schedule B (``None`` = absent).
    """

    field: str
    a: object
    b: object

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {"field": self.field, "a": self.a, "b": self.b}

    def describe(self) -> str:
        """One-line human rendering, with a float delta when meaningful."""
        if isinstance(self.a, float) and isinstance(self.b, float):
            return f"{self.field}: a={self.a!r} b={self.b!r} (delta={self.b - self.a:+.3e})"
        return f"{self.field}: a={self.a!r} b={self.b!r}"


@dataclass(frozen=True)
class PortNeighbor:
    """One entry of the per-port ordering context around a divergence.

    Attributes:
        packet_id: The neighboring packet.
        flow_id: Its flow.
        arrival_time: When it arrived at the divergent port.
        start_service_time: When the port started serving it (its position
            in the port's service order — the context is sorted by this).
        departure_time: When its last bit left the port.
    """

    packet_id: int
    flow_id: int
    arrival_time: float
    start_service_time: Optional[float]
    departure_time: Optional[float]

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "packet_id": self.packet_id,
            "flow_id": self.flow_id,
            "arrival_time": self.arrival_time,
            "start_service_time": self.start_service_time,
            "departure_time": self.departure_time,
        }

    def describe(self) -> str:
        """Compact ``pkt@service_time`` rendering for the report."""
        when = self.start_service_time
        when = when if when is not None else self.arrival_time
        return f"{self.packet_id}@{when!r}"


@dataclass
class Divergence:
    """The first divergent packet of a schedule comparison.

    Attributes:
        packet_id: The divergent packet.
        flow_id: Its flow (from whichever side has the record).
        index: Position of the packet in the canonical walk (0-based, over
            the union of both schedules' packet ids).
        kind: ``"missing"`` (the packet exists on one side only — a drop)
            or ``"fields"`` (present on both sides with differing fields).
        missing_in: ``"a"`` or ``"b"`` for ``kind="missing"``, else ``None``.
        fields: Divergent fields in comparison order (``kind="fields"``).
        port: Node at which the divergence manifests — the divergent hop's
            node, or the packet's last hop for egress-only diffs (``None``
            when neither side recorded hops).
        context_a: Up to ``context`` packets served at :attr:`port` before
            the divergent packet in schedule A, in service order.
        context_b: Same for schedule B.
        packets_a: Total packets in schedule A.
        packets_b: Total packets in schedule B.
        label_a: Display name of side A (e.g. a file name or backend name).
        label_b: Display name of side B.
    """

    packet_id: int
    flow_id: int
    index: int
    kind: str
    missing_in: Optional[str] = None
    fields: List[FieldDiff] = field(default_factory=list)
    port: Optional[str] = None
    context_a: List[PortNeighbor] = field(default_factory=list)
    context_b: List[PortNeighbor] = field(default_factory=list)
    packets_a: int = 0
    packets_b: int = 0
    label_a: str = "a"
    label_b: str = "b"

    def to_dict(self) -> dict:
        """JSON-serializable form (the CLI's ``--json`` payload)."""
        return {
            "packet_id": self.packet_id,
            "flow_id": self.flow_id,
            "index": self.index,
            "kind": self.kind,
            "missing_in": self.missing_in,
            "fields": [diff.to_dict() for diff in self.fields],
            "port": self.port,
            "context_a": [entry.to_dict() for entry in self.context_a],
            "context_b": [entry.to_dict() for entry in self.context_b],
            "packets_a": self.packets_a,
            "packets_b": self.packets_b,
            "label_a": self.label_a,
            "label_b": self.label_b,
        }

    def format(self) -> str:
        """Multi-line human-readable divergence report."""
        lines = [
            f"first divergence: packet {self.packet_id} (flow {self.flow_id}), "
            f"canonical index {self.index} "
            f"[{self.label_a}: {self.packets_a} packets, "
            f"{self.label_b}: {self.packets_b} packets]"
        ]
        if self.kind == "missing":
            present = self.label_b if self.missing_in == "a" else self.label_a
            absent = self.label_a if self.missing_in == "a" else self.label_b
            lines.append(
                f"  packet present in {present!r} but missing from {absent!r} "
                "(dropped or never delivered)"
            )
        else:
            lines.append(f"  {len(self.fields)} divergent field(s):")
            for diff in self.fields:
                lines.append(f"    {diff.describe()}")
        if self.port is not None:
            lines.append(f"  divergent port: {self.port}")
            for label, context in (
                (self.label_a, self.context_a),
                (self.label_b, self.context_b),
            ):
                if context:
                    served = "  ".join(entry.describe() for entry in context)
                    lines.append(
                        f"  last {len(context)} served at {self.port} in {label!r}: {served}"
                    )
                else:
                    lines.append(f"  no earlier service at {self.port} in {label!r}")
        return "\n".join(lines)


def _values_differ(a: object, b: object, tolerance: float) -> bool:
    """Exact inequality, with an optional float tolerance."""
    if a is None or b is None:
        return a is not b
    if tolerance > 0.0 and isinstance(a, float) and isinstance(b, float):
        return abs(a - b) > tolerance
    return a != b


def _row_field_diffs(row_a: dict, row_b: dict, tolerance: float) -> List[FieldDiff]:
    """Every divergent field of one packet's two rows, in canonical comparison order."""
    diffs: List[FieldDiff] = []
    for name in _IDENTITY_FIELDS:
        value_a, value_b = row_a[name], row_b[name]
        if _values_differ(value_a, value_b, tolerance):
            diffs.append(FieldDiff(name, value_a, value_b))
    if list(row_a["path"]) != list(row_b["path"]):
        diffs.append(FieldDiff("path", list(row_a["path"]), list(row_b["path"])))
    if _values_differ(row_a["ingress_time"], row_b["ingress_time"], tolerance):
        diffs.append(FieldDiff("ingress_time", row_a["ingress_time"], row_b["ingress_time"]))
    hops_a, hops_b = row_a["hops"], row_b["hops"]
    for hop_index in range(max(len(hops_a), len(hops_b))):
        hop_a = hops_a[hop_index] if hop_index < len(hops_a) else None
        hop_b = hops_b[hop_index] if hop_index < len(hops_b) else None
        if hop_a is None or hop_b is None:
            diffs.append(
                FieldDiff(
                    f"hops[{hop_index}]",
                    list(hop_a) if hop_a is not None else None,
                    list(hop_b) if hop_b is not None else None,
                )
            )
            continue
        for name, value_a, value_b in zip(_HOP_FIELDS, hop_a, hop_b):
            if _values_differ(value_a, value_b, tolerance):
                diffs.append(FieldDiff(f"hops[{hop_index}].{name}", value_a, value_b))
    if _values_differ(row_a["output_time"], row_b["output_time"], tolerance):
        diffs.append(FieldDiff("output_time", row_a["output_time"], row_b["output_time"]))
    return diffs


def _divergent_port(
    diffs: List[FieldDiff], row_a: Optional[dict], row_b: Optional[dict]
) -> Optional[str]:
    """The node at which the first divergent field manifests.

    A hop-level diff names its own node; anything else (identity fields,
    ingress, egress) is attributed to the packet's last recorded hop — the
    port whose service completed the packet.
    """
    row = row_a if row_a is not None and row_a["hops"] else row_b
    for diff in diffs:
        if diff.field.startswith("hops["):
            hop_index = int(diff.field[len("hops[") :].split("]", 1)[0])
            for candidate in (row_a, row_b):
                if candidate is not None and hop_index < len(candidate["hops"]):
                    return candidate["hops"][hop_index][0]
    if row is not None and row["hops"]:
        return row["hops"][-1][0]
    return None


def _service_time_at(row: dict, node: str) -> Optional[float]:
    """When ``row``'s packet was served at ``node`` (first visit)."""
    for hop_node, arrival, start, _ in row["hops"]:
        if hop_node == node:
            return start if start is not None else arrival
    return None


def _time(stored: float) -> Optional[float]:
    """A stored optional hop time as a row holds it (``None`` for :data:`NO_TIME`)."""
    return None if stored == NO_TIME else stored


def _port_context(
    schedule: Schedule,
    node: str,
    before: Optional[float],
    exclude_packet: int,
    limit: int,
) -> List[PortNeighbor]:
    """The last ``limit`` packets served at ``node`` before ``before``.

    ``before=None`` (the divergent packet never reached the port on this
    side) reports the port's final ``limit`` packets instead, which is what
    a drop investigation wants to see.  Scans the hop columns; each packet
    counts at its first visit to ``node``.
    """
    cols = schedule.columns()
    off = cols.hop_offset
    entries: List[Tuple[float, int, int, int]] = []
    for j, packet_id in enumerate(cols.packet_id):
        nodes = cols.hop_node[off[j] : off[j + 1]]
        if packet_id == exclude_packet or node not in nodes:
            continue
        hop = off[j] + nodes.index(node)
        start = cols.hop_start_service[hop]
        when = start if start != NO_TIME else cols.hop_arrival[hop]
        if before is None or when < before:
            entries.append((when, packet_id, j, hop))
    entries.sort()  # by (when, packet id): ids are unique
    return [
        PortNeighbor(
            packet_id=packet_id,
            flow_id=cols.flow_id[j],
            arrival_time=cols.hop_arrival[hop],
            start_service_time=_time(cols.hop_start_service[hop]),
            departure_time=_time(cols.hop_departure[hop]),
        )
        for _, packet_id, j, hop in entries[-limit:]
    ]


def first_divergence(
    a: Schedule,
    b: Schedule,
    context: int = DEFAULT_CONTEXT,
    tolerance: float = 0.0,
    label_a: str = "a",
    label_b: str = "b",
) -> Optional[Divergence]:
    """Compare two schedules; return the first divergent packet, or ``None``.

    The walk visits the union of both schedules' packet ids in canonical
    ``(ingress_time, packet_id)`` order (a packet missing on one side orders
    by the side that has it) and, within each packet, compares fields in
    canonical order: identity fields, path, ingress time, per-hop timings by
    hop index, output time.  The first packet with any divergent field — or
    present on only one side — is reported with *all* of its divergent
    fields, the port the first of them manifests at, and the ``context``
    packets that preceded it in each schedule's service order at that port.

    Args:
        a: Left schedule.
        b: Right schedule.
        context: Neighbors reported per side at the divergent port.
        tolerance: Absolute float tolerance (``0.0`` = bit-exact, the
            backends' contract).
        label_a: Display name for ``a`` in the report.
        label_b: Display name for ``b`` in the report.

    Returns:
        ``None`` when the schedules match under ``tolerance``, else the
        :class:`Divergence` at the first mismatch (first divergence wins —
        everything after it is unreported by design).
    """
    rows_a = {row["packet_id"]: row for row in a}
    rows_b = {row["packet_id"]: row for row in b}

    def _order_key(packet_id: int) -> Tuple[float, int]:
        return ((rows_a.get(packet_id) or rows_b[packet_id])["ingress_time"], packet_id)

    for index, packet_id in enumerate(sorted(rows_a.keys() | rows_b.keys(), key=_order_key)):
        row_a, row_b = rows_a.get(packet_id), rows_b.get(packet_id)
        if row_a is None or row_b is None:
            kind, diffs = "missing", []
        else:
            kind, diffs = "fields", _row_field_diffs(row_a, row_b, tolerance)
            if not diffs:
                continue
        port = _divergent_port(diffs, row_a, row_b)
        before_a = _service_time_at(row_a, port) if row_a and port else None
        before_b = _service_time_at(row_b, port) if row_b and port else None
        return Divergence(
            packet_id=packet_id,
            flow_id=(row_a or row_b)["flow_id"],
            index=index,
            kind=kind,
            missing_in=None if kind == "fields" else "a" if row_a is None else "b",
            fields=diffs,
            port=port,
            context_a=_port_context(a, port, before_a, packet_id, context) if port else [],
            context_b=_port_context(b, port, before_b, packet_id, context) if port else [],
            packets_a=len(a),
            packets_b=len(b),
            label_a=label_a,
            label_b=label_b,
        )
    return None
