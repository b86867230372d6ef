"""First-divergence schedule comparator.

The whole pipeline is verified by digest equality — golden cache keys,
golden rows, the benchmark's rows digests — but a digest mismatch only says
*that* two schedules differ, not *where*.  This module walks two schedules
in canonical ``(ingress_time, packet_id, hop_index)`` order
(:meth:`repro.core.schedule.Schedule.records`) and halts at the
**first divergent packet**, reporting a field-level diff plus the ordering
context around the divergence.

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

from repro.core.schedule import PacketRecord, Schedule

#: Default number of preceding packets reported per side at the divergent port.
DEFAULT_CONTEXT = 8

#: Record-level fields compared before the per-hop walk, in comparison order.
#: Identity fields lead (a packet that changed size or route diverged before
#: any timing did), then ingress, then the hop timings, then egress.
_IDENTITY_FIELDS = ("src", "dst", "size_bytes", "flow_id", "flow_size_bytes", "deadline")


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


def _record_field_diffs(
    rec_a: PacketRecord, rec_b: PacketRecord, tolerance: float
) -> List[FieldDiff]:
    """Every divergent field of one packet, in canonical comparison order."""
    diffs: List[FieldDiff] = []
    for name in _IDENTITY_FIELDS:
        value_a, value_b = getattr(rec_a, name), getattr(rec_b, name)
        if _values_differ(value_a, value_b, tolerance):
            diffs.append(FieldDiff(name, value_a, value_b))
    if list(rec_a.path) != list(rec_b.path):
        diffs.append(FieldDiff("path", list(rec_a.path), list(rec_b.path)))
    if _values_differ(rec_a.ingress_time, rec_b.ingress_time, tolerance):
        diffs.append(FieldDiff("ingress_time", rec_a.ingress_time, rec_b.ingress_time))
    for hop_index in range(max(len(rec_a.hops), len(rec_b.hops))):
        hop_a = rec_a.hops[hop_index] if hop_index < len(rec_a.hops) else None
        hop_b = rec_b.hops[hop_index] if hop_index < len(rec_b.hops) else None
        if hop_a is None or hop_b is None:
            diffs.append(
                FieldDiff(
                    f"hops[{hop_index}]",
                    hop_a.to_list() if hop_a is not None else None,
                    hop_b.to_list() if hop_b is not None else None,
                )
            )
            continue
        for attr in ("node", "arrival_time", "start_service_time", "departure_time"):
            value_a, value_b = getattr(hop_a, attr), getattr(hop_b, attr)
            if _values_differ(value_a, value_b, tolerance):
                diffs.append(FieldDiff(f"hops[{hop_index}].{attr}", value_a, value_b))
    if _values_differ(rec_a.output_time, rec_b.output_time, tolerance):
        diffs.append(FieldDiff("output_time", rec_a.output_time, rec_b.output_time))
    return diffs


def _divergent_port(
    diffs: List[FieldDiff], rec_a: Optional[PacketRecord], rec_b: Optional[PacketRecord]
) -> Optional[str]:
    """The node at which the first divergent field manifests.

    A hop-level diff names its own node; anything else (identity fields,
    ingress, egress) is attributed to the packet's last recorded hop — the
    port whose service completed the packet.
    """
    record = rec_a if rec_a is not None and rec_a.hops else rec_b
    for diff in diffs:
        if diff.field.startswith("hops["):
            hop_index = int(diff.field[len("hops[") :].split("]", 1)[0])
            for candidate in (rec_a, rec_b):
                if candidate is not None and hop_index < len(candidate.hops):
                    return candidate.hops[hop_index].node
    if record is not None and record.hops:
        return record.hops[-1].node
    return None


def _service_time_at(record: PacketRecord, node: str) -> Optional[float]:
    """When ``record``'s packet was served at ``node`` (first visit)."""
    for hop in record.hops:
        if hop.node == node:
            if hop.start_service_time is not None:
                return hop.start_service_time
            return hop.arrival_time
    return None


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
    a drop investigation wants to see.
    """
    entries: List[Tuple[float, int, PortNeighbor]] = []
    for record in schedule.records():
        if record.packet_id == exclude_packet:
            continue
        for hop in record.hops:
            if hop.node == node:
                when = (
                    hop.start_service_time
                    if hop.start_service_time is not None
                    else hop.arrival_time
                )
                if before is None or when < before:
                    entries.append(
                        (
                            when,
                            record.packet_id,
                            PortNeighbor(
                                packet_id=record.packet_id,
                                flow_id=record.flow_id,
                                arrival_time=hop.arrival_time,
                                start_service_time=hop.start_service_time,
                                departure_time=hop.departure_time,
                            ),
                        )
                    )
                break
    entries.sort(key=lambda item: (item[0], item[1]))
    return [neighbor for _, _, neighbor in entries[-limit:]]


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

    def _order_key(packet_id: int) -> Tuple[float, int]:
        record = a.get(packet_id)
        if record is None:
            record = b.record(packet_id)
        return (record.ingress_time, packet_id)

    union = sorted(set(a.packet_ids()) | set(b.packet_ids()), key=_order_key)
    for index, packet_id in enumerate(union):
        rec_a, rec_b = a.get(packet_id), b.get(packet_id)
        if rec_a is None or rec_b is None:
            present = rec_b if rec_a is None else rec_a
            port = _divergent_port([], rec_a, rec_b)
            before_a = _service_time_at(rec_a, port) if rec_a and port else None
            before_b = _service_time_at(rec_b, port) if rec_b and port else None
            return Divergence(
                packet_id=packet_id,
                flow_id=present.flow_id,
                index=index,
                kind="missing",
                missing_in="a" if rec_a is None else "b",
                port=port,
                context_a=_port_context(a, port, before_a, packet_id, context)
                if port
                else [],
                context_b=_port_context(b, port, before_b, packet_id, context)
                if port
                else [],
                packets_a=len(a),
                packets_b=len(b),
                label_a=label_a,
                label_b=label_b,
            )
        diffs = _record_field_diffs(rec_a, rec_b, tolerance)
        if diffs:
            port = _divergent_port(diffs, rec_a, rec_b)
            before_a = _service_time_at(rec_a, port) if port else None
            before_b = _service_time_at(rec_b, port) if port else None
            return Divergence(
                packet_id=packet_id,
                flow_id=rec_a.flow_id,
                index=index,
                kind="fields",
                fields=diffs,
                port=port,
                context_a=_port_context(a, port, before_a, packet_id, context)
                if port
                else [],
                context_b=_port_context(b, port, before_b, packet_id, context)
                if port
                else [],
                packets_a=len(a),
                packets_b=len(b),
                label_a=label_a,
                label_b=label_b,
            )
    return None
