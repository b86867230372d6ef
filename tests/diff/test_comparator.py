"""First-divergence comparator: walk order, field diffs, port context."""

import json

from repro.core.schedule import HopTiming, PacketRecord, Schedule
from repro.diff import FieldDiff, first_divergence
from repro.experiments import ExperimentScale
from repro.pipeline import Scenario
from repro.pipeline.experiment import record_scenario_schedule

SMOKE = ExperimentScale.smoke()


def make_record(
    packet_id,
    ingress,
    hops,
    flow_id=1,
    size=1000.0,
    output=None,
):
    """A two-ish-hop record; ``hops`` is [(node, arrival, start, depart), ...]."""
    timings = [
        HopTiming(node=node, arrival_time=arr, start_service_time=start, departure_time=dep)
        for node, arr, start, dep in hops
    ]
    return PacketRecord(
        packet_id=packet_id,
        flow_id=flow_id,
        src="h0",
        dst="h1",
        size_bytes=size,
        ingress_time=ingress,
        output_time=output if output is not None else timings[-1].departure_time + 1e-3,
        path=[t.node for t in timings] + ["h1"],
        hops=timings,
    )


def two_hop_schedule():
    """Four packets through sw0 then sw1, staggered service times."""
    records = []
    for i in range(4):
        base = 0.01 * i
        records.append(
            make_record(
                packet_id=i,
                ingress=base,
                hops=[
                    ("sw0", base, base + 0.001, base + 0.002),
                    ("sw1", base + 0.003, base + 0.004, base + 0.005),
                ],
            )
        )
    return Schedule(records)


def perturbed(schedule, packet_id, attr="departure_time", hop=1, delta=1e-6):
    """A deep-ish copy of ``schedule`` with one hop field nudged."""
    records = []
    for record in schedule.records():
        hops = [
            HopTiming(h.node, h.arrival_time, h.start_service_time, h.departure_time)
            for h in record.hops
        ]
        rec = PacketRecord(
            packet_id=record.packet_id,
            flow_id=record.flow_id,
            src=record.src,
            dst=record.dst,
            size_bytes=record.size_bytes,
            ingress_time=record.ingress_time,
            output_time=record.output_time,
            path=list(record.path),
            hops=hops,
            flow_size_bytes=record.flow_size_bytes,
            deadline=record.deadline,
        )
        if record.packet_id == packet_id:
            setattr(hops[hop], attr, getattr(hops[hop], attr) + delta)
        records.append(rec)
    return Schedule(records)


class TestFirstDivergence:
    def test_identical_schedules_match(self):
        schedule = two_hop_schedule()
        assert first_divergence(schedule, two_hop_schedule()) is None

    def test_halts_at_first_divergent_packet_with_field_diff(self):
        # Pinned acceptance behavior: a perturbed copy diverges at exactly
        # the perturbed packet, naming the field and the delta.
        a = two_hop_schedule()
        b = perturbed(a, packet_id=2, attr="departure_time", hop=1, delta=1e-6)
        divergence = first_divergence(a, b)
        assert divergence is not None
        assert divergence.packet_id == 2
        assert divergence.kind == "fields"
        [diff] = divergence.fields
        assert diff.field == "hops[1].departure_time"
        assert abs((diff.b - diff.a) - 1e-6) < 1e-12

    def test_first_divergence_wins_in_canonical_order(self):
        # Perturb packets 1 and 3: only the canonically-earlier one is
        # reported; the cascade is deliberately silent.
        a = two_hop_schedule()
        b = perturbed(perturbed(a, packet_id=3), packet_id=1)
        divergence = first_divergence(a, b)
        assert divergence.packet_id == 1

    def test_walk_orders_by_ingress_time_not_packet_id(self):
        # Packet 9 enters before packet 5; a divergence on 9 must win.
        early = make_record(9, 0.0, [("sw0", 0.0, 0.001, 0.002)])
        late = make_record(5, 1.0, [("sw0", 1.0, 1.001, 1.002)])
        a = Schedule([late, early])
        b_early = make_record(9, 0.0, [("sw0", 0.0, 0.001, 0.0025)])
        b_late = make_record(5, 1.0, [("sw0", 1.0, 1.001, 1.0025)])
        b = Schedule([b_late, b_early])
        divergence = first_divergence(a, b)
        assert divergence.packet_id == 9
        assert divergence.index == 0

    def test_missing_packet_is_a_divergence(self):
        a = two_hop_schedule()
        b = Schedule([r for r in a.records() if r.packet_id != 1])
        divergence = first_divergence(a, b)
        assert divergence.packet_id == 1
        assert divergence.kind == "missing"
        assert divergence.missing_in == "b"
        assert divergence.packets_a == 4 and divergence.packets_b == 3
        assert "missing" in divergence.format()

    def test_identity_fields_lead_the_diff(self):
        a = two_hop_schedule()
        records = perturbed(a, packet_id=0, attr="departure_time", hop=0).records()
        next(r for r in records if r.packet_id == 0).size_bytes += 100.0
        divergence = first_divergence(a, Schedule(records))
        assert divergence.fields[0].field == "size_bytes"

    def test_divergent_port_names_the_divergent_hops_node(self):
        a = two_hop_schedule()
        b = perturbed(a, packet_id=2, hop=0)
        assert first_divergence(a, b).port == "sw0"
        b = perturbed(a, packet_id=2, hop=1)
        assert first_divergence(a, b).port == "sw1"

    def test_port_context_precedes_divergence_in_service_order(self):
        a = two_hop_schedule()
        b = perturbed(a, packet_id=2, hop=1)
        divergence = first_divergence(a, b, context=8)
        # Packets 0 and 1 were served at sw1 before packet 2; packet 3 not.
        assert [n.packet_id for n in divergence.context_a] == [0, 1]
        assert [n.packet_id for n in divergence.context_b] == [0, 1]
        assert divergence.context_a[0].start_service_time is not None

    def test_context_is_capped(self):
        a = two_hop_schedule()
        b = perturbed(a, packet_id=3, hop=1)
        divergence = first_divergence(a, b, context=2)
        assert len(divergence.context_a) == 2
        assert [n.packet_id for n in divergence.context_a] == [1, 2]

    def test_tolerance_suppresses_small_float_deltas(self):
        a = two_hop_schedule()
        b = perturbed(a, packet_id=2, delta=1e-9)
        assert first_divergence(a, b, tolerance=1e-6) is None
        assert first_divergence(a, b, tolerance=0.0) is not None

    def test_to_dict_is_json_serializable(self):
        a = two_hop_schedule()
        b = perturbed(a, packet_id=2)
        payload = json.loads(json.dumps(first_divergence(a, b).to_dict()))
        assert payload["packet_id"] == 2
        assert payload["fields"][0]["field"] == "hops[1].departure_time"

    def test_format_names_packet_field_and_port(self):
        a = two_hop_schedule()
        b = perturbed(a, packet_id=2, hop=1)
        report = first_divergence(a, b, label_a="left", label_b="right").format()
        assert "packet 2" in report
        assert "hops[1].departure_time" in report
        assert "divergent port: sw1" in report
        assert "'left'" in report and "'right'" in report

    def test_field_diff_describe_shows_delta(self):
        diff = FieldDiff("output_time", 1.0, 1.5)
        assert "delta=+5.000e-01" in diff.describe()


class TestRealScheduleDivergence:
    def test_perturbed_recording_diverges_at_the_perturbed_packet(self):
        # End-to-end acceptance pin: record a real smoke scenario, nudge one
        # hop timing, and the comparator must halt exactly there.
        scenario = Scenario(name="diff-accept", scale=SMOKE, utilization=0.5)
        a = record_scenario_schedule(scenario)
        b = record_scenario_schedule(scenario)
        assert first_divergence(a, b) is None  # recording is deterministic
        records = b.records()  # views: edits never reach `b`
        victim = records[len(records) // 2]
        victim.hops[0].departure_time += 5e-7
        divergence = first_divergence(a, Schedule(records))
        assert divergence is not None
        assert divergence.packet_id == victim.packet_id
        assert divergence.fields[0].field == "hops[0].departure_time"
        assert divergence.port == victim.hops[0].node
