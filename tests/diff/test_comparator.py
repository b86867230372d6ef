"""First-divergence comparator: walk order, field diffs, port context."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.diff import first_divergence
from repro.diff.comparator import FieldDiff
from repro.experiments import ExperimentScale
from repro.pipeline.experiment import record_scenario_schedule
from repro.pipeline.scenario import Scenario

SMOKE = ExperimentScale.smoke()

#: A row's ``hops`` entries, field by field.
HOP_FIELDS = ("node", "arrival_time", "start_service_time", "departure_time")


def make_row(packet_id, ingress, hops, flow_id=1, size=1000.0, output=None):
    """A two-ish-hop row; ``hops`` is [(node, arrival, start, depart), ...]."""
    return {
        "packet_id": packet_id,
        "flow_id": flow_id,
        "src": "h0",
        "dst": "h1",
        "size_bytes": size,
        "ingress_time": ingress,
        "output_time": output if output is not None else hops[-1][3] + 1e-3,
        "path": [hop[0] for hop in hops] + ["h1"],
        "hops": list(hops),
    }


def two_hop_schedule():
    """Four packets through sw0 then sw1, staggered service times."""
    return Schedule.from_rows(
        make_row(
            packet_id=i,
            ingress=0.01 * i,
            hops=[
                ("sw0", 0.01 * i, 0.01 * i + 0.001, 0.01 * i + 0.002),
                ("sw1", 0.01 * i + 0.003, 0.01 * i + 0.004, 0.01 * i + 0.005),
            ],
        )
        for i in range(4)
    )


def perturbed(schedule, packet_id, attr="departure_time", hop=1, delta=1e-6):
    """A copy of ``schedule`` with one hop field of one packet nudged."""
    rows = list(schedule)  # fresh rows: edits never reach `schedule`
    for row in rows:
        if row["packet_id"] == packet_id:
            nudged = list(row["hops"][hop])
            nudged[HOP_FIELDS.index(attr)] += delta
            row["hops"][hop] = tuple(nudged)
    return Schedule.from_rows(rows)


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
        early = make_row(9, 0.0, [("sw0", 0.0, 0.001, 0.002)])
        late = make_row(5, 1.0, [("sw0", 1.0, 1.001, 1.002)])
        a = Schedule.from_rows([late, early])
        b_early = make_row(9, 0.0, [("sw0", 0.0, 0.001, 0.0025)])
        b_late = make_row(5, 1.0, [("sw0", 1.0, 1.001, 1.0025)])
        b = Schedule.from_rows([b_late, b_early])
        divergence = first_divergence(a, b)
        assert divergence.packet_id == 9
        assert divergence.index == 0

    def test_missing_packet_is_a_divergence(self):
        a = two_hop_schedule()
        b = Schedule.from_rows(row for row in a if row["packet_id"] != 1)
        divergence = first_divergence(a, b)
        assert divergence.packet_id == 1
        assert divergence.kind == "missing"
        assert divergence.missing_in == "b"
        assert divergence.packets_a == 4 and divergence.packets_b == 3
        assert "missing" in divergence.format()

    def test_identity_fields_lead_the_diff(self):
        a = two_hop_schedule()
        rows = list(perturbed(a, packet_id=0, attr="departure_time", hop=0))
        next(row for row in rows if row["packet_id"] == 0)["size_bytes"] += 100.0
        divergence = first_divergence(a, Schedule.from_rows(rows))
        assert [diff.field for diff in divergence.fields] == ["size_bytes", "hops[0].departure_time"]

    def test_a_hop_on_one_side_only_is_reported_whole(self):
        a = two_hop_schedule()
        rows = list(a)
        rows[1]["hops"].pop()
        divergence = first_divergence(a, Schedule.from_rows(rows))
        assert divergence.packet_id == 1
        [diff] = divergence.fields
        assert (diff.field, diff.b) == ("hops[1]", None)
        assert diff.a == list(next(row for row in a if row["packet_id"] == 1)["hops"][1])
        assert divergence.port == "sw1"

    def test_a_changed_route_is_a_path_diff(self):
        a = two_hop_schedule()
        rows = list(a)
        rows[0]["path"] = ("sw0", "sw9", "h1")
        divergence = first_divergence(a, Schedule.from_rows(rows))
        assert divergence.fields == [FieldDiff("path", ["sw0", "sw1", "h1"], ["sw0", "sw9", "h1"])]

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
        victim = list(b)[len(b) // 2]
        divergence = first_divergence(a, perturbed(b, victim["packet_id"], hop=0, delta=5e-7))
        assert divergence is not None
        assert divergence.packet_id == victim["packet_id"]
        assert divergence.fields[0].field == "hops[0].departure_time"
        assert divergence.port == victim["hops"][0][0]


finite = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def nudged_pairs(draw):
    """``(rows, packet id, hop index, field)``: drawn rows and one hop field to nudge."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8, unique=True))
    rows = []
    for packet_id in ids:
        hops = draw(
            st.lists(
                st.tuples(st.sampled_from(["sw0", "sw1", "sw2"]), finite, finite, finite),
                min_size=1,
                max_size=3,
            )
        )
        rows.append(make_row(packet_id, draw(finite), hops, flow_id=draw(st.integers(0, 3))))
    victim = draw(st.sampled_from(rows))
    hop = draw(st.integers(min_value=0, max_value=len(victim["hops"]) - 1))
    field = draw(st.sampled_from(HOP_FIELDS[1:]))
    return rows, victim["packet_id"], hop, field


class TestDivergenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=nudged_pairs())
    def test_a_single_nudge_is_found_exactly_there(self, case):
        rows, packet_id, hop, field = case
        a = Schedule.from_rows(rows)
        assert first_divergence(a, Schedule.from_rows(list(a))) is None
        divergence = first_divergence(a, perturbed(a, packet_id, attr=field, hop=hop, delta=0.5))
        assert (divergence.packet_id, divergence.kind) == (packet_id, "fields")
        assert [diff.field for diff in divergence.fields] == [f"hops[{hop}].{field}"]
        assert divergence.port == a.row(packet_id)["hops"][hop][0]
        assert packet_id not in {neighbor.packet_id for neighbor in divergence.context_a}
