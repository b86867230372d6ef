"""Tests for the slack-policy subsystem: registry, initializers, properties.

Covers the acceptance criteria of the pluggable slack-initialization PR:

* the registry ships (at least) the four paper policies — ``replay``,
  ``zero``, ``deadline``, ``static-delay`` — as named, picklable definitions
  with a lossless ``to_dict``/``from_dict`` round-trip;
* each policy's initializer stamps headers per its Section-2/3 definition;
* ``deadline`` slack is monotone in the deadline (property test);
* policies feed the schedule-cache content hash, while policy-less keys are
  bit-identical to the pre-policy pipeline.
"""

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.slack import (
    BlackBoxSlackInitializer,
    ConstantSlackPolicy,
    DeadlineSlackInitializer,
    FairnessSlackPolicy,
    FlowSizeSlackPolicy,
    NullSlackPolicy,
    StaticDelaySlackInitializer,
    ZeroSlackInitializer,
)
from repro.core.slack_policy import (
    POLICY_COMPATIBLE_MODES,
    POLICY_KINDS,
    SLACK_MODES,
    SLACK_POLICIES,
    SlackPolicyDef,
)
from repro.core.schedule import PacketRecord, Schedule
from repro.schedulers import uniform_factory
from repro.sim import Simulator
from repro.sim.packet import Packet
from repro.topology import linear_topology
from repro.utils import mbps


@pytest.fixture
def topology():
    return linear_topology(2, mbps(10))


@pytest.fixture
def line_network(topology):
    return topology.build(Simulator(), uniform_factory("fifo"))


def make_record(network, ingress=0.0, output=0.05, size=1000.0, deadline=None, flow_size=None):
    path = network.path("src0", "dst0")
    return PacketRecord(
        packet_id=1,
        flow_id=1,
        src="src0",
        dst="dst0",
        size_bytes=size,
        ingress_time=ingress,
        output_time=output,
        path=path,
        flow_size_bytes=flow_size,
        deadline=deadline,
    )


def make_packet():
    return Packet(flow_id=1, src="src0", dst="dst0", size_bytes=1000, packet_id=1)


def headers_of(initializer, topology, record):
    """``(slack, priority, deadline, vector)`` the initializer gives ``record``'s row."""
    cols = Schedule([record]).columns()
    return tuple(field[0] for field in initializer.headers(cols, topology.link_params()))


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestSlackPolicyRegistry:
    def test_ships_the_four_paper_policies(self):
        names = SLACK_POLICIES.names()
        for name in ("replay", "zero", "deadline", "static-delay"):
            assert name in names
        assert len(SLACK_POLICIES) >= 4

    def test_get_unknown_name_lists_known_policies(self):
        with pytest.raises(KeyError, match="unknown slack policy"):
            SLACK_POLICIES.get("nope")

    def test_definitions_round_trip_losslessly(self):
        for definition in SLACK_POLICIES:
            clone = SlackPolicyDef.from_dict(definition.to_dict())
            assert clone == definition
            assert clone.to_dict() == definition.to_dict()

    def test_definitions_are_picklable_and_hashable(self):
        for definition in SLACK_POLICIES:
            assert pickle.loads(pickle.dumps(definition)) == definition
            assert hash(definition) == hash(SlackPolicyDef.from_dict(definition.to_dict()))

    def test_build_returns_the_matching_initializer(self):
        assert isinstance(SLACK_POLICIES.get("replay").build_initializer(), BlackBoxSlackInitializer)
        assert isinstance(SLACK_POLICIES.get("zero").build_initializer(), ZeroSlackInitializer)
        assert isinstance(SLACK_POLICIES.get("deadline").build_initializer(), DeadlineSlackInitializer)
        assert isinstance(
            SLACK_POLICIES.get("static-delay").build_initializer(), StaticDelaySlackInitializer
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown slack-policy kind"):
            SlackPolicyDef(name="x", kind="nope")

    def test_params_are_sorted_for_stable_hashing(self):
        a = SlackPolicyDef(name="x", kind="deadline", params=(("no_deadline_slack", 2.0),))
        b = SlackPolicyDef.from_dict(a.to_dict())
        assert a.params == b.params

    def test_compatible_modes_exclude_header_vector_modes(self):
        assert "lstf" in POLICY_COMPATIBLE_MODES
        assert "omniscient" not in POLICY_COMPATIBLE_MODES
        assert "priority" not in POLICY_COMPATIBLE_MODES


# --------------------------------------------------------------------- #
# Live/replay capability (the unified policy contract)
# --------------------------------------------------------------------- #
class TestPolicyCapabilities:
    def test_every_kind_supports_at_least_one_mode(self):
        for kind in POLICY_KINDS.values():
            assert kind.supports_live or kind.supports_replay
        assert SLACK_MODES == ("replay", "live")

    def test_live_factories_build_the_figure_policies(self):
        assert isinstance(SLACK_POLICIES.get("flow-size").build_live(), FlowSizeSlackPolicy)
        assert isinstance(SLACK_POLICIES.get("fairness").build_live(), FairnessSlackPolicy)
        assert isinstance(SLACK_POLICIES.get("null").build_live(), NullSlackPolicy)
        static = SLACK_POLICIES.get("static-delay").build_live()
        assert isinstance(static, ConstantSlackPolicy)
        assert static.slack == 1.0
        zero = SLACK_POLICIES.get("zero").build_live()
        assert isinstance(zero, ConstantSlackPolicy)
        assert zero.slack == 0.0

    def test_live_only_policy_refuses_replay_materialization(self):
        with pytest.raises(ValueError, match="live-only"):
            SLACK_POLICIES.get("flow-size").build_initializer()
        with pytest.raises(ValueError, match="live-only"):
            SLACK_POLICIES.get("fairness").build_initializer()

    def test_replay_only_policy_refuses_live_materialization(self):
        with pytest.raises(ValueError, match="replay-only"):
            SLACK_POLICIES.get("replay").build_live()
        with pytest.raises(ValueError, match="replay-only"):
            SLACK_POLICIES.get("deadline").build_live()

    def test_capability_strings(self):
        assert SLACK_POLICIES.get("replay").capability() == "replay"
        assert SLACK_POLICIES.get("zero").capability() == "live+replay"
        assert SLACK_POLICIES.get("flow-size").capability() == "live"

    def test_with_params_derives_a_reparameterized_def(self):
        base = SLACK_POLICIES.get("fairness")
        derived = base.with_params(rate_estimate_bps=2.5e6)
        assert derived.name == base.name and derived.kind == base.kind
        assert dict(derived.params)["rate_estimate_bps"] == 2.5e6
        assert derived.fingerprint() != base.fingerprint()
        policy = derived.build_live()
        assert policy.rate_estimate_bps == 2.5e6

    def test_with_params_rejects_unknown_parameter_names(self):
        """A typo'd sweep must fail at expansion time with the accepted
        names, not as a TypeError deep inside a pool worker (after the
        bogus name already fed a cache key)."""
        with pytest.raises(ValueError, match="does not accept"):
            SLACK_POLICIES.get("fairness").with_params(rate_bps=5e5)
        # Parameters beyond those registered are still fine when the
        # factory accepts them (the registered def lists defaults only).
        derived = SLACK_POLICIES.get("fairness").with_params(ack_slack=0.5)
        assert derived.build_live().ack_slack == 0.5

    def test_build_live_slack_policy_never_arms_policyless_cells(self):
        """The shared live-experiment resolution helper: an override can
        swap a configured policy but never installs one on a cell that was
        configured without (conventional-scheduler cells stay bare)."""
        from repro.pipeline.experiment import build_live_slack_policy

        assert build_live_slack_policy(None) is None
        assert build_live_slack_policy(None, "zero") is None
        assert isinstance(build_live_slack_policy("flow-size"), FlowSizeSlackPolicy)
        swapped = build_live_slack_policy("flow-size", "zero")
        assert isinstance(swapped, ConstantSlackPolicy)

    def test_live_faces_of_shared_kinds_match_the_figure_constructions(self):
        """The registry's live faces must stamp exactly what Figures 2-4
        stamped by hand before the unification."""
        packet = make_packet()
        SLACK_POLICIES.get("flow-size").build_live().on_packet_sent(packet, now=0.0)
        by_hand = make_packet()
        FlowSizeSlackPolicy(scale=1.0).on_packet_sent(by_hand, now=0.0)
        assert packet.header.slack == by_hand.header.slack

        packet = make_packet()
        SLACK_POLICIES.get("static-delay").build_live().on_packet_sent(packet, now=0.0)
        by_hand = make_packet()
        ConstantSlackPolicy(slack=1.0).on_packet_sent(by_hand, now=0.0)
        assert packet.header.slack == by_hand.header.slack


# --------------------------------------------------------------------- #
# Per-policy initializer behaviour
# --------------------------------------------------------------------- #
class TestZeroSlack:
    def test_stamps_zero_slack_and_keeps_flow_deadline(self, topology, line_network):
        record = make_record(line_network, deadline=0.4)
        assert headers_of(ZeroSlackInitializer(), topology, record) == (0.0, math.inf, 0.4, [])

    def test_untagged_flow_has_no_deadline(self, topology, line_network):
        record = make_record(line_network)
        assert headers_of(ZeroSlackInitializer(), topology, record) == (
            0.0,
            math.inf,
            math.inf,
            [],
        )


class TestStaticDelaySlack:
    def test_every_packet_gets_the_constant(self, topology, line_network):
        initializer = StaticDelaySlackInitializer(slack_seconds=0.25)
        for deadline in (None, 0.7):
            record = make_record(line_network, deadline=deadline)
            assert headers_of(initializer, topology, record)[0] == 0.25

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StaticDelaySlackInitializer(slack_seconds=-1.0)


@pytest.mark.parametrize(
    "factory, keyword",
    [
        (StaticDelaySlackInitializer, "slack_seconds"),
        (DeadlineSlackInitializer, "no_deadline_slack"),
        (ConstantSlackPolicy, "slack"),
        (FlowSizeSlackPolicy, "scale"),
        (FairnessSlackPolicy, "rate_estimate_bps"),
    ],
)
def test_a_nan_parameter_is_rejected(factory, keyword):
    """NaN fails every ordered comparison, so a ``< 0`` check let it through
    and a NaN key then silently broke LSTF's heap order."""
    with pytest.raises(ValueError):
        factory(**{keyword: math.nan})


def test_a_nan_parameter_is_rejected_through_the_registry():
    derived = SLACK_POLICIES.get("static-delay").with_params(slack_seconds=math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        derived.build_initializer()


class TestDeadlineSlack:
    def test_slack_is_deadline_minus_ingress_minus_bottleneck_residual(
        self, topology, line_network
    ):
        record = make_record(
            line_network, ingress=0.01, deadline=0.5, size=1000.0, flow_size=8000.0
        )
        residual = line_network.bottleneck_transmission_time(8000.0)
        assert headers_of(DeadlineSlackInitializer(), topology, record) == (
            0.5 - 0.01 - residual,
            math.inf,
            0.5,
            [],
        )

    def test_falls_back_to_packet_size_without_flow_size(self, topology, line_network):
        record = make_record(line_network, ingress=0.0, deadline=0.2, size=1000.0)
        residual = line_network.bottleneck_transmission_time(1000.0)
        assert headers_of(DeadlineSlackInitializer(), topology, record)[0] == 0.2 - 0.0 - residual

    def test_infeasible_deadline_yields_negative_slack(self, topology, line_network):
        record = make_record(line_network, ingress=0.5, deadline=0.1, flow_size=8000.0)
        assert headers_of(DeadlineSlackInitializer(), topology, record)[0] < 0.0

    def test_untagged_flows_get_the_constant_fallback(self, topology, line_network):
        initializer = DeadlineSlackInitializer(no_deadline_slack=0.125)
        assert headers_of(initializer, topology, make_record(line_network)) == (
            0.125,
            math.inf,
            math.inf,
            [],
        )

    def test_negative_fallback_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DeadlineSlackInitializer(no_deadline_slack=-0.5)

    @given(
        deadlines=st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=2, max_size=20
        ),
        ingress=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        flow_size=st.floats(min_value=100.0, max_value=1e7, allow_nan=False),
    )
    def test_slack_is_monotone_in_the_deadline(self, deadlines, ingress, flow_size):
        """Property: with everything else fixed, a later deadline never
        yields less slack — and strictly later yields strictly more."""
        topo = linear_topology(2, mbps(10))
        network = topo.build(Simulator(), uniform_factory("fifo"))
        initializer = DeadlineSlackInitializer()
        slacks = []
        for deadline in sorted(deadlines):
            record = make_record(
                network, ingress=ingress, deadline=deadline, flow_size=flow_size
            )
            slacks.append((deadline, headers_of(initializer, topo, record)[0]))
        for (d_a, s_a), (d_b, s_b) in zip(slacks, slacks[1:]):
            assert s_b >= s_a
            if d_b > d_a:
                assert s_b - s_a == pytest.approx(d_b - d_a)


class TestReplayPolicy:
    def test_replay_policy_matches_blackbox_initialization(self, topology, line_network):
        record = make_record(line_network, ingress=0.01, output=0.05)
        via_policy = SLACK_POLICIES.get("replay").build_initializer()
        direct = BlackBoxSlackInitializer()
        assert headers_of(via_policy, topology, record) == headers_of(direct, topology, record)


# --------------------------------------------------------------------- #
# Cache-key integration
# --------------------------------------------------------------------- #
class TestPolicyCacheKeys:
    def _scenario(self, **overrides):
        from repro.experiments import ExperimentScale
        from repro.pipeline.scenario import Scenario

        return Scenario(name="x", scale=ExperimentScale.smoke(), **overrides)

    def test_policyless_key_identical_to_omitting_the_field(self):
        from repro.pipeline.experiment import scenario_cache_key

        assert scenario_cache_key(self._scenario()) == scenario_cache_key(
            self._scenario(slack_policy=None)
        )

    def test_policy_feeds_the_content_hash(self):
        from repro.pipeline.experiment import scenario_cache_key

        keys = {
            scenario_cache_key(self._scenario(slack_policy=policy))
            for policy in (None, "replay", "zero", "deadline", "static-delay")
        }
        assert len(keys) == 5

    def test_policy_params_feed_the_content_hash(self):
        from repro.experiments import ExperimentScale
        from repro.pipeline.cache import schedule_cache_key
        from repro.pipeline.scenario import Scenario

        scenario = Scenario(name="x", scale=ExperimentScale.smoke())
        topology = scenario.build_topology()
        workload = scenario.workload()
        a = SlackPolicyDef(name="deadline", kind="deadline", params=(("no_deadline_slack", 1.0),))
        b = SlackPolicyDef(name="deadline", kind="deadline", params=(("no_deadline_slack", 2.0),))
        key_a = schedule_cache_key(topology, "fifo", workload, 1, slack_policy=a)
        key_b = schedule_cache_key(topology, "fifo", workload, 1, slack_policy=b)
        assert key_a != key_b

    def test_policy_name_and_description_do_not_feed_the_hash(self):
        """Only behavioral fields (kind + params) may invalidate cache
        entries; renaming or re-describing a policy must not."""
        from repro.experiments import ExperimentScale
        from repro.pipeline.cache import schedule_cache_key
        from repro.pipeline.scenario import Scenario

        scenario = Scenario(name="x", scale=ExperimentScale.smoke())
        topology = scenario.build_topology()
        workload = scenario.workload()
        a = SlackPolicyDef(name="deadline", kind="deadline", description="old words")
        b = SlackPolicyDef(name="renamed", kind="deadline", description="new words")
        assert a.fingerprint() == b.fingerprint()
        key_a = schedule_cache_key(topology, "fifo", workload, 1, slack_policy=a)
        key_b = schedule_cache_key(topology, "fifo", workload, 1, slack_policy=b)
        assert key_a == key_b

    def test_incompatible_mode_rejected_by_replay_scenario(self):
        from repro.pipeline.experiment import replay_scenario

        scenario = self._scenario(slack_policy="zero", replay_mode="omniscient")
        with pytest.raises(ValueError, match="cannot drive replay mode"):
            replay_scenario(scenario)

    def test_override_slack_policy_suffixes_names(self):
        from repro.pipeline.scenario import override_slack_policy

        scenario = self._scenario()
        (pinned,) = override_slack_policy([scenario], "deadline")
        assert pinned.slack_policy == "deadline"
        assert pinned.name == "x+slack:deadline"
        (unchanged,) = override_slack_policy([pinned], "deadline")
        assert unchanged.name == "x+slack:deadline"

    def test_override_slack_policy_rejects_unknown_names(self):
        from repro.pipeline.scenario import override_slack_policy

        with pytest.raises(KeyError, match="unknown slack policy"):
            override_slack_policy([self._scenario()], "nope")

    def test_override_rejects_live_only_policy_on_replay_scenarios(self):
        from repro.pipeline.scenario import override_slack_policy

        with pytest.raises(ValueError, match="cannot drive scenario"):
            override_slack_policy([self._scenario()], "flow-size")


# --------------------------------------------------------------------- #
# Live-mode scenario threading
# --------------------------------------------------------------------- #
class TestLiveModeScenarios:
    def _scenario(self, **overrides):
        from repro.experiments import ExperimentScale
        from repro.pipeline.scenario import Scenario

        return Scenario(name="x", scale=ExperimentScale.smoke(), **overrides)

    def test_slack_mode_is_validated_at_construction(self):
        with pytest.raises(ValueError, match="slack_mode"):
            self._scenario(slack_mode="nope")

    def test_live_slack_policy_materializes_only_in_live_mode(self):
        assert self._scenario().live_slack_policy() is None
        assert self._scenario(slack_policy="zero").live_slack_policy() is None
        live = self._scenario(slack_policy="zero", slack_mode="live")
        assert isinstance(live.live_slack_policy(), ConstantSlackPolicy)

    def test_live_mode_with_replay_only_policy_fails_loudly(self):
        scenario = self._scenario(slack_policy="deadline", slack_mode="live")
        with pytest.raises(ValueError, match="replay-only"):
            scenario.live_slack_policy()

    def test_live_recording_installs_the_policy(self, monkeypatch):
        """A live-mode recording must install the policy on the network and
        call it for every injected packet.  A counting policy detects the
        exact regression this pins: dropping the
        ``slack_policy=scenario.live_slack_policy()`` wiring in
        ``record_scenario_schedule`` makes the call list come back empty."""
        import repro.core.slack_policy as sp
        from repro.pipeline.experiment import record_scenario_schedule
        from repro.core.slack import SlackPolicy

        calls = []

        class CountingSlackPolicy(SlackPolicy):
            def on_packet_sent(self, packet, now):
                calls.append(packet.packet_id)
                packet.header.slack = 0.125

        monkeypatch.setitem(
            sp.POLICY_KINDS,
            "counting",
            sp.PolicyKind("counting", live_factory=CountingSlackPolicy),
        )
        monkeypatch.setitem(
            sp.SLACK_POLICIES._definitions,
            "counting",
            sp.SlackPolicyDef(name="counting", kind="counting"),
        )
        scenario = self._scenario(
            original="lstf", slack_policy="counting", slack_mode="live"
        )
        schedule = record_scenario_schedule(scenario)
        assert len(schedule) > 0
        # Every recorded data packet was stamped at send time by the policy.
        assert len(calls) >= len(schedule)

    def test_live_recording_offers_the_same_traffic(self):
        """Installing a live policy must not perturb the offered traffic:
        open-loop arrivals depend only on the seed, so plain and live
        recordings inject the identical packet set at identical times
        (what makes live and replay columns comparable)."""
        from repro.pipeline.experiment import record_scenario_schedule

        plain = self._scenario(original="lstf")
        live = self._scenario(
            original="lstf", slack_policy="zero", slack_mode="live"
        )
        schedule_plain = record_scenario_schedule(plain)
        schedule_live = record_scenario_schedule(live)
        assert len(schedule_plain) == len(schedule_live)
        ingress = lambda s: [r.ingress_time for r in s.records()]
        assert ingress(schedule_plain) == ingress(schedule_live)

    def test_live_replay_uses_the_modes_own_initializer(self, tmp_path):
        """Replaying a live-policy scenario initializes headers from the
        (policy-shaped) recording — no POLICY_COMPATIBLE_MODES gate, and no
        double application of the policy."""
        from repro.pipeline.cache import ScheduleCache
        from repro.pipeline.experiment import replay_scenario

        scenario = self._scenario(
            original="fifo", slack_policy="zero", slack_mode="live",
            replay_mode="omniscient",
        )
        # omniscient would be rejected for a replay-mode policy; in live
        # mode it is fine because the initializer comes from the recording.
        result = replay_scenario(scenario, cache=ScheduleCache(tmp_path))
        assert result.overdue_fraction == 0.0
