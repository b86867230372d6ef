"""Tests for fault definitions and the fault-schedule registry."""

import pickle
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import (
    FAULT_KINDS,
    FAULTS,
    BernoulliLoss,
    FaultPlan,
    FaultScheduleDef,
    GilbertElliottLoss,
    JammingIntervals,
    LinkOutage,
    fault_from_dict,
)
from repro.faults.defs import DRAW_BLOCK, uniform_draws
from repro.utils.rng import RandomState


class TestFaultKinds:
    def test_all_kinds_registered(self):
        assert set(FAULT_KINDS) == {
            "link-outage", "bernoulli-loss", "gilbert-loss", "jamming"
        }

    def test_round_trip_every_kind(self):
        for fault in (
            LinkOutage(start=0.3, duration=0.1, links=("a->b",)),
            LinkOutage(start=0.1, duration=0.05, period=0.2, count=3),
            BernoulliLoss(rate=0.03),
            GilbertElliottLoss(p_enter_bad=0.05, p_exit_bad=0.5),
            JammingIntervals(start=0.2, duration=0.05, period=0.25, count=2),
        ):
            rebuilt = fault_from_dict(fault.to_dict())
            assert rebuilt == fault
            assert pickle.loads(pickle.dumps(fault)) == fault

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_dict({"kind": "meteor-strike"})

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            BernoulliLoss(rate=1.5)
        with pytest.raises(ValueError, match="start"):
            LinkOutage(start=1.0, duration=0.1)
        with pytest.raises(ValueError, match="period"):
            JammingIntervals(start=0.1, duration=0.1, count=2)  # no period
        with pytest.raises(ValueError, match="links"):
            BernoulliLoss(rate=0.1, links=["a->b"])  # list, not tuple
        with pytest.raises(ValueError, match="p_enter_bad"):
            GilbertElliottLoss(p_enter_bad=-0.1)

    def test_link_selector(self):
        assert BernoulliLoss(rate=0.1).matches("any->link")
        assert BernoulliLoss(rate=0.1, links=("*",)).matches("any->link")
        scoped = BernoulliLoss(rate=0.1, links=("a->b",))
        assert scoped.matches("a->b")
        assert not scoped.matches("b->a")

    def test_outage_windows_scale_with_horizon(self):
        outage = LinkOutage(start=0.4, duration=0.1, period=0.3, count=2)
        assert outage.outage_windows(10.0) == [(4.0, 5.0), (7.0, 8.0)]
        assert outage.outage_windows(1.0) == [
            (0.4, pytest.approx(0.5)), (pytest.approx(0.7), pytest.approx(0.8))
        ]

    def test_jamming_filter_is_window_pure(self):
        jam = JammingIntervals(start=0.2, duration=0.1)
        drop = jam.make_drop_filter(10.0, None)
        assert drop(None, 2.5) and not drop(None, 1.0) and not drop(None, 3.0)

    def test_zero_rate_loss_has_no_filter(self):
        assert BernoulliLoss(rate=0.0).make_drop_filter(1.0, RandomState(1)) is None

    def test_gilbert_chain_is_deterministic_per_seed(self):
        ge = GilbertElliottLoss(p_enter_bad=0.2, p_exit_bad=0.3)

        def pattern(seed):
            drop = ge.make_drop_filter(1.0, RandomState(seed))
            return [drop(None, 0.0) for _ in range(200)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)
        assert any(pattern(7))  # the chain does enter the bad state


class TestBlockDraws:
    """Loss filters read their uniforms ``DRAW_BLOCK`` at a time: the same
    values, in the same order, as one scalar ``uniform()`` call per draw."""

    def test_block_draws_equal_scalar_draws(self):
        count = 3 * DRAW_BLOCK + 7
        scalar = RandomState(11)
        expected = [scalar.uniform() for _ in range(count)]
        assert list(islice(uniform_draws(RandomState(11)), count)) == expected

    def test_bernoulli_filter_matches_scalar_draws(self):
        packets = 3 * DRAW_BLOCK + 1
        drop = BernoulliLoss(rate=0.3).make_drop_filter(1.0, RandomState(5))
        scalar = RandomState(5)
        expected = [scalar.uniform() < 0.3 for _ in range(packets)]
        assert [drop(None, 0.0) for _ in range(packets)] == expected

    @pytest.mark.parametrize(
        "loss_good, loss_bad", [(0.0, 1.0), (0.1, 0.6)], ids=["one-draw", "two-draws"]
    )
    def test_gilbert_filter_matches_scalar_draws(self, loss_good, loss_bad):
        """One draw per packet when the state's loss is 0 or 1, two when it
        is fractional; either way the draws cross >= 3 block boundaries."""
        ge = GilbertElliottLoss(
            p_enter_bad=0.2, p_exit_bad=0.3, loss_good=loss_good, loss_bad=loss_bad
        )
        scalar = RandomState(9)
        draws = []
        bad = False

        def uniform():
            draws.append(scalar.uniform())
            return draws[-1]

        def reference():
            nonlocal bad
            if bad:
                bad = not uniform() < 0.3
            else:
                bad = uniform() < 0.2
            loss = loss_bad if bad else loss_good
            return loss > 0.0 and (loss >= 1.0 or uniform() < loss)

        packets = 4 * DRAW_BLOCK
        drop = ge.make_drop_filter(1.0, RandomState(9))
        assert [drop(None, 0.0) for _ in range(packets)] == [
            reference() for _ in range(packets)
        ]
        assert len(draws) >= 4 * DRAW_BLOCK
        assert (len(draws) > 6 * DRAW_BLOCK) == (loss_good > 0.0)


class TestFaultScheduleRegistry:
    def test_builtin_schedules_registered(self):
        assert {
            "empty", "loss-0.1pct", "loss-1pct", "loss-5pct",
            "burst-loss", "outage-short", "outage-long", "jam-bursts",
        } <= set(FAULTS.names())

    def test_unknown_schedule_lists_known_names(self):
        with pytest.raises(KeyError, match="loss-5pct"):
            FAULTS.get("nope")

    def test_schedules_round_trip_and_pickle(self):
        for name in FAULTS.names():
            definition = FAULTS.get(name)
            assert FaultScheduleDef.from_dict(definition.to_dict()) == definition
            assert pickle.loads(pickle.dumps(definition)) == definition

    def test_empty_schedule_is_empty(self):
        empty = FAULTS.get("empty")
        assert empty.is_empty()
        assert empty.fingerprint() == []

    def test_fingerprint_excludes_name_and_description(self):
        a = FaultScheduleDef(name="a", faults=(BernoulliLoss(rate=0.1),))
        b = FaultScheduleDef(name="b", faults=(BernoulliLoss(rate=0.1),),
                             description="renamed")
        assert a.fingerprint() == b.fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            FaultScheduleDef(name="")
        with pytest.raises(ValueError, match="FaultDef"):
            FaultScheduleDef(name="x", faults=("not-a-fault",))


class TestFaultPlan:
    def test_empty_plan_fingerprint_is_none(self):
        """The cache-key contract: empty plans hash as absent."""
        assert FaultPlan(FAULTS.get("empty")).fingerprint() is None
        assert FaultPlan(FAULTS.get("empty"), seed=99).fingerprint() is None

    def test_nonempty_plan_fingerprint_carries_seed(self):
        plan = FaultPlan(FAULTS.get("loss-1pct"), seed=3)
        fingerprint = plan.fingerprint()
        assert fingerprint["seed"] == 3
        assert fingerprint["faults"] == FAULTS.get("loss-1pct").fingerprint()
        assert FaultPlan(FAULTS.get("loss-1pct"), seed=4).fingerprint() != fingerprint

    def test_plan_round_trip_and_pickle(self):
        plan = FaultPlan(FAULTS.get("jam-bursts"), seed=11)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert pickle.loads(pickle.dumps(plan)) == plan

    @given(st.text(min_size=1, max_size=30), st.text(max_size=30),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_every_faultless_schedule_fingerprints_as_absent(
        self, name, description, seed
    ):
        """Property: no matter how an empty schedule is named, described, or
        seeded, its plan fingerprint is ``None`` — so it can never perturb a
        cache key (bit-identity with no fault layer at all)."""
        definition = FaultScheduleDef(name=name, faults=(), description=description)
        assert definition.is_empty()
        assert FaultPlan(definition, seed=seed).fingerprint() is None
