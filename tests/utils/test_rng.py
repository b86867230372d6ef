"""Tests for the seeded random source."""

import pytest

from repro.utils.rng import RandomState, spawn_rng


def test_same_seed_reproduces_sequence():
    a = RandomState(7)
    b = RandomState(7)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_different_seeds_diverge():
    a = RandomState(7)
    b = RandomState(8)
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_exponential_mean_is_close():
    rng = RandomState(1)
    samples = [rng.exponential(2.0) for _ in range(20000)]
    assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.05)


def test_exponential_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        RandomState(1).exponential(0.0)


def test_randint_bounds():
    rng = RandomState(3)
    values = {rng.randint(0, 4) for _ in range(200)}
    assert values == {0, 1, 2, 3}


def test_choice_picks_from_sequence():
    rng = RandomState(4)
    items = ["a", "b", "c"]
    assert all(rng.choice(items) in items for _ in range(50))


def test_choice_empty_raises():
    with pytest.raises(ValueError):
        RandomState(5).choice([])


def test_spawn_produces_independent_streams():
    parent = RandomState(6)
    child1 = parent.spawn()
    child2 = parent.spawn()
    assert [child1.uniform() for _ in range(3)] != [child2.uniform() for _ in range(3)]


def test_spawn_rng_default():
    fresh = spawn_rng(None, default_seed=9)
    assert isinstance(fresh, RandomState)
    assert fresh.seed == 9
    existing = RandomState(1)
    assert spawn_rng(existing) is existing
