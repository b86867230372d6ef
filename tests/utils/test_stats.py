"""Tests for the statistics helpers."""

import math

import pytest

from repro.utils.stats import (
    ccdf_points,
    cdf_points,
    jain_fairness_index,
    left_sum,
    percentile,
    summarize,
)


class TestLeftSum:
    def test_is_the_running_total_on_every_python(self):
        # A compensated sum (builtin sum() from 3.12 on, math.fsum) recovers
        # the 1.0 that one-rounding-per-addition loses.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        values = [0.1 * k for k in range(1, 50)]
        total = 0.0
        for value in values:
            total += value
        assert left_sum(iter(values)) == total
        assert left_sum([]) == 0.0


class TestSummarize:
    def test_mean_stddev_and_ci(self):
        # Samples 1..5: mean 3, sample stddev sqrt(2.5), t(4 df) = 2.776.
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)
        assert summary.stddev == pytest.approx(math.sqrt(2.5))
        assert summary.ci95 == pytest.approx(2.776 * math.sqrt(2.5) / math.sqrt(5))

    def test_single_sample_has_zero_spread(self):
        summary = summarize([7.0])
        assert (summary.count, summary.mean) == (1, 7.0)
        assert summary.stddev == 0.0
        assert summary.ci95 == 0.0

    def test_identical_samples_have_zero_ci(self):
        summary = summarize([2.0, 2.0, 2.0])
        assert summary.mean == 2.0
        assert summary.ci95 == 0.0

    def test_large_samples_use_normal_approximation(self):
        values = [float(i % 7) for i in range(100)]
        summary = summarize(values)
        assert summary.ci95 == pytest.approx(1.96 * summary.stddev / 10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_fairness_index([5.0] * 10) == pytest.approx(1.0)

    def test_single_user_hogging_gives_one_over_n(self):
        allocations = [0.0] * 9 + [100.0]
        assert jain_fairness_index(allocations) == pytest.approx(0.1)

    def test_empty_or_zero_allocations(self):
        assert jain_fairness_index([]) == 0.0
        assert jain_fairness_index([0.0, 0.0]) == 0.0

    def test_index_is_scale_invariant(self):
        allocations = [1.0, 2.0, 3.0, 4.0]
        assert jain_fairness_index(allocations) == pytest.approx(
            jain_fairness_index([10 * a for a in allocations])
        )


class TestPercentileAndMeans:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 101)
        with pytest.raises(ValueError):
            percentile([1, 2], -0.5)
        with pytest.raises(ValueError):
            percentile([], 50)

    # Pinned edge behavior: the QuantileSketch ε contract is stated relative
    # to this function, so these edges are part of the public contract
    # (docs/scale.md).
    def test_percentile_empty_raises_for_every_q(self):
        for q in (0, 50, 100):
            with pytest.raises(ValueError):
                percentile([], q)

    def test_percentile_q0_is_exact_min(self):
        values = [3.1, 0.2, 7.7, 0.2000000001]
        assert percentile(values, 0) == min(values)

    def test_percentile_q100_is_exact_max(self):
        values = [3.1, 0.2, 7.7, 7.6999999999]
        assert percentile(values, 100) == max(values)

    def test_percentile_single_element_for_every_q(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([42.5], q) == 42.5


class TestCdf:
    def test_cdf_points_are_monotone_and_end_at_one(self):
        xs, cdf = cdf_points([3.0, 1.0, 2.0, 2.0])
        assert xs == sorted(xs)
        assert cdf[-1] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_ccdf_is_complement(self):
        values = [1.0, 2.0, 3.0, 4.0]
        xs, cdf = cdf_points(values)
        xs2, ccdf = ccdf_points(values)
        assert xs == xs2
        for c, cc in zip(cdf, ccdf):
            assert c + cc == pytest.approx(1.0)

    def test_empty_input(self):
        assert cdf_points([]) == ([], [])
