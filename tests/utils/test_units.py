"""Tests for unit conversions."""

import pytest

from repro.utils import units


def test_bandwidth_helpers_scale_correctly():
    assert units.mbps(1) == 1e6
    assert units.gbps(1) == 1e9
    assert units.gbps(10) == 10e9


def test_time_helpers_scale_correctly():
    assert units.milliseconds(1) == pytest.approx(1e-3)
    assert units.microseconds(1) == pytest.approx(1e-6)
    assert units.milliseconds(2.5) == pytest.approx(2.5e-3)


def test_bits_of_bytes():
    assert units.bits(1500) == 12000


def test_transmission_delay_of_full_packet_on_gigabit():
    # 1500 bytes on 1 Gbps = 12 microseconds (the paper's T for its default setup).
    delay = units.transmission_delay(1500, units.gbps(1))
    assert delay == pytest.approx(12e-6)


def test_transmission_delay_scales_inversely_with_bandwidth():
    slow = units.transmission_delay(1460, units.mbps(10))
    fast = units.transmission_delay(1460, units.mbps(100))
    assert slow == pytest.approx(10 * fast)


def test_transmission_delay_zero_size_is_zero():
    assert units.transmission_delay(0, units.gbps(1)) == 0.0


def test_transmission_delay_rejects_bad_inputs():
    with pytest.raises(ValueError):
        units.transmission_delay(1500, 0)
    with pytest.raises(ValueError):
        units.transmission_delay(-1, units.gbps(1))
