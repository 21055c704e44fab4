"""Unit-conversion helpers."""

import pytest

from repro.units import (
    Q_OVER_K,
    celsius_to_kelvin,
    ghz,
    mhz,
    millivolts,
)


def test_celsius_to_kelvin_known_points():
    assert celsius_to_kelvin(0.0) == pytest.approx(273.15)
    assert celsius_to_kelvin(100.0) == pytest.approx(373.15)


def test_frequency_helpers():
    assert ghz(4.0) == pytest.approx(4e9)
    assert mhz(100) == pytest.approx(1e8)
    assert ghz(1.0) == mhz(1000)


def test_millivolts():
    assert millivolts(150) == pytest.approx(0.150)
    assert millivolts(-500) == pytest.approx(-0.5)


def test_q_over_k_magnitude():
    # q/k = 11604.5 K/V is a physical constant; a typo here would skew
    # every leakage number in the library.
    assert Q_OVER_K == pytest.approx(11604.5, rel=1e-4)
