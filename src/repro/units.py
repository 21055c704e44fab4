"""Physical constants and unit helpers shared across the library.

The paper (and therefore this reproduction) works in a small set of units:

* frequency in hertz (nominal core clock: 4 GHz),
* voltage in volts (nominal ``Vdd``: 1 V),
* temperature in kelvin internally (the paper quotes Celsius),
* power in watts (per-core budget: 30 W),
* delay in seconds (nominal cycle: 250 ps).

Everything that converts between the paper's quoted numbers and internal
units lives here so the rest of the code never hard-codes conversions.
"""

from __future__ import annotations

# Boltzmann constant ratio q/k in kelvin per volt.  Used by the subthreshold
# leakage exponential ``exp(-q*Vt / (n*k*T))`` (paper Eq. 2 / Eq. 8).
Q_OVER_K: float = 11604.5

# Celsius <-> kelvin offset.
KELVIN_OFFSET: float = 273.15

GHZ: float = 1e9
MHZ: float = 1e6
MILLI: float = 1e-3


def celsius_to_kelvin(temp_c: float) -> float:
    """Convert a temperature from Celsius to kelvin."""
    return temp_c + KELVIN_OFFSET


def ghz(value: float) -> float:
    """Return ``value`` gigahertz expressed in hertz."""
    return value * GHZ


def mhz(value: float) -> float:
    """Return ``value`` megahertz expressed in hertz."""
    return value * MHZ


def millivolts(value: float) -> float:
    """Return ``value`` millivolts expressed in volts."""
    return value * MILLI
