"""ABB / ASV actuation knobs and the threshold-voltage law (paper Eq. 9).

Eq. 9 of the paper captures how the *effective* threshold voltage moves
with temperature, supply voltage (DIBL) and body bias::

    Vt = Vt0 + k1*(T - T0) + k2*Vdd + k3*Vbb

We use the differential form ``k2*(Vdd - Vdd_ref)`` so that ``Vt0`` is the
threshold voltage at the reference temperature *and* reference supply,
which matches how the tester measures it (Section 4.1).

Sign conventions:

* ``k1 < 0``: threshold voltage drops as temperature rises.
* ``k2 < 0``: raising ``Vdd`` lowers ``Vt`` (drain-induced barrier
  lowering), so ASV speeds gates up both through overdrive and DIBL.
* ``Vbb > 0`` is forward body bias (FBB).  ``k3 < 0``: FBB lowers ``Vt``
  (faster, leakier); reverse body bias (``Vbb < 0``) raises it.

The module also encodes the actuation ranges of Figure 7(a):
frequency 2.4 GHz upward in 100 MHz steps, ``Vdd`` 800-1200 mV in 50 mV
steps, ``Vbb`` -500..500 mV in 50 mV steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import ghz, mhz, millivolts


@dataclass(frozen=True)
class VtSensitivities:
    """Coefficients of the threshold-voltage law (paper Eq. 9)."""

    k1: float = -1.2e-3  # V per kelvin
    k2: float = -0.12  # V per volt of Vdd (DIBL)
    k3: float = -0.18  # V per volt of body bias
    t_ref: float = 373.15  # kelvin (100 C); Vt0 is quoted here, like Fig 7(a)
    vdd_ref: float = 1.0  # volts; supply at which Vt0 is quoted


DEFAULT_VT_SENSITIVITIES = VtSensitivities()


def threshold_voltage(
    vt0,
    temp,
    vdd,
    vbb=0.0,
    sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES,
):
    """Return the effective ``Vt`` at an operating point (paper Eq. 9).

    Args:
        vt0: Threshold voltage at ``sens.t_ref`` kelvin and
            ``sens.vdd_ref`` volts with zero body bias.
        temp: Device temperature in kelvin.
        vdd: Supply voltage in volts.
        vbb: Body-bias voltage in volts (positive = forward bias).
        sens: Sensitivity coefficients.
    """
    vt0 = np.asarray(vt0, dtype=float)
    temp = np.asarray(temp, dtype=float)
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    return (
        vt0
        + sens.k1 * (temp - sens.t_ref)
        + sens.k2 * (vdd - sens.vdd_ref)
        + sens.k3 * vbb
    )


@dataclass(frozen=True)
class KnobRanges:
    """Legal actuation ranges and step sizes (Figure 7(a))."""

    f_min: float = ghz(2.4)
    f_max: float = ghz(5.6)
    f_step: float = mhz(100)
    vdd_min: float = millivolts(800)
    vdd_max: float = millivolts(1200)
    vdd_step: float = millivolts(50)
    vbb_min: float = millivolts(-500)
    vbb_max: float = millivolts(500)
    vbb_step: float = millivolts(50)

    def vdd_levels(self) -> np.ndarray:
        """Return the legal supply-voltage grid in volts (ascending)."""
        count = int(round((self.vdd_max - self.vdd_min) / self.vdd_step)) + 1
        return self.vdd_min + self.vdd_step * np.arange(count)

    def vbb_levels(self) -> np.ndarray:
        """Return the legal body-bias grid in volts (ascending)."""
        count = int(round((self.vbb_max - self.vbb_min) / self.vbb_step)) + 1
        return self.vbb_min + self.vbb_step * np.arange(count)

    def clamp_frequency(self, freq: float) -> float:
        """Snap ``freq`` down to the nearest legal frequency step."""
        if freq <= self.f_min:
            return self.f_min
        steps = int(np.floor((freq - self.f_min) / self.f_step + 1e-9))
        return min(self.f_min + steps * self.f_step, self.f_max)


DEFAULT_KNOB_RANGES = KnobRanges()


@dataclass(frozen=True)
class OperatingPoint:
    """One subsystem's actuation state: supply and body-bias voltages."""

    vdd: float = 1.0
    vbb: float = 0.0

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ValueError("Vdd must be positive")


NOMINAL_OPERATING_POINT = OperatingPoint()
