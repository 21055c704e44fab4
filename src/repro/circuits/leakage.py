"""Subthreshold leakage (static power) model (paper Eqs. 2 and 8).

The paper models per-gate static power as::

    Psta  ∝  Vdd * T^2 * exp(-q * Vt / (k * T))

We add the standard subthreshold ideality factor ``n`` (the paper folds it
into the proportionality constant): the exponential becomes
``exp(-q*Vt / (n*k*T))``.  Without it, a realistic ``Vt`` spread produces
unphysically extreme leakage ratios.
"""

from __future__ import annotations

import numpy as np

from ..units import Q_OVER_K

#: Subthreshold ideality factor ``n`` (dimensionless, typically 1.3-1.7).
IDEALITY_FACTOR: float = 1.5


def static_power(ksta, vdd, temp, vt, ideality: float = IDEALITY_FACTOR):
    """Return static power in watts (paper Eq. 8).

    Args:
        ksta: Per-subsystem leakage constant (set by CAD tools from the
            number/type of devices; unaffected by variation).
        vdd: Supply voltage in volts.
        temp: Temperature in kelvin.
        vt: Threshold voltage in volts.
        ideality: Subthreshold ideality factor ``n``.
    """
    vdd = np.asarray(vdd, dtype=float)
    temp = np.asarray(temp, dtype=float)
    vt = np.asarray(vt, dtype=float)
    exponent = -Q_OVER_K * vt / (ideality * temp)
    return ksta * vdd * temp**2 * np.exp(exponent)
