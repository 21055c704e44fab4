"""Alpha-power-law gate delay model (paper Eq. 1).

The paper uses the Sakurai-Newton alpha-power law [25]::

    Tg  ∝  Vdd * Leff / (mu(T) * (Vdd - Vt)^alpha)

where carrier mobility ``mu`` degrades with temperature as
``(T / T_ref)^-theta``.  All delays in this module are *relative*: the
library works with delay factors normalised to a nominal operating point,
which is how the paper reasons about frequency (everything is reported
relative to the no-variation 4 GHz design).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DelayParams:
    """Parameters of the alpha-power-law delay model.

    Attributes:
        alpha: Velocity-saturation exponent of the alpha-power law.  The
            paper cites Sakurai-Newton.  We use 2.1: near the
            long-channel square law and the deeply velocity-saturated 1.2-1.3,
            reflecting that a stage delay mixes gate and interconnect terms
            and matching the supply-voltage sensitivity the paper's ASV
            results imply.
        mobility_temp_exponent: Exponent ``theta`` in the mobility
            degradation ``mu(T) = mu0 * (T/T_ref)^-theta``.
        t_ref: Reference temperature in kelvin at which ``mu = mu0``.
    """

    alpha: float = 2.1
    mobility_temp_exponent: float = 1.5
    t_ref: float = 333.15  # 60 C, a typical operating temperature


DEFAULT_DELAY_PARAMS = DelayParams()


def gate_delay(
    vdd,
    vt,
    leff,
    temp,
    params: DelayParams = DEFAULT_DELAY_PARAMS,
):
    """Return gate delay in arbitrary units (paper Eq. 1).

    Accepts scalars or numpy arrays (broadcasting applies).

    Args:
        vdd: Supply voltage in volts.
        vt: Threshold voltage in volts.  Must satisfy ``vt < vdd``.
        leff: Effective channel length, relative to nominal (1.0 = nominal).
        temp: Device temperature in kelvin.
        params: Alpha-power-law parameters.

    Raises:
        ValueError: If any gate has ``vdd <= vt`` (the transistor would not
            switch, so the delay model does not apply).
    """
    vdd = np.asarray(vdd, dtype=float)
    vt = np.asarray(vt, dtype=float)
    overdrive = vdd - vt
    if np.any(overdrive <= 0.0):
        raise ValueError(
            "gate_delay requires Vdd > Vt everywhere; got min overdrive "
            f"{float(np.min(overdrive)):.4f} V"
        )
    temp = np.asarray(temp, dtype=float)
    mobility = (temp / params.t_ref) ** (-params.mobility_temp_exponent)
    return vdd * np.asarray(leff, dtype=float) / (mobility * overdrive**params.alpha)


def delay_factor(
    vdd,
    vt,
    leff,
    temp,
    *,
    vdd_nom: float,
    vt_nom: float,
    temp_nom: float,
    leff_nom: float = 1.0,
    params: DelayParams = DEFAULT_DELAY_PARAMS,
):
    """Return gate delay relative to a nominal operating point.

    A value of 1.0 means the gate is exactly as fast as the nominal design
    point; values above 1.0 mean the gate is slower (e.g. due to a high
    local ``Vt``, long ``Leff``, low ``Vdd`` or high temperature).
    """
    nominal = gate_delay(vdd_nom, vt_nom, leff_nom, temp_nom, params)
    return gate_delay(vdd, vt, leff, temp, params) / nominal
