"""Device-level circuit models: delay, leakage, dynamic power, ABB/ASV.

These are the paper's Eqs. 1-3 and 7-9 — the physical substrate every other
layer (variation maps, timing errors, thermal solver, optimisation) builds
on.
"""

from .delay import (
    DEFAULT_DELAY_PARAMS,
    DelayParams,
    delay_factor,
    gate_delay,
)
from .knobs import (
    DEFAULT_KNOB_RANGES,
    DEFAULT_VT_SENSITIVITIES,
    NOMINAL_OPERATING_POINT,
    KnobRanges,
    OperatingPoint,
    VtSensitivities,
    threshold_voltage,
)
from .leakage import IDEALITY_FACTOR, static_power

__all__ = [
    "DEFAULT_DELAY_PARAMS",
    "DEFAULT_KNOB_RANGES",
    "DEFAULT_VT_SENSITIVITIES",
    "DelayParams",
    "IDEALITY_FACTOR",
    "KnobRanges",
    "NOMINAL_OPERATING_POINT",
    "OperatingPoint",
    "VtSensitivities",
    "delay_factor",
    "gate_delay",
    "static_power",
    "threshold_voltage",
]
