"""Bit-identity oracle for the fused kernels in :mod:`repro.kernels`.

Each function here is the plain composition of the leaf functions a
fused kernel replaces — ``threshold_voltage`` (Eq 9), ``static_power``
(Eq 8), the clamped Eq 6 update and Eq 4's ``rho * Q(z)`` — with the
same signature as the kernel.  ``tests/test_kernels.py`` asserts the
kernels bitwise equal to these, and ``benchmarks/bench_kernels.py``
times the kernels against them.  The error-rate oracle evaluates
``Q`` through ``scipy.stats.norm.sf``, so it shares no code with the
kernel it checks.

:func:`installed` swaps the oracles in for the fused kernels at every
``repro`` call site for a scope, so whole solver and pipeline results
can be compared as well.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np
from scipy.stats import norm

from repro import kernels
from repro.circuits.knobs import VtSensitivities, threshold_voltage
from repro.circuits.leakage import IDEALITY_FACTOR, static_power
from repro.kernels import T_RUNAWAY


def vt_and_static_power(
    vt0,
    vdd,
    vbb,
    temp,
    ksta,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
):
    vt = threshold_voltage(vt0, temp, vdd, vbb, sens)
    p_sta = static_power(ksta, vdd, temp, vt, ideality)
    if power_factor is not None:
        p_sta = p_sta * power_factor
    return vt, p_sta


def thermal_step(
    vt0_leak,
    vdd,
    vbb,
    temp,
    ksta,
    rth,
    p_dyn,
    t_heatsink,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
    t_runaway: float = T_RUNAWAY,
    compute_delta: bool = False,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
):
    # ``work`` is the fused kernel's scratch; the oracle needs none, and
    # accepts it only so that solver loops run unchanged under
    # :func:`installed`.
    _, p_sta = vt_and_static_power(
        vt0_leak, vdd, vbb, temp, ksta, sens, ideality, power_factor
    )
    new_temp = np.minimum(t_heatsink + rth * (p_dyn + p_sta), t_runaway)
    delta = None
    if compute_delta:
        delta = np.max(
            np.abs(new_temp - np.asarray(temp, dtype=float)), axis=-1
        )
    if out is not None:
        np.copyto(out, new_temp)
        new_temp = out
    return new_temp, delta


def timing_error_cdf(freq, mean, sigma, rho):
    freq = np.asarray(freq, dtype=float)
    period = 1.0 / freq
    z = (period - np.asarray(mean, dtype=float)) / np.asarray(
        sigma, dtype=float
    )
    return np.asarray(rho, dtype=float) * norm.sf(z)


#: Kernel name -> its oracle.
ORACLES = {
    "vt_and_static_power": vt_and_static_power,
    "thermal_step": thermal_step,
    "timing_error_cdf": timing_error_cdf,
}


@contextmanager
def installed() -> Iterator[None]:
    """Route every imported ``repro`` call site of a kernel to its oracle.

    Call sites bind the kernels by ``from ..kernels import name``, so the
    swap rebinds that name in each loaded ``repro`` module that holds the
    fused function (``repro.kernels`` itself keeps it).
    """
    fused = {name: getattr(kernels, name) for name in ORACLES}
    swapped = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.") or module is kernels:
            continue
        for name, oracle in ORACLES.items():
            if getattr(module, name, None) is fused[name]:
                setattr(module, name, oracle)
                swapped.append((module, name))
    try:
        yield
    finally:
        for module, name in swapped:
            setattr(module, name, fused[name])
