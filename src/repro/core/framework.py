"""The EVAL framework proper: the PE-vs-f curve algebra of Figure 2.

EVAL's first contribution is a way of *thinking*: every mitigation
technique is a transform of the error-rate-vs-frequency curve.

* :func:`tolerate` — Figure 2(a): with a checker, ride the curve to the
  performance-optimal frequency instead of stopping at ``f_var``.
* :func:`tilt` — Figure 2(b): reduce the curve's slope without moving
  ``f_var`` (low-slope FU replicas).
* :func:`shift` — Figure 2(c): move the whole curve right (queue
  downsizing).
* :func:`reshape` — Figure 2(d): push the bottom right and the top left
  (per-subsystem ASV/ABB under the Freq/Power algorithms of
  :mod:`repro.core.optimizer`).
* *adapt* — Figure 2(e): re-run the choice as the application's curve
  moves between phases; that is the whole of Section 4
  (:mod:`repro.core.adaptation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timing.errors import processor_error_rate
from ..timing.paths import StageDelays
from ..timing.speculation import PerfParams, optimal_on_curve, performance


def tilt(delays: StageDelays, sigma_factor: float, which=None) -> StageDelays:
    """Scale the dynamic spread while preserving the error-free point.

    Args:
        delays: Input stage delays.
        sigma_factor: Multiplier on ``sigma`` (> 1 softens the onset,
            which *raises* the frequency reachable at a given tolerable
            PE, even though the curve starts erring at the same f_var).
        which: Optional boolean mask choosing which stages to tilt.
    """
    if sigma_factor <= 0.0:
        raise ValueError("sigma_factor must be positive")
    mask = np.ones_like(delays.sigma, dtype=bool) if which is None else which
    free = delays.mean + delays.z_free * delays.sigma
    sigma = np.where(mask, delays.sigma * sigma_factor, delays.sigma)
    mean = free - delays.z_free * sigma
    return StageDelays(mean=mean, sigma=sigma, z_free=delays.z_free)


def shift(delays: StageDelays, delay_factor: float, which=None) -> StageDelays:
    """Speed every path up by a common factor (curve moves right)."""
    if delay_factor <= 0.0:
        raise ValueError("delay_factor must be positive")
    mask = np.ones_like(delays.mean, dtype=bool) if which is None else which
    return StageDelays(
        mean=np.where(mask, delays.mean * delay_factor, delays.mean),
        sigma=np.where(mask, delays.sigma * delay_factor, delays.sigma),
        z_free=delays.z_free,
    )


def reshape(
    delays: StageDelays, slow_factor: float, fast_factor: float
) -> StageDelays:
    """Speed up the slow stages and slow down the fast ones (Fig 2(d)).

    The median error-free stage frequency splits "slow" from "fast";
    ``slow_factor`` (< 1) speeds the slow group up, ``fast_factor`` (> 1)
    relaxes the fast group to reclaim its energy.
    """
    free = delays.error_free_period()
    slow = free > np.median(free)
    shifted = shift(delays, slow_factor, which=slow)
    return shift(shifted, fast_factor, which=~slow)


@dataclass(frozen=True)
class ToleranceCurve:
    """Fig 2(a): performance and error rate along a frequency sweep."""

    freqs: np.ndarray
    error_rates: np.ndarray
    perfs: np.ndarray
    f_var: float  # where errors begin
    f_opt: float  # performance-optimal frequency
    perf_opt: float


def tolerate(
    delays: StageDelays, rho: np.ndarray, params: PerfParams, freqs: np.ndarray
) -> ToleranceCurve:
    """Trace the Perf(f) curve of Eq 5 over a frequency sweep."""
    freqs = np.asarray(freqs, dtype=float)
    pe = processor_error_rate(freqs[:, None], delays, rho)
    perfs = performance(freqs, pe, params)
    f_opt, perf_opt = optimal_on_curve(freqs, pe, params)
    f_var = float(delays.error_free_frequency().min())
    return ToleranceCurve(
        freqs=freqs,
        error_rates=pe,
        perfs=perfs,
        f_var=f_var,
        f_opt=f_opt,
        perf_opt=perf_opt,
    )
