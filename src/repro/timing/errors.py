"""Timing-error rates as a function of frequency (paper Sec 2.2, Eq 4).

Given each stage's dynamic delay distribution ``N(m_i, s_i)`` and activity
``rho_i`` (exercises per instruction), the per-instruction error rate is::

    PE(f) = sum_i  rho_i * Q( (1/f - m_i) / s_i )          (Eq 4)

where ``Q`` is the standard normal survival function.  The inverse mapping
— the highest frequency whose error rate stays below a budget — is the
work-horse of the Freq algorithm (Section 4.2).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from ..kernels import timing_error_cdf
from .paths import StageDelays

#: Error rates below this are treated as exactly zero ("error-free").
NEGLIGIBLE_PE: float = 1e-300


def stage_error_rates(freq, delays: StageDelays, rho) -> np.ndarray:
    """Per-stage errors/instruction at frequency ``freq`` (hertz).

    ``freq`` broadcasts against the leading axes of the delay arrays;
    the trailing axis indexes subsystems.  The evaluation routes
    through the fused ``timing_error_cdf`` kernel (bit-identical to the
    unfused ``rho * Q((1/f - m)/s)`` composition).
    """
    freq = np.asarray(freq, dtype=float)
    if np.any(freq <= 0.0):
        raise ValueError("frequency must be positive")
    return timing_error_cdf(freq, delays.mean, delays.sigma, rho)


def processor_error_rate(freq, delays: StageDelays, rho) -> np.ndarray:
    """Whole-processor errors/instruction: Eq 4's sum over stages."""
    return stage_error_rates(freq, delays, rho).sum(axis=-1)


def error_free_frequency(delays: StageDelays) -> float:
    """The safe frequency ``f_var``: min over stages of 1/(m + z_free*s).

    This is what the Baseline environment (no checker) must respect.
    """
    return float(delays.error_free_frequency().min(axis=-1))


def frequency_at_stage_budget(delays: StageDelays, rho, pe_budget) -> np.ndarray:
    """Per-stage max frequency whose error rate stays within ``pe_budget``.

    Inverts ``rho * Q(z) = pe_budget`` for each stage: the allowed z-score
    is ``Qinv(pe_budget / rho)`` and the period ``m + z*s``.  The z-score
    is clamped to ``z_free`` from above — a stage is never *required* to
    run slower than its error-free point — and stages with ``rho == 0``
    are unconstrained (infinite frequency).

    Returns an array shaped like the broadcast of the delay arrays.
    """
    rho = np.asarray(rho, dtype=float)
    pe_budget = np.asarray(pe_budget, dtype=float)
    if np.any(pe_budget <= 0.0):
        raise ValueError("pe_budget must be positive")
    with np.errstate(divide="ignore"):
        quantile = np.where(rho > 0.0, pe_budget / np.maximum(rho, 1e-300), 1.0)
    # Q(z) = quantile  =>  z = ndtri(1 - quantile); clamp into [?, z_free].
    z = np.where(
        quantile >= 1.0, -np.inf, ndtri(1.0 - np.minimum(quantile, 1.0 - 1e-16))
    )
    z = np.minimum(z, delays.z_free)
    period = delays.mean + z * delays.sigma
    with np.errstate(divide="ignore"):
        freq = np.where(
            (rho > 0.0) & (quantile < 1.0), 1.0 / period, np.inf
        )
    return freq


def max_frequency_under_budget(delays: StageDelays, rho, pe_budget) -> np.ndarray:
    """Max core frequency with *every* stage within its own ``pe_budget``.

    This is the conservative per-subsystem budget split of Section 4.2
    (each subsystem receives ``PEMAX / n``): the core frequency is the
    minimum of the per-stage maxima.
    """
    return frequency_at_stage_budget(delays, rho, pe_budget).min(axis=-1)
