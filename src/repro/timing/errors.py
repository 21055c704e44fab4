"""Timing-error rates as a function of frequency (paper Sec 2.2, Eq 4).

Given each stage's dynamic delay distribution ``N(m_i, s_i)`` and activity
``rho_i`` (exercises per instruction), the per-instruction error rate is::

    PE(f) = sum_i  rho_i * Q( (1/f - m_i) / s_i )          (Eq 4)

where ``Q`` is the standard normal survival function.  The inverse mapping
— the highest frequency whose error rate stays below a budget — is the
work-horse of the Freq algorithm (Section 4.2, :mod:`repro.core.optimizer`).
"""

from __future__ import annotations

import numpy as np

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
