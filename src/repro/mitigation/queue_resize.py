"""Shift: resizable SRAM issue queues (Section 3.3.2).

Disabling a quarter of the issue queue (transmission gates between the
sections) shortens its wordlines and taglines: *all* paths speed up, so
the PE-vs-f curve shifts right by the resize delay factor.  The cost is a
(usually small) CPI increase, which the decision rule below weighs using
the Eq 5 performance estimate — exactly the procedure of Section 4.2:
measure ``CPIcomp`` with both sizes at the start of the phase, compute
the core frequency each size would allow, and keep whichever yields more
performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..timing.speculation import PerfParams, performance


@dataclass(frozen=True)
class QueueDecision:
    """Outcome of the full-vs-3/4 issue-queue comparison."""

    use_full: bool
    f_full: float
    f_resized: float
    perf_full: float
    perf_resized: float

    @property
    def core_frequency(self) -> float:
        """Frequency of the winning configuration."""
        return self.f_full if self.use_full else self.f_resized


def choose_queue_size(
    f_full: float,
    params_full: PerfParams,
    f_resized: float,
    params_resized: PerfParams,
    error_rate: float,
) -> QueueDecision:
    """Pick the queue size that maximises estimated performance (Sec 4.2).

    Args:
        f_full: Core frequency achievable with the full queue.
        params_full: Eq 5 parameters measured with the full queue
            (``CPIcomp_1.00``).
        f_resized: Core frequency achievable with the 3/4 queue (higher,
            since the smaller queue's paths are faster).
        params_resized: Eq 5 parameters with the 3/4 queue
            (``CPIcomp_0.75``).
        error_rate: Expected errors/instruction at the chosen operating
            point (the controller targets ``PEMAX``).
    """
    perf_full = float(performance(f_full, error_rate, params_full))
    perf_resized = float(performance(f_resized, error_rate, params_resized))
    return QueueDecision(
        use_full=perf_full >= perf_resized,
        f_full=f_full,
        f_resized=f_resized,
        perf_full=perf_full,
        perf_resized=perf_resized,
    )
