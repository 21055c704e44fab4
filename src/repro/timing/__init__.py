"""VATS-style timing-error modelling and timing speculation (Secs 2.2, 3.1)."""

from .errors import (
    NEGLIGIBLE_PE,
    error_free_frequency,
    processor_error_rate,
    stage_error_rates,
)
from .paths import StageDelays, StageModifiers, stage_delays
from .speculation import (
    CheckerConfig,
    PerfParams,
    effective_cpi,
    miss_penalty_cycles,
    optimal_on_curve,
    performance,
)

__all__ = [
    "CheckerConfig",
    "NEGLIGIBLE_PE",
    "PerfParams",
    "StageDelays",
    "StageModifiers",
    "effective_cpi",
    "error_free_frequency",
    "miss_penalty_cycles",
    "optimal_on_curve",
    "performance",
    "processor_error_rate",
    "stage_delays",
]
