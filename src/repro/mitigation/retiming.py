"""Dynamic pipeline retiming: the related-work baseline (Section 7).

The paper positions EVAL against *dynamic retiming* of pipelines
(ReCycle-style [33, 34]): instead of tolerating errors, retiming
redistributes clocking slack among pipeline stages — donating the margin
of fast stages to slow ones through programmable skews — and always clocks
the processor at a safe (error-free) frequency.  The paper reports that
this family gains 10-20% where EVAL gains ~40%.

Our model: slack can flow freely between stages *within a pipeline loop*,
but a loop's total latency cannot shrink below the sum of its stage
delays; the achievable period is therefore, per loop, the mean stage delay
over the loop (instead of the max over all stages), and the processor
period is the worst loop's mean — plus any single stage that sits in no
loop with donors.  This captures both the benefit (averaging within
loops) and the fundamental limit (no help across the slowest loop) of
retiming, without modelling individual skew registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..chip.chip import Core
from ..timing.paths import StageDelays

#: Pipeline loops over the Figure 7(b) subsystems: slack can be shuffled
#: inside each loop (the recurrence paths that bound retiming).
DEFAULT_LOOPS: Tuple[Tuple[str, ...], ...] = (
    ("Icache", "ITLB", "BranchPred", "Decode"),  # fetch/branch loop
    ("IntMap", "IntQ", "IntReg", "IntALU"),  # int issue-execute loop
    ("FPMap", "FPQ", "FPReg", "FPUnit"),  # fp issue-execute loop
    ("LdStQ", "DTLB", "Dcache"),  # load-use loop
)


@dataclass(frozen=True)
class RetimingResult:
    """Outcome of retiming one core's error-free stage delays."""

    f_baseline: float  # safe frequency without retiming (1 / worst stage)
    f_retimed: float  # safe frequency with intra-loop slack borrowing
    limiting_loop: Tuple[str, ...]  # the loop that bounds the retimed clock
    loop_periods: Dict[Tuple[str, ...], float]


def retime(
    core: Core,
    delays: StageDelays,
    loops: Sequence[Tuple[str, ...]] = DEFAULT_LOOPS,
) -> RetimingResult:
    """Compute the retimed safe frequency for a core's stage delays.

    Args:
        core: The core (provides the name -> index mapping).
        delays: Error-free stage delays (the retiming baseline never
            speculates, so the ``z_free`` period of each stage is what the
            skews must accommodate).
        loops: Stage groupings within which slack may be redistributed.
    """
    periods = delays.error_free_period()
    index_of = core.floorplan.index_of
    covered = set()
    loop_periods: Dict[Tuple[str, ...], float] = {}
    for loop in loops:
        indices = [index_of(name) for name in loop]
        covered.update(indices)
        loop_periods[tuple(loop)] = float(np.mean(periods[indices]))

    # Stages outside every loop have no donors: they keep their own period.
    lonely = [i for i in range(core.n_subsystems) if i not in covered]
    for i in lonely:
        loop_periods[(core.names[i],)] = float(periods[i])

    limiting_loop = max(loop_periods, key=loop_periods.get)
    period_retimed = loop_periods[limiting_loop]
    return RetimingResult(
        f_baseline=float(1.0 / periods.max()),
        f_retimed=float(1.0 / period_retimed),
        limiting_loop=limiting_loop,
        loop_periods=loop_periods,
    )
