"""Retuning cycles (paper Section 4.3.3, Figure 6 right-hand side).

After the controller picks a configuration, sensors may log a constraint
violation (error-rate within microseconds, thermal/power within a thermal
time constant).  The system then adjusts *frequency only* — it does not
re-run the controller:

* on violation: decrease ``f`` exponentially (1, 2, 4, 8... steps of
  100 MHz) until the violation clears, then ramp up in single steps to
  just below the violating frequency;
* with no violation: probe one step up; if it immediately violates, the
  controller's output was near-optimal (*NoChange*), otherwise keep
  ramping (*LowFreq*).

The five possible outcomes (Figure 13) are the initial violation kind or
one of NoChange / LowFreq.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from ..chip.chip import Core, CoreLanes
from ..circuits.knobs import DEFAULT_KNOB_RANGES, KnobRanges
from .state import (
    Configuration,
    EvaluatedState,
    Violation,
    evaluate_configurations,
)


class Outcome(Enum):
    """Figure 13 outcome classes for one controller invocation."""

    NO_CHANGE = "NoChange"
    LOW_FREQ = "LowFreq"
    ERROR = "Error"
    TEMP = "Temp"
    POWER = "Power"


_VIOLATION_OUTCOME = {
    Violation.ERROR: Outcome.ERROR,
    Violation.TEMPERATURE: Outcome.TEMP,
    Violation.POWER: Outcome.POWER,
}


@dataclass(frozen=True)
class RetuningResult:
    """Final state after the retuning cycles converge."""

    config: Configuration
    state: EvaluatedState
    outcome: Outcome
    initial_violation: Violation
    f_initial: float
    steps: int  # total frequency adjustments performed


def retune_batched(
    cores: Sequence[Core],
    configs: Sequence[Configuration],
    activities: Sequence[np.ndarray],
    rhos: Sequence[np.ndarray],
    *,
    pe_max: float,
    checker: bool = True,
    knob_ranges: KnobRanges = DEFAULT_KNOB_RANGES,
    t_heatsink: Optional[float] = None,
    max_adjustments: int = 64,
) -> List[RetuningResult]:
    """The Section 4.3.3 retuning cycles over many (core, config) lanes.

    On a violation a lane backs off exponentially (1, 2, 4, 8 steps per
    move) until the violation clears, then ramps up in single steps to
    just below the violating frequency.  Without one it probes a step up:
    *NoChange* if that violates at once, else it keeps ramping
    (*LowFreq*).  Each round of checks across the still-active lanes is
    one :func:`~repro.core.state.evaluate_configurations` call, and a
    lane retires from each loop exactly when it would alone.

    All lanes may share one core (pass ``[core] * n``) or carry distinct
    cores of one population; :meth:`~repro.chip.chip.CoreLanes.gather`
    builds their lane model once.
    """
    n_lanes = len(configs)
    cores = list(cores)
    if len(cores) != n_lanes:
        raise ValueError("need one core per configuration lane")
    if n_lanes == 0:
        return []
    population = CoreLanes.gather(cores)

    step = knob_ranges.f_step
    f_min, f_max = knob_ranges.f_min, knob_ranges.f_max

    def check(lanes, freqs) -> List[EvaluatedState]:
        return evaluate_configurations(
            population.lane_subset(np.asarray(lanes, dtype=int)),
            [configs[i].with_frequency(freq) for i, freq in zip(lanes, freqs)],
            [activities[i] for i in lanes],
            [rhos[i] for i in lanes],
            t_heatsink,
            checker=checker,
        )

    f = [config.f_core for config in configs]
    f_entry = list(f)
    state_of: List[Optional[EvaluatedState]] = [None] * n_lanes
    steps = [0] * n_lanes
    viol: List[Violation] = [Violation.NONE] * n_lanes

    for i, state in enumerate(check(list(range(n_lanes)), f)):
        state_of[i] = state
        viol[i] = state.violation(cores[i], pe_max=pe_max)
    initial_viol = list(viol)

    # Violating lanes: exponential back-off (1, 2, 4, 8... steps)...
    move = [1] * n_lanes
    active = [
        i for i in range(n_lanes)
        if viol[i] is not Violation.NONE and f[i] > f_min
        and steps[i] < max_adjustments
    ]
    while active:
        freqs = [max(f[i] - move[i] * step, f_min) for i in active]
        for i, freq, state in zip(active, freqs, check(active, freqs)):
            f[i] = freq
            state_of[i] = state
            viol[i] = state.violation(cores[i], pe_max=pe_max)
            steps[i] += 1
            move[i] = min(move[i] * 2, 8)
        active = [
            i for i in active
            if viol[i] is not Violation.NONE and f[i] > f_min
            and steps[i] < max_adjustments
        ]
    # ...then a single-step ramp back up to just below the violation.
    active = [
        i for i in range(n_lanes)
        if initial_viol[i] is not Violation.NONE
        and f[i] + step <= f_entry[i] and steps[i] < max_adjustments
    ]
    while active:
        freqs = [f[i] + step for i in active]
        advanced = []
        for i, freq, state in zip(active, freqs, check(active, freqs)):
            steps[i] += 1
            if state.violation(cores[i], pe_max=pe_max) is not Violation.NONE:
                continue  # retire at the current frequency and state
            f[i] = freq
            state_of[i] = state
            advanced.append(i)
        active = [
            i for i in advanced
            if f[i] + step <= f_entry[i] and steps[i] < max_adjustments
        ]

    outcome_of: List[Optional[Outcome]] = [
        _VIOLATION_OUTCOME[initial_viol[i]]
        if initial_viol[i] is not Violation.NONE
        else None
        for i in range(n_lanes)
    ]

    # No-violation lanes: probe one step up; NoChange if it immediately
    # violates, otherwise keep ramping toward f_max (LowFreq).
    no_violation = [
        i for i in range(n_lanes) if initial_viol[i] is Violation.NONE
    ]
    if no_violation:
        probes = [min(f[i] + step, f_max) for i in no_violation]
        ramp = []
        for i, freq, state in zip(
            no_violation, probes, check(no_violation, probes)
        ):
            steps[i] += 1
            if (
                state.violation(cores[i], pe_max=pe_max) is not Violation.NONE
                or f[i] + step > f_max
            ):
                outcome_of[i] = Outcome.NO_CHANGE
                continue
            f[i] = freq
            state_of[i] = state
            outcome_of[i] = Outcome.LOW_FREQ
            ramp.append(i)
        active = [
            i for i in ramp
            if f[i] + step <= f_max and steps[i] < max_adjustments
        ]
        while active:
            freqs = [f[i] + step for i in active]
            advanced = []
            for i, freq, state in zip(active, freqs, check(active, freqs)):
                steps[i] += 1
                if (
                    state.violation(cores[i], pe_max=pe_max)
                    is not Violation.NONE
                ):
                    continue
                f[i] = freq
                state_of[i] = state
                advanced.append(i)
            active = [
                i for i in advanced
                if f[i] + step <= f_max and steps[i] < max_adjustments
            ]

    return [
        RetuningResult(
            config=configs[i].with_frequency(f[i]),
            state=state_of[i],
            outcome=outcome_of[i],
            initial_violation=initial_viol[i],
            f_initial=f_entry[i],
            steps=steps[i],
        )
        for i in range(n_lanes)
    ]
