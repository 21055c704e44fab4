"""Ground-truth evaluation of an operating configuration.

The controller *chooses* a configuration (frequency, per-subsystem
voltages, technique state); the physical chip then settles wherever the
physics says.  This module computes that settled state — temperatures,
powers, error rate — and checks it against the three constraints of
Section 4.1 (``TMAX``, ``PMAX``, ``PEMAX``).  It is what the sensors of
Section 4.3.2 observe, and what the retuning cycles react to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import get_backend
from ..chip.chip import Core
from ..mitigation.base import TechniqueState
from ..thermal.solver import solve_temperatures, solve_temperatures_lanes
from ..timing.errors import stage_error_rates
from ..timing.paths import StageDelays, StageModifiers, stage_delays


class Violation(Enum):
    """Which constraint a configuration violates (checked in this order:
    the PE counter fires within microseconds, thermal/power sensors within
    a thermal time constant — Section 4.3.3)."""

    NONE = "none"
    ERROR = "error"
    TEMPERATURE = "temperature"
    POWER = "power"


@dataclass(frozen=True)
class Configuration:
    """A complete actuation state for one core."""

    f_core: float  # hertz
    vdd: np.ndarray  # per-subsystem volts
    vbb: np.ndarray  # per-subsystem volts
    technique: TechniqueState

    def __post_init__(self) -> None:
        if self.f_core <= 0.0:
            raise ValueError("core frequency must be positive")
        if self.vdd.shape != self.vbb.shape:
            raise ValueError("vdd and vbb must have matching shapes")

    def with_frequency(self, f_core: float) -> "Configuration":
        """Return a copy at a different frequency (retuning step)."""
        return Configuration(
            f_core=f_core, vdd=self.vdd, vbb=self.vbb, technique=self.technique
        )


@dataclass(frozen=True)
class EvaluatedState:
    """The settled physical state of a core under a configuration."""

    config: Configuration
    temperature: np.ndarray  # kelvin, per subsystem
    p_dynamic: np.ndarray
    p_static: np.ndarray
    pe_per_subsystem: np.ndarray  # errors/instruction
    l2_power: float
    checker_power: float
    delays: StageDelays

    @property
    def pe_total(self) -> float:
        """Whole-processor errors per instruction (Eq 4)."""
        return float(self.pe_per_subsystem.sum())

    @property
    def subsystem_power(self) -> float:
        """Total power of the 15 subsystems in watts."""
        return float((self.p_dynamic + self.p_static).sum())

    @property
    def total_power(self) -> float:
        """Core + L1s (in subsystems) + L2 + checker, in watts."""
        return self.subsystem_power + self.l2_power + self.checker_power

    @property
    def max_temperature(self) -> float:
        """Hottest subsystem in kelvin."""
        return float(self.temperature.max())

    def violation(self, core: Core, pe_max: Optional[float] = None) -> Violation:
        """Classify the first constraint this state violates."""
        calib = core.calib
        limit = calib.pe_max if pe_max is None else pe_max
        if self.pe_total > limit:
            return Violation.ERROR
        if self.max_temperature > calib.t_max + 0.05:
            return Violation.TEMPERATURE
        if self.total_power > calib.p_max + 1e-9:
            return Violation.POWER
        return Violation.NONE


def evaluate_configuration(
    core: Core,
    config: Configuration,
    activity: np.ndarray,
    rho: np.ndarray,
    t_heatsink: Optional[float] = None,
    *,
    checker: bool = True,
) -> EvaluatedState:
    """Settle the physics for a configuration and workload activity.

    Args:
        core: The physical core.
        config: Frequency, voltages and technique state to apply.
        activity: Per-subsystem activity factors (accesses/cycle).
        rho: Per-subsystem exercises/instruction (Eq 4 weights).
        t_heatsink: Heat-sink temperature (defaults to the calibrated
            ``TH_MAX``).
        checker: Whether the Diva-like checker is present (its power is
            charged to the core); False for Baseline/NoVar.
    """
    calib = core.calib
    th = calib.t_heatsink_max if t_heatsink is None else t_heatsink
    power_factors = config.technique.power_factors(core)
    modifiers = config.technique.stage_modifiers(core)

    activity = np.asarray(activity, dtype=float) * power_factors
    solution = solve_temperatures(
        core, config.vdd, config.vbb, config.f_core, activity, th
    )
    # Leakage also scales with the enabled replica's extra devices.
    p_static = solution.p_static * power_factors

    delays = stage_delays(
        core, config.vdd, config.vbb, solution.temperature, modifiers
    )
    pe = stage_error_rates(config.f_core, delays, rho)

    p_dyn_total = float(solution.p_dynamic.sum())
    return EvaluatedState(
        config=config,
        temperature=solution.temperature,
        p_dynamic=solution.p_dynamic,
        p_static=p_static,
        pe_per_subsystem=pe,
        l2_power=core.l2_power(config.f_core),
        checker_power=calib.checker_power_fraction * p_dyn_total if checker else 0.0,
        delays=delays,
    )


def evaluate_configurations(
    core: Core,
    configs: Sequence[Configuration],
    activities: Sequence[np.ndarray],
    rhos: Sequence[np.ndarray],
    t_heatsink: Optional[float] = None,
    *,
    checker: bool = True,
) -> List[EvaluatedState]:
    """Lane-batched :func:`evaluate_configuration` (bit-identical per lane).

    Stacks many independent (configuration, workload) lanes along axis 0
    and settles them all with one vectorised physics pass: one
    lane-masked thermal solve, one delay-model evaluation, one
    error-rate evaluation.  The physics is elementwise per subsystem, so
    each returned :class:`EvaluatedState` equals what
    :func:`evaluate_configuration` computes for that lane alone.

    ``core`` may be a single :class:`Core` (all lanes share its physics)
    or a :class:`~repro.chip.chip.CoreLanes` population whose lane axis
    matches ``configs`` — the adaptation pipeline uses the latter to
    settle every (chip, core) unit of a block in one pass.  Array
    assembly routes through the active :mod:`repro.backend` namespace.
    """
    xp = get_backend().xp
    calib = core.calib
    th = calib.t_heatsink_max if t_heatsink is None else t_heatsink
    # Technique states repeat heavily across lanes (a handful of
    # distinct states per batch); build each one's modifier rows once
    # and let the stack copy them per lane.
    rows: Dict[TechniqueState, Tuple[np.ndarray, np.ndarray, np.ndarray]]
    rows = {}
    for config in configs:
        technique = config.technique
        if technique not in rows:
            modifiers = technique.stage_modifiers(core)
            rows[technique] = (
                technique.power_factors(core),
                modifiers.delay_scale,
                modifiers.sigma_scale,
            )
    lanes = [rows[config.technique] for config in configs]
    power_factors = xp.stack([pf for pf, _, _ in lanes])
    stacked_modifiers = StageModifiers(
        delay_scale=xp.stack([ds for _, ds, _ in lanes]),
        sigma_scale=xp.stack([ss for _, _, ss in lanes]),
    )
    activity = xp.stack(
        [xp.asarray(a, dtype=float) for a in activities]
    ) * power_factors
    rho = xp.stack([xp.asarray(r, dtype=float) for r in rhos])
    freq = xp.asarray([config.f_core for config in configs], dtype=float)[:, None]
    vdd = xp.stack([config.vdd for config in configs])
    vbb = xp.stack([config.vbb for config in configs])

    solution = solve_temperatures_lanes(core, vdd, vbb, freq, activity, th)
    p_static = solution.p_static * power_factors
    delays = stage_delays(
        core, vdd, vbb, solution.temperature, stacked_modifiers
    )
    # Configuration guarantees positive frequencies, so the batched path
    # can call the fused kernel directly, skipping the re-validation
    # inside stage_error_rates.
    pe = get_backend().kernel("timing_error_cdf")(
        freq, delays.mean, delays.sigma, rho
    )
    p_dyn_lane = solution.p_dynamic.sum(axis=-1)
    l2 = core.l2_power(freq[:, 0])
    return [
        EvaluatedState(
            config=config,
            temperature=solution.temperature[lane],
            p_dynamic=solution.p_dynamic[lane],
            p_static=p_static[lane],
            pe_per_subsystem=pe[lane],
            l2_power=float(l2[lane]),
            checker_power=(
                calib.checker_power_fraction * float(p_dyn_lane[lane])
                if checker
                else 0.0
            ),
            delays=StageDelays(
                mean=delays.mean[lane],
                sigma=delays.sigma[lane],
                z_free=delays.z_free,
            ),
        )
        for lane, config in enumerate(configs)
    ]
