"""The Freq and Power algorithms (paper Sections 4.2 and 4.3.1).

Both algorithms operate per subsystem, independently, which is what makes
the optimisation tractable (and trainable):

* **Freq**: for each subsystem, find the maximum frequency it can cycle
  at using any available (Vdd, Vbb), without violating ``TMAX`` or its
  error-rate budget ``PEMAX / n``.  The core frequency is the minimum
  over subsystems.
* **Power**: given the chosen core frequency, each subsystem re-picks the
  (Vdd, Vbb) that minimises its power under the same constraints.

The *Exhaustive* implementation here sweeps the full knob grid of
Figure 7(a); it is the oracle the fuzzy controllers are trained against
(Section 4.3.1) and the ``Exh-Dyn`` environment of the evaluation.

Everything is vectorised over a :class:`SubsystemArrays` batch, which is
either a view of a real :class:`~repro.chip.chip.Core` or a synthetic
batch of training samples.  A batch may additionally carry a leading
*lane* axis — shape ``(B, n_subsystems)``, built with
:meth:`SubsystemArrays.stack` — in which case one call solves B
independent phases at once.  Because every physical relation is
elementwise per grid cell, batched results are bit-identical to B
separate calls.  Freq sweeps each distinct subsystem row of the stack
once, and converged lanes drop out of its joint fixed point early
(convergence masking) instead of iterating at the slowest lane's pace;
Power sweeps the full ``(vdd, vbb, B, n)`` grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

from .. import obs
from ..calibration import DEFAULT_CALIBRATION, Calibration
from ..circuits.delay import DEFAULT_DELAY_PARAMS, DelayParams, gate_delay
from ..circuits.knobs import (
    DEFAULT_KNOB_RANGES,
    DEFAULT_VT_SENSITIVITIES,
    KnobRanges,
    VtSensitivities,
    threshold_voltage,
)
from ..chip.chip import Core
from ..kernels import T_RUNAWAY, thermal_step, vt_and_static_power
from ..timing.paths import StageModifiers

#: Iteration caps of the joint (f, T) fixed point and the inner thermal
#: solve; the convergence tolerances mirror ``np.allclose`` defaults.
_FREQ_MAX_ITERATIONS = 30
_CONVERGENCE_RTOL = 1e-6
_CONVERGENCE_ATOL = 1e-8

#: The per-lane array fields of :class:`SubsystemArrays`, in declaration
#: order (used by stacking / lane selection).
_ARRAY_FIELDS = (
    "vt0_timing",
    "leff_timing",
    "vt0_leak",
    "rth",
    "kdyn",
    "ksta",
    "alpha",
    "rho",
    "stage_mean_rel",
    "stage_sigma_rel",
    "power_factor",
)


@dataclass
class SubsystemArrays:
    """Struct-of-arrays inputs for a batch of (pseudo-)subsystems.

    ``stage_mean_rel`` already *includes* the random-variation tail and
    any technique delay scaling; ``stage_sigma_rel`` likewise includes
    tilt scaling.  Both are in units of the nominal cycle time.

    All array fields share one shape: ``(n,)`` for a single phase, or
    ``(B, n)`` for a stack of B independent phases (lanes) solved by one
    kernel call — see :meth:`stack`.
    """

    vt0_timing: np.ndarray
    leff_timing: np.ndarray
    vt0_leak: np.ndarray
    rth: np.ndarray
    kdyn: np.ndarray
    ksta: np.ndarray
    alpha: np.ndarray  # activity factor, accesses/cycle
    rho: np.ndarray  # exercises/instruction (Eq 4)
    stage_mean_rel: np.ndarray
    stage_sigma_rel: np.ndarray
    power_factor: np.ndarray  # e.g. 1.3 on a low-slope FU
    calib: Calibration = DEFAULT_CALIBRATION
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES
    vt_mean: float = 0.150

    def __post_init__(self) -> None:
        shape = self.vt0_timing.shape
        if self.vt0_timing.ndim not in (1, 2):
            raise ValueError(
                "subsystem arrays must be (n,) or (batch, n), got "
                f"shape {shape}"
            )
        for name in _ARRAY_FIELDS[1:]:
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        vt_design = threshold_voltage(
            self.vt_mean,
            self.calib.t_design,
            self.calib.vdd_nominal,
            0.0,
            self.vt_sens,
        )
        self._nominal_gate_delay = float(
            gate_delay(
                self.calib.vdd_nominal,
                vt_design,
                1.0,
                self.calib.t_design,
                self.delay_params,
            )
        )

    def __len__(self) -> int:
        return self.vt0_timing.shape[-1]

    # -- batch-axis structure -------------------------------------------
    @property
    def n_subsystems(self) -> int:
        """Subsystems (or samples) along the trailing axis."""
        return self.vt0_timing.shape[-1]

    @property
    def is_batched(self) -> bool:
        """True when a leading lane axis is present."""
        return self.vt0_timing.ndim == 2

    @property
    def batch_size(self) -> int:
        """Number of lanes (1 for an unbatched view)."""
        return self.vt0_timing.shape[0] if self.is_batched else 1

    def _scalar_fields(self) -> dict:
        return {
            "calib": self.calib,
            "delay_params": self.delay_params,
            "vt_sens": self.vt_sens,
            "vt_mean": self.vt_mean,
        }

    @classmethod
    def stack(cls, batches: "Sequence[SubsystemArrays]") -> "SubsystemArrays":
        """Stack unbatched views into one ``(B, n)`` lane batch.

        All members must share the calibration, delay/Vt parameters and
        subsystem count — one kernel sweep solves the whole stack.
        """
        if not batches:
            raise ValueError("need at least one batch to stack")
        first = batches[0]
        for member in batches:
            if member.is_batched:
                raise ValueError("can only stack unbatched (n,) views")
            if len(member) != len(first):
                raise ValueError("all stacked batches need equal n_subsystems")
            if (
                member.calib is not first.calib
                or member.delay_params is not first.delay_params
                or member.vt_sens is not first.vt_sens
                or member.vt_mean != first.vt_mean
            ):
                raise ValueError(
                    "stacked batches must share calibration and parameters"
                )
        arrays = {
            name: np.stack([getattr(member, name) for member in batches])
            for name in _ARRAY_FIELDS
        }
        return cls(**arrays, **first._scalar_fields())

    def lanes(self) -> "SubsystemArrays":
        """A ``(B, n)`` view of self (B=1 when unbatched)."""
        if self.is_batched:
            return self
        arrays = {
            name: getattr(self, name)[None, :] for name in _ARRAY_FIELDS
        }
        return SubsystemArrays(**arrays, **self._scalar_fields())

    def lane_subset(self, index: np.ndarray) -> "SubsystemArrays":
        """The batched view restricted to the given lane indices."""
        if not self.is_batched:
            raise ValueError("lane_subset requires a batched view")
        return self._take(index)

    def _take(self, index: np.ndarray) -> "SubsystemArrays":
        """Every array field indexed along its leading axis."""
        arrays = {name: getattr(self, name)[index] for name in _ARRAY_FIELDS}
        return SubsystemArrays(**arrays, **self._scalar_fields())

    # -- physics, broadcasting over leading knob axes -------------------
    def delay_factor(self, vdd, vbb, temp):
        """Gate-delay factor relative to the nominal design point."""
        vt = threshold_voltage(self.vt0_timing, temp, vdd, vbb, self.vt_sens)
        delay = gate_delay(vdd, vt, self.leff_timing, temp, self.delay_params)
        return delay / self._nominal_gate_delay

    def p_static(self, vdd, vbb, temp):
        """Leakage power in watts (fused Eq 9 + Eq 8 kernel)."""
        _, p_sta = vt_and_static_power(
            self.vt0_leak, vdd, vbb, temp, self.ksta, self.vt_sens,
            power_factor=self.power_factor,
        )
        return p_sta

    def p_dynamic(self, vdd, freq):
        """Dynamic power in watts."""
        return (
            self.kdyn
            * self.alpha
            * np.asarray(vdd, dtype=float) ** 2
            * freq
            * self.power_factor
        )

    def budget_period_rel(self, vdd, vbb, temp, z_budget):
        """Cycle-relative period satisfying the stage PE budget.

        ``z_budget`` is the allowed z-score (``z_free`` for error-free
        operation, ``Qinv(budget/rho)`` under timing speculation).
        """
        d = self.delay_factor(vdd, vbb, temp)
        return d * (self.stage_mean_rel + z_budget * self.stage_sigma_rel)


def core_subsystem_arrays(
    core: Core,
    activity: np.ndarray,
    rho: np.ndarray,
    modifiers: Optional[StageModifiers] = None,
    power_factor: Optional[np.ndarray] = None,
) -> SubsystemArrays:
    """Build the optimiser view of a real core for one workload phase."""
    n = core.n_subsystems
    mean = core.stage_mean_rel + core.tail_rel
    sigma = core.stage_sigma_rel.copy()
    if modifiers is not None:
        free = mean + core.calib.z_free * sigma
        sigma = sigma * modifiers.sigma_scale
        mean = free - core.calib.z_free * sigma
        mean = mean * modifiers.delay_scale
        sigma = sigma * modifiers.delay_scale
    return SubsystemArrays(
        vt0_timing=core.vt0_timing,
        leff_timing=core.leff_timing,
        vt0_leak=core.vt0_leak,
        rth=core.rth,
        kdyn=core.kdyn,
        ksta=core.ksta,
        alpha=np.asarray(activity, dtype=float),
        rho=np.asarray(rho, dtype=float),
        stage_mean_rel=mean,
        stage_sigma_rel=sigma,
        power_factor=(
            power_factor if power_factor is not None else np.ones(n)
        ),
        calib=core.calib,
        delay_params=core.delay_params,
        vt_sens=core.vt_sens,
        vt_mean=core.vt_mean,
    )


@dataclass(frozen=True)
class OptimizationSpec:
    """Knob availability and constraints for one environment."""

    vdd_levels: np.ndarray  # e.g. the full ASV grid, or just [1.0]
    vbb_levels: np.ndarray  # e.g. the full ABB grid, or just [0.0]
    pe_budget: float  # per-subsystem errors/instruction; 0 = error-free
    t_max: float
    t_heatsink: float
    knob_ranges: KnobRanges = DEFAULT_KNOB_RANGES

    def __post_init__(self) -> None:
        if self.pe_budget < 0.0:
            raise ValueError("pe_budget cannot be negative")
        if len(self.vdd_levels) == 0 or len(self.vbb_levels) == 0:
            raise ValueError("knob level arrays cannot be empty")


def budget_z(subsystems: SubsystemArrays, pe_budget: float) -> np.ndarray:
    """Allowed z-score per subsystem for an error budget (Eq 4 inverted).

    ``pe_budget <= 0`` (no checker) demands error-free operation: the
    z-score is the design's ``z_free``.  Otherwise ``z = Qinv(budget /
    rho)``, clamped into ``[0, z_free]`` — never slower than error-free,
    never past the distribution median.  The result matches the shape of
    ``subsystems.rho`` (``(n,)`` or ``(B, n)``).
    """
    z_free = subsystems.calib.z_free
    if pe_budget <= 0.0:
        return np.full(subsystems.rho.shape, z_free)
    rho = np.maximum(subsystems.rho, 1e-12)
    quantile = np.minimum(pe_budget / rho, 0.5)
    z = ndtri(1.0 - quantile)
    return np.clip(z, 0.0, z_free)


@dataclass(frozen=True)
class FreqResult:
    """Per-subsystem outcome of the Freq algorithm.

    For a batched call every array has a leading lane axis (``(B, n)``).
    """

    f_max: np.ndarray  # hertz; max frequency each subsystem supports
    vdd: np.ndarray  # the (Vdd, Vbb) achieving it
    vbb: np.ndarray
    feasible: np.ndarray  # False where no knob setting met TMAX

    def core_frequency(self, knob_ranges: KnobRanges = DEFAULT_KNOB_RANGES) -> float:
        """MIN over subsystems, snapped down to the 100 MHz step grid."""
        if self.f_max.ndim != 1:
            raise ValueError("batched result: use core_frequencies()")
        return knob_ranges.clamp_frequency(float(self.f_max.min()))

    def core_frequencies(
        self, knob_ranges: KnobRanges = DEFAULT_KNOB_RANGES
    ) -> np.ndarray:
        """Per-lane MIN over subsystems, snapped to the step grid."""
        return knob_ranges.clamp_frequencies(self.f_max.min(axis=-1))

    def min_rest(self, index: int) -> float:
        """``Min(f)_rest``: bottleneck excluding subsystem ``index``."""
        if self.f_max.ndim != 1:
            raise ValueError("min_rest applies to single-phase results")
        mask = np.ones(len(self.f_max), dtype=bool)
        mask[index] = False
        return float(self.f_max[mask].min())


def _thermal_fixed_point(
    subsystems: SubsystemArrays, vdd, vbb, freq, t_heatsink, iterations: int = 25
):
    """Iterate Eq 6-9 to steady state (vectorised, no damping needed).

    Each iteration is one fused ``thermal_step`` kernel call; two
    temperature buffers ping-pong through its ``out=`` parameter so the
    loop allocates nothing in steady state.
    """
    p_dyn = subsystems.p_dynamic(vdd, freq)
    temp = np.broadcast_to(
        np.asarray(t_heatsink + 5.0), np.broadcast_shapes(p_dyn.shape, np.shape(vbb))
    ).copy()
    scratch = np.empty(temp.shape)
    with obs.span("kernel.thermal_fixed_point"):
        for _ in range(iterations):
            new_temp, _ = thermal_step(
                subsystems.vt0_leak, vdd, vbb, temp, subsystems.ksta,
                subsystems.rth, p_dyn, t_heatsink, subsystems.vt_sens,
                power_factor=subsystems.power_factor, t_runaway=T_RUNAWAY,
                out=scratch,
            )
            temp, scratch = new_temp, temp
    return temp, p_dyn


def _distinct_rows(
    lanes: SubsystemArrays,
) -> "Tuple[SubsystemArrays, np.ndarray]":
    """The distinct subsystem rows of a ``(B, n)`` stack, and each entry's row.

    A row is an entry's 11 array inputs; entries whose rows are bitwise
    equal (e.g. a lane and its low-slope replica everywhere but the FU
    column) share one row index.  Returns an unbatched ``(R,)`` view of
    the rows, in byte order, and the ``(B, n)`` entry-to-row map.
    """
    n_lanes, n = lanes.vt0_timing.shape
    table = np.empty((n_lanes * n, len(_ARRAY_FIELDS)))
    for column, name in enumerate(_ARRAY_FIELDS):
        table[:, column] = getattr(lanes, name).reshape(-1)
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1])))
    _, first, inverse = np.unique(
        keys[:, 0], return_index=True, return_inverse=True
    )
    columns = table[first].T.copy()
    rows = SubsystemArrays(
        **{name: columns[k] for k, name in enumerate(_ARRAY_FIELDS)},
        **lanes._scalar_fields(),
    )
    return rows, inverse.reshape(n_lanes, n)


def _thermal_frequency_cap(
    rows: SubsystemArrays, vdd, vbb, spec: OptimizationSpec
) -> np.ndarray:
    """The frequency at which each knob cell reaches TMAX (0 if none).

    Static leakage is taken at TMAX; the cap bounds the joint (f, T)
    fixed point of :func:`freq_algorithm` from above.
    """
    p_sta_hot = rows.p_static(vdd, vbb, spec.t_max)
    headroom = spec.t_max - spec.t_heatsink - rows.rth * p_sta_hot
    denom = rows.kdyn * rows.alpha * vdd**2 * rows.power_factor
    with np.errstate(divide="ignore"):
        return np.where(headroom > 0.0, headroom / (rows.rth * denom), 0.0)


def _best_knobs(f, temp, spec: OptimizationSpec):
    """Per-column first maximum of the feasible ``f`` over the knob grid.

    ``f`` and ``temp`` are ``(vdd, vbb, ...)`` grids; returns ``(f_max,
    vdd, vbb, feasible)`` over the trailing axes, ``f_max`` falling back
    to ``f_min`` where no knob setting met TMAX.
    """
    f_grid = np.where(temp <= spec.t_max + 0.05, f, -np.inf)
    flat = f_grid.reshape((-1,) + f_grid.shape[2:])
    best = np.argmax(flat, axis=0)
    iv, ib = np.unravel_index(best, f_grid.shape[:2])
    f_max = np.take_along_axis(flat, best[None], axis=0)[0]
    feasible = np.isfinite(f_max)
    f_max = np.where(feasible, f_max, spec.knob_ranges.f_min)
    return f_max, spec.vdd_levels[iv], spec.vbb_levels[ib], feasible


def freq_algorithm(
    subsystems: SubsystemArrays, spec: OptimizationSpec
) -> FreqResult:
    """Exhaustive Freq (Section 4.3.1): sweep (Vdd, Vbb), maximise f.

    For every knob combination the error-budget frequency and the
    thermal-limit frequency are solved jointly (the budget period depends
    on temperature, which depends on frequency); the subsystem's
    ``f_max`` is the best feasible combination.

    Each subsystem is solved independently, so a batched ``(B, n)`` input
    sweeps only its *distinct* subsystem rows (see :func:`_distinct_rows`)
    in one ``(vdd, vbb, rows)`` grid.  A lane stops when all its rows
    have converged and is reduced to its result at once; a row iterates
    while any of its lanes is active.  The per-lane stopping criterion is
    exactly the one-lane one, so results stay bit-identical to B
    separate calls.
    """
    batched = subsystems.is_batched
    lanes = subsystems.lanes()
    n_lanes, n = lanes.batch_size, lanes.n_subsystems
    rows, row_of = _distinct_rows(lanes)
    vdd = spec.vdd_levels[:, None, None]
    vbb = spec.vbb_levels[None, :, None]
    t_cycle = 1.0 / rows.calib.f_nominal
    t_limit = spec.t_max + 0.05
    obs.inc("optimizer.freq_calls")
    obs.inc("optimizer.freq_lanes", float(n_lanes))
    obs.inc(
        "optimizer.candidates",
        float(len(spec.vdd_levels) * len(spec.vbb_levels) * rows.n_subsystems),
    )

    # Loop invariants: the budget z-score, the static leakage at TMAX,
    # the thermal headroom and the resulting thermal frequency cap depend
    # only on the row and the knob grid, never on the iterated (f, T).
    z = budget_z(rows, spec.pe_budget)
    f_thermal = _thermal_frequency_cap(rows, vdd, vbb, spec)

    f_max = np.empty((n_lanes, n))
    vdd_best = np.empty((n_lanes, n), dtype=spec.vdd_levels.dtype)
    vbb_best = np.empty((n_lanes, n), dtype=spec.vbb_levels.dtype)
    feasible = np.empty((n_lanes, n), dtype=bool)

    def settle(done, f, temp, slot):
        # Entries sharing a row share its result: reduce each needed
        # live column once, then gather per entry.
        columns, back = np.unique(slot[row_of[done]], return_inverse=True)
        back = back.reshape(len(done), n)
        best = _best_knobs(f[:, :, columns], temp[:, :, columns], spec)
        for out, values in zip((f_max, vdd_best, vbb_best, feasible), best):
            out[done] = values[back]

    # Joint fixed point over (f, T) on the live rows: alternate the
    # PE-budget frequency, the thermal cap and the temperature solution.
    # ``slot`` maps a row index to its column in the live grid.
    active = np.arange(n_lanes)
    iterations = np.full(n_lanes, _FREQ_MAX_ITERATIONS, dtype=int)
    slot = np.arange(rows.n_subsystems)
    sub, z_live, f_thermal_live = rows, z, f_thermal
    f = np.full(f_thermal.shape, spec.knob_ranges.f_min)
    temp = np.full_like(f, spec.t_heatsink + 5.0)
    rejections = 0
    for iteration in range(_FREQ_MAX_ITERATIONS):
        period = sub.budget_period_rel(vdd, vbb, temp, z_live) * t_cycle
        f_pe = 1.0 / period
        f_new = np.clip(
            np.minimum(f_pe, f_thermal_live),
            spec.knob_ranges.f_min,
            spec.knob_ranges.f_max,
        )
        temp, _ = _thermal_fixed_point(
            sub, vdd, vbb, f_new, spec.t_heatsink, iterations=8
        )
        row_converged = np.all(
            np.abs(f_new - f) <= _CONVERGENCE_ATOL + _CONVERGENCE_RTOL * np.abs(f),
            axis=(0, 1),
        )
        f = f_new
        converged = row_converged[slot[row_of[active]]].all(axis=1)
        if not converged.any():
            continue
        done = active[converged]
        iterations[done] = iteration + 1
        settle(done, f, temp, slot)
        active = active[~converged]
        if active.size == 0:
            break
        keep = np.unique(row_of[active])
        columns = slot[keep]
        if columns.size < f.shape[2]:
            # Rows no active lane needs retire at their final iterate;
            # their infeasible cells are counted once, here.
            retired = np.ones(f.shape[2], dtype=bool)
            retired[columns] = False
            rejections += int((~(temp[:, :, retired] <= t_limit)).sum())
            f, temp = f[:, :, columns], temp[:, :, columns]
            sub = rows._take(keep)
            z_live, f_thermal_live = z[keep], f_thermal[:, :, keep]
            slot[keep] = np.arange(keep.size)
    if active.size:
        settle(active, f, temp, slot)
    rejections += int((~(temp <= t_limit)).sum())
    for count in iterations:
        obs.observe("optimizer.freq_iterations", float(count))
    obs.inc("optimizer.freq_exhausted", float(active.size))
    obs.inc("optimizer.constraint_rejections", float(rejections))

    if not batched:
        f_max, vdd_best = f_max[0], vdd_best[0]
        vbb_best, feasible = vbb_best[0], feasible[0]
    return FreqResult(
        f_max=f_max,
        vdd=vdd_best,
        vbb=vbb_best,
        feasible=feasible,
    )


@dataclass(frozen=True)
class PowerResult:
    """Per-subsystem outcome of the Power algorithm at a core frequency.

    For a batched call every array has a leading lane axis (``(B, n)``).
    """

    vdd: np.ndarray
    vbb: np.ndarray
    temperature: np.ndarray  # kelvin at the chosen settings
    p_dynamic: np.ndarray
    p_static: np.ndarray
    feasible: np.ndarray  # False where no setting met both constraints

    @property
    def p_total(self) -> np.ndarray:
        """Per-subsystem total power in watts."""
        return self.p_dynamic + self.p_static

    def core_power(self) -> float:
        """Sum of subsystem powers in watts (excl. L2/checker)."""
        if self.vdd.ndim != 1:
            raise ValueError("batched result: reduce p_total per lane")
        return float(self.p_total.sum())

    def max_temperature(self) -> float:
        """Hottest subsystem temperature in kelvin."""
        if self.vdd.ndim != 1:
            raise ValueError("batched result: reduce temperature per lane")
        return float(self.temperature.max())


def power_algorithm(
    subsystems: SubsystemArrays, f_core, spec: OptimizationSpec
) -> PowerResult:
    """Exhaustive Power (Section 4.3.1): minimise power at ``f_core``.

    Each subsystem independently picks the (Vdd, Vbb) with the lowest
    total power among those that keep it within ``TMAX`` and its error
    budget at the given core frequency.

    ``f_core`` may be a scalar or per-subsystem ``(n,)`` array for an
    unbatched call; a batched ``(B, n)`` input additionally accepts a
    per-lane ``(B,)`` vector or a full ``(B, n)`` matrix.
    """
    f_core = np.asarray(f_core, dtype=float)
    if np.any(f_core <= 0.0):
        raise ValueError("core frequency must be positive")
    batched = subsystems.is_batched
    lanes = subsystems.lanes()
    n = lanes.n_subsystems
    n_lanes = lanes.batch_size
    if batched:
        if f_core.ndim == 1:
            if f_core.shape != (n_lanes,):
                raise ValueError(
                    f"per-lane f_core must have shape ({n_lanes},), got "
                    f"{f_core.shape}"
                )
            freq = f_core[:, None]
        elif f_core.ndim == 2:
            if f_core.shape != (n_lanes, n):
                raise ValueError(
                    f"f_core must have shape ({n_lanes}, {n}), got "
                    f"{f_core.shape}"
                )
            freq = f_core
        else:
            freq = f_core
    else:
        freq = f_core[None, :] if f_core.ndim == 1 else f_core
    calib = lanes.calib
    vdd = spec.vdd_levels[:, None, None, None]
    vbb = spec.vbb_levels[None, :, None, None]
    z = budget_z(lanes, spec.pe_budget)[None, None, :, :]
    t_cycle = 1.0 / calib.f_nominal
    grid_shape = (len(spec.vdd_levels), len(spec.vbb_levels), n_lanes, n)

    temp, p_dyn = _thermal_fixed_point(lanes, vdd, vbb, freq, spec.t_heatsink)
    p_sta = lanes.p_static(vdd, vbb, temp)
    period_needed = 1.0 / freq
    period_have = lanes.budget_period_rel(vdd, vbb, temp, z) * t_cycle
    ok = (temp <= spec.t_max + 0.05) & (period_have <= period_needed * (1 + 1e-9))
    obs.inc("optimizer.power_calls")
    obs.inc("optimizer.power_lanes", float(n_lanes))
    obs.inc("optimizer.candidates", float(ok.size))
    obs.inc("optimizer.constraint_rejections", float((~ok).sum()))

    total = p_dyn + p_sta
    cost = np.where(ok, total, np.inf)
    # p_dyn does not depend on Vbb, so broadcast it to the full knob grid
    # before flattening alongside the cost array.
    cost = np.broadcast_to(cost, grid_shape)
    p_dyn = np.broadcast_to(p_dyn, grid_shape)
    temp = np.broadcast_to(temp, grid_shape)
    p_sta = np.broadcast_to(p_sta, grid_shape)
    flat = cost.reshape(-1, n_lanes, n)
    best = np.argmin(flat, axis=0)  # (B, n)
    iv, ib = np.unravel_index(best, grid_shape[:2])
    pick = best[None, :, :]

    def select(grid):
        return np.take_along_axis(
            grid.reshape(-1, n_lanes, n), pick, axis=0
        )[0]

    feasible = np.isfinite(np.take_along_axis(flat, pick, axis=0)[0])
    vdd_best = spec.vdd_levels[iv]
    vbb_best = spec.vbb_levels[ib]
    temp_best = select(temp)
    p_dyn_best = select(p_dyn)
    p_sta_best = select(p_sta)
    if not batched:
        vdd_best, vbb_best = vdd_best[0], vbb_best[0]
        temp_best, feasible = temp_best[0], feasible[0]
        p_dyn_best, p_sta_best = p_dyn_best[0], p_sta_best[0]
    return PowerResult(
        vdd=vdd_best,
        vbb=vbb_best,
        temperature=temp_best,
        p_dynamic=p_dyn_best,
        p_static=p_sta_best,
        feasible=feasible,
    )
