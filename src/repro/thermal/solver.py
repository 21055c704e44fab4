"""Steady-state thermal solver (paper Eqs 6-9).

Each subsystem is a thermal node above the common heat sink::

    T = TH + Rth * (Pdyn + Psta)                       (Eq 6)

Static power rises with temperature (Eq 8) and the threshold voltage falls
(Eq 9), so the system is a feedback loop that the paper solves "by
iterating until convergence" — exactly what :func:`solve_temperatures`
does, fully vectorised over subsystems and operating-point grids.

Each iteration is one ``thermal_step`` fused-kernel call (see
:mod:`repro.kernels`): both power terms, the clamped temperature update
and the convergence delta in one pass, ping-ponging two temperature
buffers so the loop allocates nothing in steady state.  The whole fixed
point is timed under the ``kernel.thermal_fixed_point`` span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..chip.chip import Core
# The runaway cap lives with the kernel; ``repro.thermal`` re-exports it.
from ..kernels import T_RUNAWAY, thermal_step


@dataclass(frozen=True)
class ThermalSolution:
    """Converged per-subsystem thermal/power state.

    All arrays broadcast over leading operating-point axes with the
    trailing axis indexing subsystems.
    """

    temperature: np.ndarray  # kelvin
    p_dynamic: np.ndarray  # watts
    p_static: np.ndarray  # watts
    converged: np.ndarray  # bool; False marks thermal runaway

    @property
    def p_total(self) -> np.ndarray:
        """Per-subsystem total power in watts."""
        return self.p_dynamic + self.p_static

    def core_power(self) -> np.ndarray:
        """Total power of the 15 subsystems (excl. L2/checker) in watts."""
        return self.p_total.sum(axis=-1)

    def max_temperature(self) -> np.ndarray:
        """Hottest subsystem temperature in kelvin."""
        return self.temperature.max(axis=-1)


def solve_temperatures(
    core: Core,
    vdd,
    vbb,
    freq,
    activity,
    t_heatsink: float,
    max_iter: int = 60,
    tol: float = 1e-3,
) -> ThermalSolution:
    """Solve the Eq 6-9 feedback loop for steady-state temperatures.

    Args:
        core: Core model providing ``Rth``, ``Kdyn``, ``Ksta`` and the
            leakage law.
        vdd: Per-subsystem supply voltage(s); the trailing axis must
            broadcast against the subsystem axis.
        vbb: Per-subsystem body bias(es).
        freq: Core frequency in hertz (scalar or broadcastable).
        activity: Per-subsystem activity factors (accesses/cycle).
        t_heatsink: Heat-sink temperature ``TH`` in kelvin.
        max_iter: Iteration cap.
        tol: Convergence tolerance in kelvin.

    Returns:
        A :class:`ThermalSolution`; ``converged`` is False where the
        leakage-temperature loop ran away (temperature hit the cap).
    """
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    freq = np.asarray(freq, dtype=float)
    activity = np.asarray(activity, dtype=float)

    p_dyn = core.subsystem_dynamic_power(vdd, freq, activity)
    shape = np.broadcast_shapes(p_dyn.shape, vbb.shape)
    p_dyn = np.broadcast_to(p_dyn, shape).copy()

    temp = np.full(shape, t_heatsink + 5.0)
    scratch = np.empty(shape)
    iterations = max_iter
    with obs.span("kernel.thermal_fixed_point"):
        for iteration in range(max_iter):
            new_temp, delta = thermal_step(
                core.vt0_leak, vdd, vbb, temp, core.ksta, core.rth,
                p_dyn, t_heatsink, core.vt_sens,
                t_runaway=T_RUNAWAY, compute_delta=True, out=scratch,
            )
            temp, scratch = new_temp, temp
            if float(np.max(delta)) < tol:
                iterations = iteration + 1
                break
    obs.inc("thermal.solves")
    obs.observe("thermal.iterations", iterations)
    p_sta = core.subsystem_static_power(vdd, vbb, temp)
    converged = temp < T_RUNAWAY - tol
    return ThermalSolution(
        temperature=temp, p_dynamic=p_dyn, p_static=p_sta, converged=converged
    )


def solve_temperatures_lanes(
    core: Core,
    vdd,
    vbb,
    freq,
    activity,
    t_heatsink: float,
    max_iter: int = 60,
    tol: float = 1e-3,
) -> ThermalSolution:
    """Lane-batched :func:`solve_temperatures` with convergence masking.

    Axis 0 indexes independent lanes (e.g. one workload phase each), the
    trailing axis subsystems.  Each lane retires from the iteration the
    moment its own update falls below ``tol`` — exactly the stopping rule
    a per-lane serial solve applies — so every lane's iterate sequence,
    and therefore the returned solution, is bit-identical to solving that
    lane alone.  One ``thermal.solves`` count and one
    ``thermal.iterations`` observation is recorded per lane, keeping the
    metrics comparable with the serial path.

    ``core`` may also be a :class:`~repro.chip.chip.CoreLanes` whose lane
    axis matches axis 0: each lane then evaluates against its own core's
    parameters (the masked iterations subset the lanes view alongside the
    state arrays).
    """
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    freq = np.asarray(freq, dtype=float)
    activity = np.asarray(activity, dtype=float)

    p_dyn = core.subsystem_dynamic_power(vdd, freq, activity)
    shape = np.broadcast_shapes(p_dyn.shape, vbb.shape)
    p_dyn = np.broadcast_to(p_dyn, shape).copy()
    n_lanes = shape[0]
    vdd_b = np.broadcast_to(vdd, shape)
    vbb_b = np.broadcast_to(vbb, shape)

    # A CoreLanes population subsets its parameter arrays alongside the
    # masked state; a single Core broadcasts its (n,) arrays as before.
    per_lane = hasattr(core, "lane_subset")

    temp = np.full(shape, t_heatsink + 5.0)
    iterations = np.full(n_lanes, max_iter, dtype=int)
    active = np.arange(n_lanes)
    with obs.span("kernel.thermal_fixed_point"):
        for iteration in range(max_iter):
            node = core.lane_subset(active) if per_lane else core
            new_temp, delta = thermal_step(
                node.vt0_leak, vdd_b[active], vbb_b[active], temp[active],
                node.ksta, node.rth, p_dyn[active], t_heatsink,
                node.vt_sens, t_runaway=T_RUNAWAY, compute_delta=True,
            )
            temp[active] = new_temp
            converged = delta < tol
            if np.any(converged):
                iterations[active[converged]] = iteration + 1
                active = active[~converged]
            if active.size == 0:
                break
    obs.inc("thermal.solves", float(n_lanes))
    for count in iterations:
        obs.observe("thermal.iterations", float(count))
    p_sta = core.subsystem_static_power(vdd_b, vbb_b, temp)
    converged = temp < T_RUNAWAY - tol
    return ThermalSolution(
        temperature=temp, p_dynamic=p_dyn, p_static=p_sta, converged=converged
    )
