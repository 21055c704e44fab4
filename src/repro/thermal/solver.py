"""Steady-state thermal solver (paper Eqs 6-9).

Each subsystem is a thermal node above the common heat sink::

    T = TH + Rth * (Pdyn + Psta)                       (Eq 6)

Static power rises with temperature (Eq 8) and the threshold voltage falls
(Eq 9), so the system is a feedback loop that the paper solves "by
iterating until convergence" — exactly what :func:`solve_temperatures`
does, fully vectorised over subsystems and lanes of operating points,
each lane stopping at its own tolerance.

Each iteration is one ``thermal_step`` fused-kernel call (see
:mod:`repro.kernels`): both power terms, the clamped temperature update
and the convergence delta in one pass.  Each solve allocates its
kernel scratch (``work=``) and its second temperature buffer once and
reuses them on every iteration, so the loop allocates nothing per
iteration.  The whole fixed point is timed under the
``kernel.thermal_fixed_point`` span.
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

    The trailing axis of the inputs indexes subsystems and every leading
    axis indexes independent lanes (operating points, workload phases);
    a 1-D input is one lane.  Each lane retires from the iteration the
    moment its own update falls below ``tol``, so every lane's iterate
    sequence, and therefore its solution, is bit-identical to solving
    that lane alone.  One ``thermal.solves`` count and one
    ``thermal.iterations`` observation is recorded per lane.

    Args:
        core: Core model providing ``Rth``, ``Kdyn``, ``Ksta`` and the
            leakage law: a :class:`Core`, whose ``(n,)`` arrays broadcast
            over every lane, or a :class:`~repro.chip.chip.CoreLanes`
            whose lane axis matches axis 0 of a 2-D input.
        vdd: Per-subsystem supply voltage(s).
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
    # Iterate over one flat lane axis; the solution takes ``shape`` back.
    flat = (-1, shape[-1])
    p_dyn = np.broadcast_to(p_dyn, shape).reshape(flat).copy()
    vdd_b = np.broadcast_to(vdd, shape).reshape(flat)
    vbb_b = np.broadcast_to(vbb, shape).reshape(flat)
    n_lanes = p_dyn.shape[0]

    temp = np.full(p_dyn.shape, t_heatsink + 5.0)
    # The live lanes' update and the kernel's scratch: the leading
    # ``active.size`` lanes of each buffer, allocated once per solve.
    scratch = np.empty(p_dyn.shape)
    work = np.empty((3, *p_dyn.shape))
    iterations = np.full(n_lanes, max_iter, dtype=int)
    active = np.arange(n_lanes)
    # The parameters of the live lanes: re-subset only when lanes retire
    # (a single Core is its own subset).
    node = core
    with obs.span("kernel.thermal_fixed_point"):
        for iteration in range(max_iter):
            live = active.size
            new_temp, delta = thermal_step(
                node.vt0_leak, vdd_b[active], vbb_b[active], temp[active],
                node.ksta, node.rth, p_dyn[active], t_heatsink,
                node.vt_sens, t_runaway=T_RUNAWAY, compute_delta=True,
                out=scratch[:live], work=work[:, :live],
            )
            temp[active] = new_temp
            settled = delta < tol
            if np.any(settled):
                iterations[active[settled]] = iteration + 1
                active = active[~settled]
                if active.size:
                    node = core.lane_subset(active)
            if active.size == 0:
                break
    obs.inc("thermal.solves", float(n_lanes))
    for count in iterations:
        obs.observe("thermal.iterations", float(count))
    p_sta = core.subsystem_static_power(vdd_b, vbb_b, temp)
    temp = temp.reshape(shape)
    return ThermalSolution(
        temperature=temp,
        p_dynamic=p_dyn.reshape(shape),
        p_static=p_sta.reshape(shape),
        converged=temp < T_RUNAWAY - tol,
    )
