"""Figure 9: power vs error-rate vs frequency surfaces for the IntALU.

For a grid of (power budget, frequency) points, find the minimum error
rate the subsystem can realise with any (Vdd, Vbb) whose total power fits
the budget — the surface of Figure 9(a).  Replacing frequency by the
processor performance of Eq 5 gives Figure 9(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..calibration import DEFAULT_CALIBRATION
from ..chip.chip import build_core
from ..core.adaptation import perf_params_from_measurement
from ..core.environments import TS_ASV_ABB
from ..core.optimizer import core_subsystem_arrays
from ..kernels import timing_error_cdf
from ..microarch.pipeline import DEFAULT_CORE_CONFIG
from ..microarch.simulator import measure_workload
from ..microarch.workloads import by_name
from ..timing.speculation import performance
from ..variation.population import VariationModel


@dataclass(frozen=True)
class Fig9Result:
    """The two Figure 9 surfaces (arrays indexed [power, frequency])."""

    power_grid: np.ndarray  # watts (subsystem power budgets)
    freq_rel_grid: np.ndarray  # frequency relative to nominal
    min_pe: np.ndarray  # Fig 9(a) surface: min PE(budget, f)
    perf_rel: np.ndarray  # Fig 9(b) x-axis replacement: Perf at (budget, f)


def run_fig9(
    subsystem: str = "IntALU",
    workload: str = "swim*",
    chip_seed: int = 42,
    n_power: int = 16,
    n_freq: int = 24,
) -> Fig9Result:
    """Compute the Figure 9 surfaces for one subsystem of one chip."""
    calib = DEFAULT_CALIBRATION
    chip = VariationModel().population(1, seed=chip_seed)[0]
    core = build_core(chip, 0, calib=calib)
    meas = measure_workload(by_name(workload), DEFAULT_CORE_CONFIG)
    index = core.floorplan.index_of(subsystem)
    spec = TS_ASV_ABB.optimization_spec(core.n_subsystems, calib)
    subs = core_subsystem_arrays(core, meas.activity, meas.rho)

    vdd = spec.vdd_levels[:, None]
    vbb = spec.vbb_levels[None, :]
    freqs = np.linspace(0.75, 1.25, n_freq) * calib.f_nominal

    # Settle temperature per knob combo at the mid frequency (the surface
    # is dominated by the voltage knobs; T feedback is secondary here).
    from ..core.optimizer import _thermal_fixed_point

    rho_i = float(subs.rho[index])
    min_pe = np.full((n_power, n_freq), 1.0)
    powers = None
    pe_knob = np.empty((len(spec.vdd_levels), len(spec.vbb_levels), n_freq))
    pw_knob = np.empty((len(spec.vdd_levels), len(spec.vbb_levels), n_freq))
    for k, f in enumerate(freqs):
        temp, p_dyn = _thermal_fixed_point(
            subs, vdd[..., None], vbb[..., None], float(f), spec.t_heatsink
        )
        p_sta = subs.p_static(vdd[..., None], vbb[..., None], temp)
        d = subs.delay_factor(vdd[..., None], vbb[..., None], temp)
        mean = d[..., index] * subs.stage_mean_rel[index] / calib.f_nominal
        sigma = d[..., index] * subs.stage_sigma_rel[index] / calib.f_nominal
        pe_knob[..., k] = timing_error_cdf(f, mean, sigma, rho_i)
        pw_knob[..., k] = (p_dyn + p_sta)[..., index]

    power_grid = np.linspace(
        float(pw_knob.min()), float(pw_knob.max()), n_power
    )
    for j, budget in enumerate(power_grid):
        allowed = pw_knob <= budget + 1e-12
        masked = np.where(allowed, pe_knob, 1.0)
        min_pe[j] = masked.min(axis=(0, 1))

    params = perf_params_from_measurement(meas, core)
    perf_novar = float(performance(calib.f_nominal, 0.0, params))
    perf_rel = np.empty_like(min_pe)
    for j in range(n_power):
        perf_rel[j] = performance(freqs, min_pe[j], params) / perf_novar

    return Fig9Result(
        power_grid=power_grid,
        freq_rel_grid=freqs / calib.f_nominal,
        min_pe=min_pe,
        perf_rel=perf_rel,
    )
