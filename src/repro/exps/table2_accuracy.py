"""Table 2: fuzzy controller vs Exhaustive selection accuracy.

Mean absolute difference between the FC-chosen and Exhaustive-chosen
frequency, Vdd and Vbb, grouped by subsystem type (memory / mixed /
logic), for the four knob environments of the controller study.
The paper reports ~135-450 MHz (3.3-11%) for frequency, 14-24 mV for
Vdd and 69-129 mV for Vbb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..chip.chip import CoreLanes
from ..core.environments import (
    CONTROLLER_STUDY_ENVIRONMENTS,
    Environment,
)
from ..core.optimizer import core_subsystem_arrays, freq_algorithm, power_algorithm
from .runner import ExperimentRunner, RunnerConfig

KINDS = ("memory", "mixed", "logic")


def _kind_mean(diffs: np.ndarray, mask: np.ndarray) -> np.floating:
    """Mean over one kind's subsystems, in (core, workload, subsystem)
    order."""
    return np.mean(diffs[:, :, mask].ravel())


@dataclass
class Table2Result:
    """Mean |FC - Exhaustive| per parameter, environment and kind."""

    freq_mhz: Dict[str, Dict[str, float]]  # env -> kind -> MHz
    vdd_mv: Dict[str, Dict[str, float]]  # only for ASV-capable envs
    vbb_mv: Dict[str, Dict[str, float]]  # only for ABB-capable envs
    f_nominal: float = 4e9

    def rows(self) -> List[List[str]]:
        """Render the Table 2 layout (parameter x environment x kind)."""
        rows = []
        for env, kinds in self.freq_mhz.items():
            row = ["Freq (MHz)", env]
            for kind in KINDS:
                mhz = kinds[kind]
                row.append(f"{mhz:.0f} ({100 * mhz * 1e6 / self.f_nominal:.1f}%)")
            rows.append(row)
        for env, kinds in self.vdd_mv.items():
            rows.append(
                ["Vdd (mV)", env] + [f"{kinds[kind]:.0f}" for kind in KINDS]
            )
        for env, kinds in self.vbb_mv.items():
            rows.append(
                ["Vbb (mV)", env] + [f"{kinds[kind]:.0f}" for kind in KINDS]
            )
        return rows


def run_table2(
    runner: Optional[ExperimentRunner] = None,
    environments: Optional[List[Environment]] = None,
    n_workloads: int = 4,
) -> Table2Result:
    """Compare FC and Exhaustive selections across the population."""
    runner = runner or ExperimentRunner(RunnerConfig(n_chips=6))
    environments = environments or CONTROLLER_STUDY_ENVIRONMENTS
    workloads = runner.workloads[:n_workloads]

    freq_mhz: Dict[str, Dict[str, float]] = {}
    vdd_mv: Dict[str, Dict[str, float]] = {}
    vbb_mv: Dict[str, Dict[str, float]] = {}

    cores = list(runner.cores())
    lanes = CoreLanes.stack(cores)
    kinds = np.array(cores[0].kinds)
    for env in environments:
        bank = runner.bank_for(env)
        spec = env.optimization_spec(15, runner.calib)
        variants = np.tile(
            [bank.variants_for(cores[0], i)[0] for i in range(len(kinds))],
            (len(cores), 1),
        )
        # (cores, workloads, subsystems) |FC - Exhaustive| differences.
        diff_f, diff_vdd, diff_vbb = (
            np.empty((len(cores), len(workloads), len(kinds)))
            for _ in range(3)
        )
        for w, workload in enumerate(workloads):
            meas, _ = runner.measurements(workload, env)
            alpha = np.tile(meas.activity, (len(cores), 1))
            rho = np.tile(meas.rho, (len(cores), 1))
            exh_f, exh_vdd, exh_vbb, f_core = [], [], [], []
            for core in cores:
                subs = core_subsystem_arrays(core, meas.activity, meas.rho)
                exh = freq_algorithm(subs, spec)
                f_core.append(exh.core_frequency(spec.knob_ranges))
                power = power_algorithm(subs, f_core[-1], spec)
                exh_f.append(exh.f_max)
                exh_vdd.append(power.vdd)
                exh_vbb.append(power.vbb)
            fc_f = bank.predict_fmax(
                lanes, variants, spec.t_heatsink, alpha, rho
            )
            fc_vdd, fc_vbb = bank.predict_voltages(
                lanes, variants, spec.t_heatsink, alpha, rho,
                np.array(f_core),
            )
            diff_f[:, w] = np.abs(fc_f - np.array(exh_f))
            diff_vdd[:, w] = np.abs(fc_vdd - np.array(exh_vdd))
            diff_vbb[:, w] = np.abs(fc_vbb - np.array(exh_vbb))

        freq_mhz[env.name] = {
            kind: float(_kind_mean(diff_f, kinds == kind) / 1e6)
            for kind in KINDS
        }
        if env.asv:
            vdd_mv[env.name] = {
                kind: float(_kind_mean(diff_vdd, kinds == kind) * 1e3)
                for kind in KINDS
            }
        if env.abb:
            vbb_mv[env.name] = {
                kind: float(_kind_mean(diff_vbb, kinds == kind) * 1e3)
                for kind in KINDS
            }
    return Table2Result(
        freq_mhz=freq_mhz,
        vdd_mv=vdd_mv,
        vbb_mv=vbb_mv,
        f_nominal=runner.calib.f_nominal,
    )
