"""Per-subsystem fuzzy-controller banks (paper Figure 3 / Section 4.3.1).

One *bank* holds, for a given environment's knob set, the trained fuzzy
controllers of every subsystem: one Freq FC (output ``f_max`` in GHz) and,
when the environment exposes the knobs, one Power FC for ``Vdd`` and one
for ``Vbb`` (Figure 3(b) shows two FCs per subsystem in the Power stage).

Subsystems with a second hardware configuration (the resizable queues and
replicated FUs) get separately trained FCs per configuration *variant*,
since the variant changes the stage's delay distribution.

Training is the manufacturer-site procedure: Exhaustive-labelled samples
(:mod:`repro.ml.dataset`) fed to the Appendix A gradient trainer.  Banks
depend only on design-level constants, so one bank serves an entire chip
population; :func:`get_bank` memoises them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
from scipy.special import ndtri

from .. import obs
from ..chip.chip import Core, CoreLanes
from ..core.optimizer import OptimizationSpec
from ..mitigation.base import (
    BASE,
    FU_LOWSLOPE,
    FU_NORMAL,
    QUEUE_FULL,
    QUEUE_RESIZED,
)
from .dataset import TrainingRequest, generate_training_datasets
from .fuzzy import FuzzyController
from .training import DEFAULT_N_RULES, train_fuzzy_controllers

FCKey = Tuple[int, str]  # (subsystem index, variant)


@dataclass
class ControllerBank:
    """Trained fuzzy controllers for one environment's knob set."""

    spec: OptimizationSpec
    freq_fcs: Dict[FCKey, FuzzyController] = field(default_factory=dict)
    vdd_fcs: Dict[FCKey, FuzzyController] = field(default_factory=dict)
    vbb_fcs: Dict[FCKey, FuzzyController] = field(default_factory=dict)
    freq_rmse: Dict[FCKey, float] = field(default_factory=dict)
    #: The core frequency is the MIN of 15 noisy per-subsystem estimates,
    #: which biases it low; biasing each estimate up by its training RMSE
    #: re-centres the min.  Overshoot is cheap — the retuning cycles back
    #: off exponentially (the "Error" outcome of Fig 13) — while
    #: undershoot is sticky, so optimism is the right direction.
    optimism: float = 1.0
    #: Upward bias (volts) applied to Vdd predictions before snapping.
    #: Undervolting the binding subsystem by one 50 mV step costs ~8%
    #: frequency through the retuning back-off, while overvolting costs a
    #: few percent power, so predictions are rounded cautiously upward.
    vdd_caution: float = 0.025

    @property
    def has_vdd(self) -> bool:
        """True when the environment exposes more than one Vdd level."""
        return len(self.spec.vdd_levels) > 1

    @property
    def has_vbb(self) -> bool:
        """True when the environment exposes more than one Vbb level."""
        return len(self.spec.vbb_levels) > 1

    def predict_fmax(
        self,
        lanes: CoreLanes,
        variants: np.ndarray,
        th: float,
        alpha: np.ndarray,
        rho: np.ndarray,
    ) -> np.ndarray:
        """Freq-FC estimates of every lane's per-subsystem max frequency.

        ``variants``, ``alpha`` and ``rho`` are ``(lanes, subsystems)``
        arrays over the lane stack; returns hertz in the same shape.
        Each ``(subsystem, variant)`` FC runs once, over the lanes that
        use it, and every entry equals the one-lane, one-subsystem
        estimate.
        """
        start = time.perf_counter()
        variants, alpha, rho = _lane_arrays(
            lanes, variants=variants, alpha=alpha, rho=rho
        )
        slowness = self.demand(
            lanes, variants, th, rho,
            np.full(lanes.batch_size, lanes.calib.f_nominal),
        )
        ghz = np.empty(variants.shape)
        for index, variant, rows in _fc_groups(variants):
            inputs = np.column_stack([
                slowness[rows, index],
                alpha[rows, index],
                rho[rows, index],
                np.full(len(rows), th),
                lanes.vt0_leak[rows, index],
            ])
            fc = self._fc(self.freq_fcs, index, variant)
            bias = self.optimism * self.freq_rmse.get((index, variant), 0.0)
            ghz[rows, index] = fc.predict_rows(inputs) + bias
        obs.inc("ml.inference_calls", variants.size)
        obs.inc("ml.inference_seconds", time.perf_counter() - start)
        return np.clip(
            ghz * 1e9, self.spec.knob_ranges.f_min, self.spec.knob_ranges.f_max
        )

    def demand(
        self,
        lanes: CoreLanes,
        variants: np.ndarray,
        th: float,
        rho: np.ndarray,
        f_core: np.ndarray,
    ) -> np.ndarray:
        """The Power-FC *demand* feature, computed like the training set.

        Mirrors :func:`repro.ml.dataset.demand_feature` for real cores:
        required speed-up ratio at nominal knobs and a typical local
        temperature rise above the heat sink.  ``f_core`` is one core
        frequency per lane; returns ``(lanes, subsystems)``.
        """
        from .dataset import DEMAND_TEMP_RISE  # local to avoid a cycle

        variants, rho, f_core = _lane_arrays(
            lanes, variants=variants, rho=rho, f_core=f_core
        )
        calib = lanes.calib
        mean = lanes.stage_mean_rel + lanes.tail_rel
        sigma = lanes.stage_sigma_rel
        resized = variants == QUEUE_RESIZED
        factor = calib.queue_resize_delay_factor
        mean = np.where(resized, mean * factor, mean)
        sigma = np.where(resized, sigma * factor, sigma)
        lowslope = variants == FU_LOWSLOPE
        free = mean + calib.z_free * sigma
        sigma_ls = sigma * calib.lowslope_sigma_factor
        mean = np.where(lowslope, free - calib.z_free * sigma_ls, mean)
        sigma = np.where(lowslope, sigma_ls, sigma)
        if self.spec.pe_budget <= 0.0:
            z = calib.z_free
        else:
            quantile = np.minimum(
                self.spec.pe_budget / np.maximum(rho, 1e-12), 0.5
            )
            z = np.clip(ndtri(1.0 - quantile), 0.0, calib.z_free)
        d = lanes.delay_factor(calib.vdd_nominal, 0.0, th + DEMAND_TEMP_RISE)
        return f_core[:, None] / calib.f_nominal * d * (mean + z * sigma)

    def predict_voltages(
        self,
        lanes: CoreLanes,
        variants: np.ndarray,
        th: float,
        alpha: np.ndarray,
        rho: np.ndarray,
        f_core: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Power-FC estimates of (Vdd, Vbb), snapped to the level grids.

        Lane-shaped like :meth:`predict_fmax`, with one core frequency
        per lane in ``f_core``; returns two ``(lanes, subsystems)``
        arrays.
        """
        start = time.perf_counter()
        variants, alpha, rho, f_core = _lane_arrays(
            lanes, variants=variants, alpha=alpha, rho=rho, f_core=f_core
        )
        demand = self.demand(lanes, variants, th, rho, f_core)
        vdd = np.full(variants.shape, float(self.spec.vdd_levels[0]))
        vbb = np.full(variants.shape, float(self.spec.vbb_levels[0]))
        if self.has_vdd or self.has_vbb:
            for index, variant, rows in _fc_groups(variants):
                inputs = np.column_stack(
                    [demand[rows, index], alpha[rows, index]]
                )
                if self.has_vdd:
                    raw = self._fc(self.vdd_fcs, index, variant).predict_rows(
                        inputs
                    )
                    vdd[rows, index] = _snap(
                        raw + self.vdd_caution, self.spec.vdd_levels
                    )
                if self.has_vbb:
                    raw = self._fc(self.vbb_fcs, index, variant).predict_rows(
                        inputs
                    )
                    vbb[rows, index] = _snap(raw, self.spec.vbb_levels)
        obs.inc("ml.inference_calls", variants.size)
        obs.inc("ml.inference_seconds", time.perf_counter() - start)
        return vdd, vbb

    @staticmethod
    def _fc(
        table: Dict[FCKey, FuzzyController], index: int, variant: str
    ) -> FuzzyController:
        try:
            return table[(index, variant)]
        except KeyError:
            raise ValueError(
                f"no fuzzy controller for variant {variant!r} at "
                f"subsystem {index}"
            ) from None

    def variants_for(self, core: Core, index: int) -> Tuple[str, ...]:
        """The variants this bank has FCs for, at a given subsystem."""
        spec = core.floorplan.subsystems[index]
        if spec.resizable:
            return (QUEUE_FULL, QUEUE_RESIZED)
        if spec.replicable:
            return (FU_NORMAL, FU_LOWSLOPE)
        return (BASE,)


def _snap(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Snap raw FC outputs to the nearest legal actuation level.

    Ties go to the first level.
    """
    return levels[np.argmin(np.abs(levels - values[:, None]), axis=1)]


def _lane_arrays(
    lanes: CoreLanes, **arrays: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """The named inputs as arrays, checked against the lane stack.

    ``f_core`` is per lane; every other input is ``(lanes, subsystems)``.
    """
    checked = []
    for name, value in arrays.items():
        value = np.asarray(value)
        expected = (lanes.batch_size,)
        if name != "f_core":
            expected += (lanes.n_subsystems,)
        if value.shape != expected:
            raise ValueError(
                f"{name} must have shape {expected} to match the lane "
                f"stack, got {value.shape}"
            )
        checked.append(value)
    return tuple(checked)


def _fc_groups(variants: np.ndarray):
    """``(subsystem, variant, lane rows)`` for every FC a variant matrix uses."""
    for index in range(variants.shape[1]):
        column = variants[:, index]
        for variant in np.unique(column):
            yield index, str(variant), np.flatnonzero(column == variant)


def _variant_kwargs(core: Core, variant: str) -> Dict[str, float]:
    calib = core.calib
    if variant == QUEUE_RESIZED:
        return {"delay_scale": calib.queue_resize_delay_factor}
    if variant == FU_LOWSLOPE:
        return {
            "sigma_scale": calib.lowslope_sigma_factor,
            "power_factor": calib.lowslope_power_factor,
        }
    return {}


def train_controller_bank(
    core: Core,
    spec: OptimizationSpec,
    n_examples: int = 10000,
    n_rules: int = DEFAULT_N_RULES,
    epochs: int = 2,
    seed: int = 0,
    *,
    include_variants: bool = True,
) -> ControllerBank:
    """Train the full FC bank for one environment (manufacturer-site).

    Args:
        core: A template core — only its design-level constants (``Rth``,
            ``Kdyn``, ``Ksta``, stage shapes) matter, not its particular
            variation sample, because the variation-dependent quantities
            are FC *inputs*.
        spec: The environment's knob availability and constraints.
        n_examples: Training-set size per FC (paper: 10,000).
        n_rules: Fuzzy rules per FC (paper: 25).
        epochs: Gradient passes over the data.
        seed: Base RNG seed.
        include_variants: Train the queue/FU variant FCs too (needed by
            environments with those techniques; skipping them speeds up
            banks for environments without).
    """
    bank = ControllerBank(spec=spec)
    jobs: "list[Tuple[int, str]]" = []
    for index, sub in enumerate(core.floorplan.subsystems):
        variants = [BASE]
        if include_variants and sub.resizable:
            variants = [QUEUE_FULL, QUEUE_RESIZED]
        elif include_variants and sub.replicable:
            variants = [FU_NORMAL, FU_LOWSLOPE]
        jobs.extend((index, variant) for variant in variants)
    # Label every (subsystem, variant) job through the batched oracle:
    # chunks from all jobs stack along the optimizer's lane axis, so the
    # whole bank is labelled by a handful of wide kernel calls instead of
    # one Freq + one Power sweep per chunk per job.
    requests = [
        TrainingRequest(
            index=index,
            seed=seed + 1000 * index + hashish(variant),
            n_examples=n_examples,
            **_variant_kwargs(core, variant),
        )
        for index, variant in jobs
    ]
    with obs.span("ml.label_generation", jobs=len(requests)):
        datasets = generate_training_datasets(core, spec, requests)
    seeds = [seed + index for index, _ in jobs]
    freq = train_fuzzy_controllers(
        [(data[0], data[1]) for data in datasets],
        n_rules=n_rules, epochs=epochs, seeds=seeds,
    )
    for job, (fc, report) in zip(jobs, freq):
        bank.freq_fcs[job] = fc
        bank.freq_rmse[job] = report.final_rmse
    # The Power FCs share inputs (demand, alpha) but keep only the
    # feasible rows, so their datasets differ in length.
    for table, column, levels in (
        (bank.vdd_fcs, 3, spec.vdd_levels),
        (bank.vbb_fcs, 4, spec.vbb_levels),
    ):
        if len(levels) > 1:
            trained = train_fuzzy_controllers(
                [(data[2], data[column]) for data in datasets],
                n_rules=n_rules, epochs=epochs, seeds=seeds,
            )
            for job, (fc, _) in zip(jobs, trained):
                table[job] = fc
    return bank


def hashish(text: str) -> int:
    """Small deterministic hash for seed derivation."""
    return sum(ord(c) * (i + 1) for i, c in enumerate(text))


_BANK_CACHE: Dict[Tuple, ControllerBank] = {}


def get_bank(
    core: Core,
    spec: OptimizationSpec,
    n_examples: int = 10000,
    epochs: int = 2,
    seed: int = 0,
) -> ControllerBank:
    """Memoised :func:`train_controller_bank` keyed on the knob set."""
    key = (
        tuple(np.round(spec.vdd_levels, 4)),
        tuple(np.round(spec.vbb_levels, 4)),
        round(spec.pe_budget, 12),
        round(spec.t_max, 3),
        round(spec.t_heatsink, 3),
        n_examples,
        epochs,
        seed,
    )
    bank = _BANK_CACHE.get(key)
    if bank is None:
        bank = train_controller_bank(
            core, spec, n_examples=n_examples, epochs=epochs, seed=seed
        )
        _BANK_CACHE[key] = bank
    return bank


def clear_bank_cache() -> None:
    """Drop all memoised banks (used by tests)."""
    _BANK_CACHE.clear()
