"""Training datasets for the fuzzy controllers (paper Section 4.3.1).

"We generate each training example by running *Exhaustive* offline" on a
software model of the chip.  Concretely, for each subsystem (and each
configuration variant of the replicated FU / resizable queue) we sample
the variation-dependent and sensed inputs from their physical ranges,
run the Exhaustive Freq/Power algorithms on the batch, and record the
resulting ``f_max`` / ``Vdd`` / ``Vbb`` as targets.

Input vectors (a documented deviation from the paper's raw six inputs —
see DESIGN.md):

* **Freq FC**: ``[slowness, alpha_f, rho, TH, Vt0_leak]`` where
  *slowness* is the stage's cycle-relative critical period at nominal
  knobs — a single tester-derivable figure combining ``Vt0_timing``,
  ``Leff`` and the random-variation tail; the remaining inputs drive the
  thermal cap.
* **Power FCs** (Vdd and Vbb): ``[demand, alpha_f]`` where *demand* is the
  required speed-up ratio ``f_core * T_nom * period_rel(nominal
  conditions)`` — a quantity the controller computes from the same stored
  constants.  Appendix A notes fuzzy rules "can be manually extended with
  expert information"; folding the known physics into this single feature
  is exactly that, and it brings the Vdd accuracy into the paper's
  Table 2 range (14-24 mV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..calibration import Calibration
from ..chip.chip import Core
from ..core.optimizer import (
    OptimizationSpec,
    SubsystemArrays,
    budget_z,
    freq_algorithm,
    power_algorithm,
)
from ..timing.paths import tilt_shift
from ..units import celsius_to_kelvin

#: Column order of the FC input vectors.
FREQ_INPUT_NAMES = ("slowness", "alpha", "rho", "th", "vt0_leak")
POWER_INPUT_NAMES = ("demand", "alpha")

#: Typical local temperature rise above the heat sink assumed when the
#: controller evaluates the *demand* feature (it cannot know the final
#: settled temperature before actuating).
DEMAND_TEMP_RISE = 8.0


@dataclass(frozen=True)
class SampledInputs:
    """A batch of sampled sensed/measured inputs for one subsystem."""

    th: np.ndarray
    alpha: np.ndarray
    rho: np.ndarray
    vt0_timing: np.ndarray
    vt0_leak: np.ndarray
    leff: np.ndarray
    tail: np.ndarray  # final (criticality-scaled) tail, like Core.tail_rel


def sample_inputs(
    core: Core, index: int, n: int, rng: np.random.Generator
) -> SampledInputs:
    """Sample training inputs spanning the physical range of a subsystem.

    Ranges follow the generative variation model: systematic offsets out
    to ~4 amplified sigmas, the per-kind Gumbel tail, activity up to 1.6x
    the reference, heat-sink temperatures from idle to ``TH_MAX``.
    """
    calib: Calibration = core.calib
    params_vt_sigma = 0.15 * 0.09 * np.sqrt(0.5)  # matches VariationParams
    gain = calib.systematic_delay_gain
    spec = core.floorplan.subsystems[index]
    kind = spec.kind

    # Spread: ~2.8 amplified sigmas covers the per-subsystem worst-cell
    # distribution of real chips without wasting training mass on
    # unmanufacturable corners (which would sit in the knob-range clip
    # plateaus and blur the regression in the region that matters).
    vt_spread = gain * params_vt_sigma * 2.8
    leff_spread = gain * 0.045 * np.sqrt(0.5) * 2.8
    vt0_timing = rng.uniform(
        core.vt_mean - vt_spread, core.vt_mean + vt_spread, n
    )
    vt0_leak = vt0_timing - rng.uniform(0.0, 0.6 * vt_spread, n)
    leff = rng.uniform(1.0 - leff_spread, 1.0 + leff_spread, n)

    depth = calib.path_gate_depth[kind]
    count = calib.path_count[kind]
    # Envelope of the build_core tail construction (criticality-scaled).
    sigma_gate = 0.05
    sigma_path = calib.random_delay_gain * sigma_gate / np.sqrt(depth)
    spread = np.sqrt(2.0 * np.log(count))
    tail = rng.uniform(0.0, sigma_path * spread * 1.25, n) * spec.criticality

    return SampledInputs(
        th=rng.uniform(celsius_to_kelvin(45.0), calib.t_heatsink_max, n),
        alpha=rng.uniform(0.02, 1.6 * spec.alpha_ref, n),
        rho=rng.uniform(0.02, 1.8 * spec.rho_ref, n),
        vt0_timing=vt0_timing,
        vt0_leak=vt0_leak,
        leff=leff,
        tail=tail,
    )


def _batch_arrays(
    core: Core,
    index: int,
    samples: SampledInputs,
    *,
    delay_scale: float = 1.0,
    sigma_scale: float = 1.0,
    power_factor: float = 1.0,
) -> SubsystemArrays:
    """Build a SubsystemArrays batch where each row is one sample.

    Mirrors :func:`repro.chip.chip.build_core` (including the stage
    criticality scaling) and the technique transforms of
    :func:`repro.core.optimizer.core_subsystem_arrays`, so training and
    deployment see the same physics.
    """
    calib = core.calib
    spec = core.floorplan.subsystems[index]
    n = len(samples.th)
    sigma_base = calib.stage_sigma[spec.kind] * spec.criticality
    mean_base = calib.stage_mean(spec.kind) * spec.criticality + samples.tail
    mean, sigma = tilt_shift(
        mean_base, sigma_base, calib.z_free, sigma_scale, delay_scale
    )
    return SubsystemArrays(
        vt0_timing=samples.vt0_timing,
        leff_timing=samples.leff,
        vt0_leak=samples.vt0_leak,
        rth=np.full(n, core.rth[index]),
        kdyn=np.full(n, core.kdyn[index]),
        ksta=np.full(n, core.ksta[index]),
        alpha=samples.alpha,
        rho=samples.rho,
        stage_mean_rel=mean,
        stage_sigma_rel=np.broadcast_to(sigma, (n,)).copy()
        if np.ndim(sigma) == 0
        else sigma,
        power_factor=np.full(n, power_factor),
        calib=calib,
        delay_params=core.delay_params,
        vt_sens=core.vt_sens,
        vt_mean=core.vt_mean,
    )


def demand_feature(
    batch: SubsystemArrays, f_core, th, pe_budget: float
) -> np.ndarray:
    """The Power-FC *demand* input: required speed-up at nominal knobs.

    ``demand = f_core * T_nom_cycle * period_rel(Vdd_nom, Vbb=0,
    TH + rise)`` — above 1.0 the subsystem must be boosted to meet
    ``f_core``; below 1.0 it has slack to trade for power.
    """
    calib = batch.calib
    z = budget_z(batch, pe_budget)
    period_rel = batch.budget_period_rel(
        calib.vdd_nominal,
        0.0,
        np.asarray(th, dtype=float) + DEMAND_TEMP_RISE,
        z,
    )
    return np.asarray(f_core, dtype=float) / calib.f_nominal * period_rel


@dataclass(frozen=True)
class TrainingRequest:
    """One (subsystem, configuration-variant) oracle-labelling job.

    ``delay_scale`` / ``sigma_scale`` / ``power_factor`` carry the
    technique-variant transforms (resized queue, low-slope FU).
    """

    index: int
    seed: int
    n_examples: int = 10000
    delay_scale: float = 1.0
    sigma_scale: float = 1.0
    power_factor: float = 1.0


def _draw_request(
    core: Core, request: TrainingRequest, chunk: int
) -> "List[Tuple[SampledInputs, SubsystemArrays, np.ndarray]]":
    """Draw a request's RNG stream chunk by chunk.

    The draw order per chunk is the seven :func:`sample_inputs` streams,
    then the ``f_core`` uniforms that place each sample's Power target
    between ``f_min`` and its own ``f_max``; the oracle consumes no RNG.
    """
    rng = np.random.default_rng(request.seed)
    chunks = []
    remaining = request.n_examples
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        samples = sample_inputs(core, request.index, n, rng)
        f_core_u = rng.uniform(0.0, 1.0, n)
        arrays = _batch_arrays(
            core,
            request.index,
            samples,
            delay_scale=request.delay_scale,
            sigma_scale=request.sigma_scale,
            power_factor=request.power_factor,
        )
        chunks.append((samples, arrays, f_core_u))
    return chunks


def generate_training_datasets(
    core: Core,
    spec: OptimizationSpec,
    requests: Sequence[TrainingRequest],
    *,
    chunk: int = 2500,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Label many (subsystem, variant) training sets in one oracle pass.

    Each request draws its own RNG stream in chunks of ``chunk``
    samples; then every drawn sample of every request is labelled by one
    Freq call and one Power call on the joined batch.  The optimiser
    sweeps that batch in slices within its share of
    :data:`~repro.core.optimizer.MAX_SWEEP_CELLS`, and every sample's
    labels are a function of that sample alone, so they do not depend
    on which other samples or requests share the call.

    Returns one ``(freq_inputs, f_max_ghz, power_inputs, vdd, vbb)``
    tuple per request, in request order; each equals the tuple the
    request gets when it is labelled alone.
    """
    parts = [
        part for request in requests
        for part in _draw_request(core, request, chunk)
    ]
    batch = SubsystemArrays.concatenate([arrays for _, arrays, _ in parts])
    th = np.concatenate([samples.th for samples, _, _ in parts])
    f_core_u = np.concatenate([u for _, _, u in parts])

    freq_result = freq_algorithm(batch, spec)
    f_min = spec.knob_ranges.f_min
    f_core = np.maximum(f_min + f_core_u * (freq_result.f_max - f_min), f_min)
    power_result = power_algorithm(batch, f_core, spec)

    slowness = demand_feature(batch, core.calib.f_nominal, th, spec.pe_budget)
    freq_inputs = np.column_stack(
        [slowness, batch.alpha, batch.rho, th, batch.vt0_leak]
    )
    demand = demand_feature(batch, f_core, th, spec.pe_budget)
    power_inputs = np.column_stack([demand, batch.alpha])

    datasets = []
    end = 0
    for request in requests:
        mine = slice(end, end + request.n_examples)
        end = mine.stop
        ok = power_result.feasible[mine]
        datasets.append((
            freq_inputs[mine],
            freq_result.f_max[mine] / 1e9,
            power_inputs[mine][ok],
            power_result.vdd[mine][ok],
            power_result.vbb[mine][ok],
        ))
    return datasets
