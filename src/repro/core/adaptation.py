"""High-dimensional dynamic adaptation (paper Section 4).

This is the paper's key technique: at every phase boundary, jointly pick
the core frequency, per-subsystem (Vdd, Vbb), the issue-queue size, and
which FU replica to enable — within the temperature, power and error-rate
constraints.  The search is decomposed per Section 4.2:

1. **Freq**: each subsystem independently finds its maximum frequency
   (Exhaustive grid sweep, or the trained fuzzy controllers); the core
   frequency is the minimum.
2. **FU replication**: the Figure 4 rule — enable the low-slope replica
   only when the normal FU is the processor bottleneck.
3. **Queue resizing**: estimate Eq 5 performance with both queue sizes
   (using their separately measured ``CPIcomp``) and keep the winner.
4. **Power**: each subsystem re-minimises its power at the chosen core
   frequency.
5. **Retuning cycles** absorb controller inaccuracy and the global
   power-budget check (Section 4.3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chip.chip import Core, CoreLanes, stackable
from ..chip.floorplan import Floorplan
from ..microarch.simulator import WorkloadMeasurement
from ..mitigation.base import (
    BASE,
    FU_LOWSLOPE,
    FU_NORMAL,
    QUEUE_FULL,
    QUEUE_RESIZED,
    TechniqueState,
)
from ..mitigation.fu_replication import choose_fu_implementation
from ..mitigation.queue_resize import choose_queue_size
from ..timing.paths import tilt_shift
from ..timing.speculation import CheckerConfig, PerfParams, performance
from .environments import AdaptationMode, Environment
from .optimizer import (
    OptimizationSpec,
    SubsystemArrays,
    freq_algorithm,
    power_algorithm,
)
from .retuning import Outcome, retune_batched
from .state import (
    Configuration,
    EvaluatedState,
    evaluate_configurations,
)

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from ..ml.bank import ControllerBank


@dataclass(frozen=True)
class AdaptationResult:
    """Everything the runner needs about one adaptation decision."""

    environment: Environment
    mode: AdaptationMode
    config: Configuration  # final (post-retuning) configuration
    state: EvaluatedState  # settled physics at that configuration
    outcome: Outcome
    f_controller: float  # frequency the controller initially chose
    measurement: WorkloadMeasurement  # the phase measurement actually used
    performance_ips: float  # Eq 5 instructions/second at the final point

    @property
    def f_core(self) -> float:
        """Final core frequency in hertz."""
        return self.config.f_core


def perf_params_from_measurement(
    meas: WorkloadMeasurement, core: Core
) -> PerfParams:
    """Assemble the Eq 5 parameters for one measured phase."""
    calib = core.calib
    return PerfParams(
        cpi_comp=meas.cpi_comp,
        l2_miss_rate=meas.l2_miss_rate,
        recovery_penalty=calib.recovery_penalty_cycles,
        memory_latency_s=calib.memory_latency_seconds,
        overlap_factor=meas.overlap_factor,
    )


def _fuzzy_variant(
    floorplan: Floorplan, index: int, env: Environment,
    technique: TechniqueState,
) -> str:
    """Which FC variant applies at a subsystem for a technique state."""
    sub = floorplan.subsystems[index]
    if sub.resizable:
        if env.queue and sub.domain == technique.domain and not technique.queue_full:
            return QUEUE_RESIZED
        return QUEUE_FULL
    if sub.replicable:
        if env.fu and sub.domain == technique.domain and technique.lowslope:
            return FU_LOWSLOPE
        return FU_NORMAL
    return BASE


def _distinct(items: Sequence, key=id) -> "Tuple[list, np.ndarray]":
    """The distinct items, in first-seen order, and each item's slot.

    A unit block repeats each technique and measurement across its
    units, so per-lane tables are built once per distinct entry and
    gathered through the slots (cores go through
    :meth:`~repro.chip.chip.CoreLanes.gather`).
    """
    slots: Dict = {}
    distinct: list = []
    index = np.empty(len(items), dtype=np.intp)
    for lane, item in enumerate(items):
        slot = slots.setdefault(key(item), len(distinct))
        if slot == len(distinct):
            distinct.append(item)
        index[lane] = slot
    return distinct, index


def _fuzzy_inputs(
    cores: Sequence[Core],
    env: Environment,
    techniques: Sequence[TechniqueState],
    measurements: Sequence[WorkloadMeasurement],
) -> "Tuple[Core | CoreLanes, np.ndarray, np.ndarray, np.ndarray]":
    """The bank's lane inputs: the lane model of the cores and
    ``(lanes, n)`` variant, activity and rho arrays."""
    lanes = CoreLanes.gather(cores)
    floorplan = lanes.floorplan
    distinct_techniques, tech_index = _distinct(
        techniques, key=lambda technique: technique
    )
    variants = np.array([
        [_fuzzy_variant(floorplan, i, env, technique)
         for i in range(len(floorplan))]
        for technique in distinct_techniques
    ])[tech_index]
    return (lanes, variants) + _lane_measurements(measurements)


def _lane_measurements(
    measurements: Sequence[WorkloadMeasurement],
) -> "Tuple[np.ndarray, np.ndarray]":
    """``(lanes, n)`` activity and rho, stacked once per distinct
    measurement."""
    distinct, index = _distinct(measurements)
    alpha = np.stack([np.asarray(m.activity, dtype=float) for m in distinct])
    rho = np.stack([np.asarray(m.rho, dtype=float) for m in distinct])
    return alpha[index], rho[index]


def _lane_fmax(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    techniques: Sequence[TechniqueState],
    measurements: Sequence[WorkloadMeasurement],
    mode: AdaptationMode,
    bank: "Optional[ControllerBank]",
) -> np.ndarray:
    """Per-lane, per-subsystem max frequency under each lane's technique.

    Fuzzy-Dyn makes one lane-shaped ``bank.predict_fmax`` call over all
    lanes and subsystems; every other mode runs one stacked exhaustive
    ``freq_algorithm`` sweep.
    """
    if mode is AdaptationMode.FUZZY_DYN:
        if bank is None:
            raise ValueError("Fuzzy-Dyn requires a trained controller bank")
        lanes, variants, alpha, rho = _fuzzy_inputs(
            cores, env, techniques, measurements
        )
        return bank.predict_fmax(lanes, variants, spec.t_heatsink, alpha, rho)
    stack = _stacked_phase_arrays(cores, techniques, measurements)
    return freq_algorithm(stack, spec).f_max


def _freq_stage(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    stages: Sequence[Tuple[Sequence[WorkloadMeasurement], bool]],
    mode: AdaptationMode,
    bank: "Optional[ControllerBank]",
) -> "List[Tuple[List[TechniqueState], List[float]]]":
    """Freq algorithm + the Figure 4 FU-replication decision, per lane.

    ``stages`` lists ``(measurements, queue_full)`` pairs over the same
    lanes: the full queue and, with queue resizing, the resized one.
    Every stage's normal and (with FU replication) low-slope technique
    lanes go to one :func:`_lane_fmax` call, so the exhaustive sweep
    solves each subsystem row they share once: the replica changes only
    the FU column's sigma scale and power factor, and a resized-queue
    lane repeats many of its full-queue twin's rows.  Returns one
    ``(techniques, f_core)`` pair per stage.
    """
    n_lanes = len(cores)
    copies = 2 if env.fu else 1
    lane_techniques: List[TechniqueState] = []
    lane_measurements: List[WorkloadMeasurement] = []
    for measurements, queue_full in stages:
        techniques = [
            TechniqueState(queue_full=queue_full, lowslope=False, domain=m.domain)
            for m in measurements
        ]
        lane_techniques += techniques
        if env.fu:
            lane_techniques += [replace(t, lowslope=True) for t in techniques]
        lane_measurements += list(measurements) * copies
    fmax_all = _lane_fmax(
        list(cores) * (copies * len(stages)), env, spec, lane_techniques,
        lane_measurements, mode, bank,
    )
    return [
        _fu_decision(
            cores, env, spec,
            lane_techniques[start:start + copies * n_lanes],
            fmax_all[start:start + copies * n_lanes],
        )
        for start in range(0, len(lane_techniques), copies * n_lanes)
    ]


def _fu_decision(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    techniques: List[TechniqueState],
    fmax: np.ndarray,
) -> "Tuple[List[TechniqueState], List[float]]":
    """One queue stage's Figure 4 FU rule and per-lane core frequency.

    ``techniques`` and ``fmax`` hold the stage's normal lanes followed,
    with FU replication, by their low-slope twins.
    """
    n_lanes = len(cores)
    techniques, lowslope = techniques[:n_lanes], techniques[n_lanes:]
    if env.fu:
        fmax, fmax_ls = fmax[:n_lanes], fmax[n_lanes:]
        # Per-lane inputs to the Figure 4 rule, gathered in one shot:
        # masking the FU column to +inf leaves min() over exactly the
        # subsystems other than the FU.
        index_of = cores[0].floorplan.index_of
        lanes_ix = np.arange(n_lanes)
        fu_idx = np.array(
            [index_of(t.fu_name) for t in techniques], dtype=np.intp
        )
        f_fu = fmax[lanes_ix, fu_idx]
        f_fu_ls = fmax_ls[lanes_ix, fu_idx]
        rest = fmax.copy()
        rest[lanes_ix, fu_idx] = np.inf
        f_rest = rest.min(axis=1)
        for lane in range(n_lanes):
            decision = choose_fu_implementation(
                f_normal=float(f_fu[lane]),
                f_lowslope=float(f_fu_ls[lane]),
                f_rest=float(f_rest[lane]),
            )
            if decision.use_lowslope:
                techniques[lane] = lowslope[lane]
                fmax[lane] = fmax_ls[lane]
    f_core = [
        spec.knob_ranges.clamp_frequency(float(f))
        for f in fmax.min(axis=1)
    ]
    return techniques, f_core


def _power_stage(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    techniques: Sequence[TechniqueState],
    measurements: Sequence[WorkloadMeasurement],
    freqs: Sequence[float],
    mode: AdaptationMode,
    bank: "Optional[ControllerBank]",
) -> "Tuple[List[np.ndarray], List[np.ndarray]]":
    """Per-lane (Vdd, Vbb) minimising power at each lane's frequency.

    Without ASV or ABB the voltages are nominal; Fuzzy-Dyn makes one
    lane-shaped ``bank.predict_voltages`` call over all lanes and
    subsystems; every other mode runs one stacked exhaustive
    ``power_algorithm`` sweep.
    """
    if not env.asv and not env.abb:
        return (
            [np.full(c.n_subsystems, c.calib.vdd_nominal) for c in cores],
            [np.zeros(c.n_subsystems) for c in cores],
        )
    if mode is AdaptationMode.FUZZY_DYN:
        lanes, variants, alpha, rho = _fuzzy_inputs(
            cores, env, techniques, measurements
        )
        vdd, vbb = bank.predict_voltages(
            lanes, variants, spec.t_heatsink, alpha, rho, np.array(freqs)
        )
        return list(vdd), list(vbb)
    stack = _stacked_phase_arrays(cores, techniques, measurements)
    power = power_algorithm(stack, np.array(freqs), spec)
    return list(power.vdd), list(power.vbb)


def _finish(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    mode: AdaptationMode,
    bank: "Optional[ControllerBank]",
    techniques: Sequence[TechniqueState],
    meas: Sequence[WorkloadMeasurement],
    f: List[float],
    vdd: List[np.ndarray],
    vbb: List[np.ndarray],
    retune_enabled: bool,
) -> List[AdaptationResult]:
    """Power-budget enforcement, retuning and result assembly per lane.

    Each round of constraint checks across the still-active lanes is one
    :func:`~repro.core.state.evaluate_configurations` call and each
    Power-stage re-run one :func:`_power_stage` call; lanes retire from
    each loop exactly when they would alone.  ``f``, ``vdd`` and ``vbb``
    are updated in place.
    """
    knobs = spec.knob_ranges
    step = knobs.f_step
    n_lanes = len(cores)
    population = CoreLanes.gather(cores)

    def configuration(i: int) -> Configuration:
        return Configuration(
            f_core=f[i], vdd=vdd[i], vbb=vbb[i], technique=techniques[i]
        )

    def check(lanes: List[int]) -> List[EvaluatedState]:
        return evaluate_configurations(
            population.lane_subset(np.asarray(lanes, dtype=int)),
            [configuration(i) for i in lanes],
            [meas[i].activity for i in lanes],
            [meas[i].rho for i in lanes],
            spec.t_heatsink,
            checker=env.checker,
        )

    # Section 4.2's final check: overall processor power below PMAX.  The
    # controller models power with the same Eq 6-9 constants it senses, so
    # on a violation it lowers the core frequency and re-runs the Power
    # stage (which relaxes per-subsystem voltages) until the budget fits.
    active = [i for i in range(n_lanes) if f[i] - 2 * step >= knobs.f_min]
    while active:
        over = [
            i for i, state in zip(active, check(active))
            if state.total_power > cores[i].calib.p_max
        ]
        if not over:
            break
        for i in over:
            f[i] -= 2 * step
        new_vdd, new_vbb = _power_stage(
            [cores[i] for i in over], env, spec,
            [techniques[i] for i in over], [meas[i] for i in over],
            [f[i] for i in over], mode, bank,
        )
        for i, lane_vdd, lane_vbb in zip(over, new_vdd, new_vbb):
            vdd[i], vbb[i] = lane_vdd, lane_vbb
        active = [i for i in over if f[i] - 2 * step >= knobs.f_min]

    configs = [configuration(i) for i in range(n_lanes)]
    if retune_enabled:
        # Section 4.3.3 retuning cycles, lane-masked (see retune_batched()).
        retuned = retune_batched(
            cores,
            configs,
            [m.activity for m in meas],
            [m.rho for m in meas],
            pe_max=cores[0].calib.pe_max if env.checker else 1e-12,
            checker=env.checker,
            knob_ranges=knobs,
            t_heatsink=spec.t_heatsink,
        )
        settled = [(r.config, r.state, r.outcome) for r in retuned]
    else:
        settled = [
            (config, state, Outcome.NO_CHANGE)
            for config, state in zip(configs, check(list(range(n_lanes))))
        ]

    results = []
    for i, (config, state, outcome) in enumerate(settled):
        params = perf_params_from_measurement(meas[i], cores[i])
        pe_effective = state.pe_total if env.checker else 0.0
        perf = float(performance(config.f_core, pe_effective, params))
        if env.checker:
            perf = float(CheckerConfig().cap_performance(perf))
        results.append(
            AdaptationResult(
                environment=env,
                mode=mode,
                config=config,
                state=state,
                outcome=outcome,
                f_controller=f[i],
                measurement=meas[i],
                performance_ips=perf,
            )
        )
    return results


#: Core array fields passed straight into a :class:`SubsystemArrays`
#: lane stack (everything except the technique-scaled mean/sigma).
_CORE_PASSTHROUGH_FIELDS = (
    "vt0_timing",
    "leff_timing",
    "vt0_leak",
    "rth",
    "kdyn",
    "ksta",
)


def _stacked_phase_arrays(
    cores: Sequence[Core],
    techniques: Sequence[TechniqueState],
    measurements: Sequence[WorkloadMeasurement],
) -> SubsystemArrays:
    """One ``(B, n)`` optimiser stack built without per-lane assembly.

    Bit-identical to stacking one
    :func:`~repro.core.optimizer.core_subsystem_arrays` view per lane:
    the lane model of :meth:`~repro.chip.chip.CoreLanes.gather` holds
    exactly the values ``np.stack`` would have copied, and
    :func:`~repro.timing.paths.tilt_shift` applies the technique
    scaling to the ``(B, n)`` operands.  What it skips is the per-lane
    Python: a unit block repeats each core across its phases and each
    (technique, measurement) across its units, so the distinct tables
    stay tiny while lanes number in the hundreds — this construction is
    what lets the population-tier batch amortise instead of paying
    O(lanes) object assembly.
    """
    first = cores[0]
    calib = first.calib
    lanes = CoreLanes.gather(cores)
    shape = (len(cores), lanes.n_subsystems)

    def gather(field: str) -> np.ndarray:
        # Contiguous (B, n) rows even when one core serves every lane: on
        # a stride-0 lane axis numpy runs one n-long inner loop per lane,
        # and the Freq/Power sweeps of a 30-lane block took ~35% longer.
        return np.ascontiguousarray(np.broadcast_to(getattr(lanes, field), shape))

    alpha, rho = _lane_measurements(measurements)

    # Technique modifiers depend only on the floorplan and calibration,
    # which every stacked core shares (``CoreLanes.stack`` refuses
    # others) — one build per distinct state covers every lane using it.
    distinct_techniques, tech_index = _distinct(
        techniques, key=lambda technique: technique
    )
    modifiers = [t.stage_modifiers(first) for t in distinct_techniques]
    delay_scale = np.stack([m.delay_scale for m in modifiers])[tech_index]
    sigma_scale = np.stack([m.sigma_scale for m in modifiers])[tech_index]
    power_rows = [t.power_factors(first) for t in distinct_techniques]

    mean, sigma = tilt_shift(
        gather("stage_mean_rel") + gather("tail_rel"),
        gather("stage_sigma_rel"),
        calib.z_free,
        sigma_scale,
        delay_scale,
    )

    arrays = {name: gather(name) for name in _CORE_PASSTHROUGH_FIELDS}
    return SubsystemArrays(
        alpha=alpha,
        rho=rho,
        stage_mean_rel=mean,
        stage_sigma_rel=sigma,
        power_factor=np.stack(power_rows)[tech_index],
        calib=calib,
        delay_params=first.delay_params,
        vt_sens=first.vt_sens,
        vt_mean=first.vt_mean,
        **arrays,
    )


def optimize_units_batched(
    units: Sequence[
        "Tuple[Core, Sequence[Tuple[WorkloadMeasurement, Optional[WorkloadMeasurement]]]]"
    ],
    env: Environment,
    mode: AdaptationMode = AdaptationMode.EXH_DYN,
    bank: "Optional[ControllerBank]" = None,
    *,
    spec: Optional[OptimizationSpec] = None,
    retune_enabled: bool = True,
) -> List[List[AdaptationResult]]:
    """Run the Section 4.2 adaptation for every phase of many units.

    The one implementation of the adaptation procedure.  ``units`` is a
    sequence of ``(core, phases)`` pairs, where ``phases`` lists
    ``(meas_full, meas_resized)`` measurement pairs (``meas_resized``
    may be ``None`` when the environment does not resize queues).  All
    phases of all units are flattened onto one lane axis, and each stage
    runs once for every lane: Freq over the full and the resized queue
    together, the Figure 4 FU rule and the queue decision per lane,
    Power at the chosen frequencies, then the PMAX loop and the retuning
    cycles.  Each lane follows exactly the decision sequence it would
    follow alone.

    ``mode`` selects the controller: Fuzzy-Dyn asks the trained ``bank``,
    every other mode sweeps exhaustively (Static is Exh-Dyn on the
    aggregated measurement).  ``retune_enabled=False`` keeps the raw
    controller output (the retuning ablation).  A population whose cores
    cannot share lanes (see :func:`~repro.chip.chip.stackable`, e.g. a
    NoVar core next to a varied core) runs the same program once per
    unit.  Returns one result list per unit, in phase order.
    """
    units = [(core, list(phases)) for core, phases in units]
    if not stackable([core for core, _ in units]):
        return [
            optimize_units_batched(
                [unit], env, mode, bank, spec=spec,
                retune_enabled=retune_enabled,
            )[0]
            for unit in units
        ]
    cores = [core for core, phases in units for _ in phases]
    pairs = [pair for _, phases in units for pair in phases]
    if not pairs:
        return [[] for _ in units]
    if env.queue and any(resized is None for _, resized in pairs):
        raise ValueError(f"{env.name} resizes queues: meas_resized required")
    spec = spec or env.optimization_spec(cores[0].n_subsystems, cores[0].calib)

    full = [meas for meas, _ in pairs]
    resized = [meas_resized for _, meas_resized in pairs]
    stages = [(full, True), (resized, False)] if env.queue else [(full, True)]
    decided = _freq_stage(cores, env, spec, stages, mode, bank)
    techniques, f = decided[0]
    meas = list(full)
    if env.queue:
        techniques_rs, f_rs = decided[1]
        pe_target = cores[0].calib.pe_max if env.checker else 0.0
        for lane, core in enumerate(cores):
            decision = choose_queue_size(
                f[lane],
                perf_params_from_measurement(full[lane], core),
                f_rs[lane],
                perf_params_from_measurement(resized[lane], core),
                pe_target,
            )
            if not decision.use_full:
                techniques[lane] = techniques_rs[lane]
                meas[lane] = resized[lane]
                f[lane] = f_rs[lane]

    vdd, vbb = _power_stage(cores, env, spec, techniques, meas, f, mode, bank)
    flat = _finish(
        cores, env, spec, mode, bank, techniques, meas, f, vdd, vbb,
        retune_enabled,
    )
    results: List[List[AdaptationResult]] = []
    position = 0
    for _, phases in units:
        results.append(flat[position:position + len(phases)])
        position += len(phases)
    return results


def optimize_phases_batched(
    core: Core,
    env: Environment,
    phases: Sequence[
        "Tuple[WorkloadMeasurement, Optional[WorkloadMeasurement]]"
    ],
    mode: AdaptationMode = AdaptationMode.EXH_DYN,
    bank: "Optional[ControllerBank]" = None,
    *,
    spec: Optional[OptimizationSpec] = None,
    retune_enabled: bool = True,
) -> List[AdaptationResult]:
    """Adapt many phases of one core: the one-unit
    :func:`optimize_units_batched` call."""
    return optimize_units_batched(
        [(core, phases)], env, mode, bank, spec=spec,
        retune_enabled=retune_enabled,
    )[0]


def optimize_phase(
    core: Core,
    env: Environment,
    meas_full: WorkloadMeasurement,
    meas_resized: Optional[WorkloadMeasurement] = None,
    mode: AdaptationMode = AdaptationMode.EXH_DYN,
    bank: "Optional[ControllerBank]" = None,
    *,
    spec: Optional[OptimizationSpec] = None,
    retune_enabled: bool = True,
) -> AdaptationResult:
    """Run one full adaptation for a phase: the one-lane
    :func:`optimize_units_batched` call.

    Args:
        core: The physical core.
        env: The capability environment (Table 1).
        meas_full: Phase measurement with the full-size issue queue (and
            the replication pipeline stage if ``env.fu``).
        meas_resized: Phase measurement with the 3/4 queue; required when
            ``env.queue``.
        mode: Static / Fuzzy-Dyn / Exh-Dyn.  (For Static, pass the
            aggregated worst-case measurement as ``meas_full``.)
        bank: Trained fuzzy controllers (Fuzzy-Dyn only).
        spec: Optional pre-built optimisation spec (else derived from the
            environment).
        retune_enabled: Disable to study the raw controller output (the
            retuning ablation).
    """
    return optimize_phases_batched(
        core, env, [(meas_full, meas_resized)], mode, bank, spec=spec,
        retune_enabled=retune_enabled,
    )[0]


def aggregate_static_measurement(
    measurements: List[WorkloadMeasurement],
) -> WorkloadMeasurement:
    """Worst-case aggregate for the Static mode.

    Static configurations must cover the workload mix without collapsing
    to the single most extreme phase, so thermal and error inputs take a
    high percentile across phases; performance inputs take means (they
    only rank queue sizes).
    """
    if not measurements:
        raise ValueError("need at least one measurement")
    activity = np.percentile([m.activity for m in measurements], 90, axis=0)
    rho = np.percentile([m.rho for m in measurements], 95, axis=0)
    domains = {m.domain for m in measurements}
    return WorkloadMeasurement(
        name="static-worst-case",
        phase="all",
        domain=measurements[0].domain if len(domains) == 1 else "int",
        cpi_comp=float(np.mean([m.cpi_comp for m in measurements])),
        cpi_total=float(np.mean([m.cpi_total for m in measurements])),
        l2_miss_rate=float(np.mean([m.l2_miss_rate for m in measurements])),
        overlap_factor=float(np.mean([m.overlap_factor for m in measurements])),
        activity=activity,
        rho=rho,
        ipc=float(np.mean([m.ipc for m in measurements])),
    )


def evaluate_at_fixed_config(
    units: Sequence[Tuple[Core, Configuration]],
    env: Environment,
    measurements: Sequence[WorkloadMeasurement],
) -> List[List[AdaptationResult]]:
    """Evaluate each unit's (static) configuration on every measurement,
    without adapting.

    ``units`` pairs each core with its configuration.  Every (unit,
    measurement) lane settles in one
    :func:`~repro.core.state.evaluate_configurations` call over the
    stacked cores; a population whose cores cannot stack runs once per
    unit.  Returns one result list per unit, in measurement order.
    """
    units = list(units)
    measurements = list(measurements)
    if not measurements:
        return [[] for _ in units]
    if not stackable([core for core, _ in units]):
        return [
            evaluate_at_fixed_config([unit], env, measurements)[0]
            for unit in units
        ]
    cores = [core for core, _ in units for _ in measurements]
    configs = [config for _, config in units for _ in measurements]
    meas = measurements * len(units)
    states = evaluate_configurations(
        CoreLanes.gather(cores),
        configs,
        [m.activity for m in meas],
        [m.rho for m in meas],
        checker=env.checker,
    )
    results = []
    for core, config, m, state in zip(cores, configs, meas, states):
        params = perf_params_from_measurement(m, core)
        pe_effective = state.pe_total if env.checker else 0.0
        results.append(
            AdaptationResult(
                environment=env,
                mode=AdaptationMode.STATIC,
                config=config,
                state=state,
                outcome=Outcome.NO_CHANGE,
                f_controller=config.f_core,
                measurement=m,
                performance_ips=float(
                    performance(config.f_core, pe_effective, params)
                ),
            )
        )
    width = len(measurements)
    return [
        results[start:start + width]
        for start in range(0, len(results), width)
    ]
