"""Fusing variation maps with the floorplan: per-core model parameters.

A :class:`Core` is the central physical object of the library: it holds,
for each of the 15 subsystems, the manufacturer-measurable constants of
Section 4.1 (``Rth``, ``Kdyn``, ``Ksta``, ``Vt0``) plus the
variation-afflicted timing parameters the VATS error model needs.  All
values are stored as numpy arrays in canonical subsystem order so the
optimisation algorithms can operate fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..backend import get_backend
from ..calibration import DEFAULT_CALIBRATION, Calibration
from ..circuits.delay import DEFAULT_DELAY_PARAMS, DelayParams, gate_delay
from ..circuits.knobs import DEFAULT_VT_SENSITIVITIES, VtSensitivities, threshold_voltage
from ..circuits.leakage import IDEALITY_FACTOR, static_power
from ..units import Q_OVER_K
from ..variation.maps import ChipSample
from .floorplan import Floorplan, default_floorplan

#: Quadrant origins of the 4 cores on the unit die (4-core CMP).
CORE_QUADRANTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


@dataclass
class Core:
    """One core of the CMP with all per-subsystem model parameters.

    Build instances with :func:`build_core` (or :func:`build_chip_cores`);
    the constructor only stores pre-computed arrays.
    """

    floorplan: Floorplan
    calib: Calibration
    delay_params: DelayParams
    vt_sens: VtSensitivities
    chip_id: int
    core_index: int
    # Per-subsystem arrays (canonical order, length == len(floorplan)).
    vt0_timing: np.ndarray = field(repr=False)
    leff_timing: np.ndarray = field(repr=False)
    vt0_leak: np.ndarray = field(repr=False)
    rth: np.ndarray = field(repr=False)
    kdyn: np.ndarray = field(repr=False)
    ksta: np.ndarray = field(repr=False)
    stage_mean_rel: np.ndarray = field(repr=False)
    stage_sigma_rel: np.ndarray = field(repr=False)
    tail_rel: np.ndarray = field(repr=False)
    alpha_ref: np.ndarray = field(repr=False)
    rho_ref: np.ndarray = field(repr=False)
    l2_kdyn: float = 0.0
    l2_ksta: float = 0.0
    #: Process-nominal Vt mean the design is referenced to.
    vt_mean: float = 0.150

    def __post_init__(self) -> None:
        n = len(self.floorplan)
        for name in (
            "vt0_timing",
            "leff_timing",
            "vt0_leak",
            "rth",
            "kdyn",
            "ksta",
            "stage_mean_rel",
            "stage_sigma_rel",
            "tail_rel",
            "alpha_ref",
            "rho_ref",
        ):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        self._nominal_gate_delay = float(
            gate_delay(
                self.calib.vdd_nominal,
                threshold_voltage(
                    self.floorplan_vt_mean(),
                    self.calib.t_design,
                    self.calib.vdd_nominal,
                    0.0,
                    self.vt_sens,
                ),
                1.0,
                self.calib.t_design,
                self.delay_params,
            )
        )

    # ------------------------------------------------------------------
    # Convenience views.
    # ------------------------------------------------------------------
    @property
    def n_subsystems(self) -> int:
        """Number of adapted subsystems (15 in the paper)."""
        return len(self.floorplan)

    @property
    def names(self) -> List[str]:
        """Subsystem names in canonical order."""
        return self.floorplan.names

    @property
    def kinds(self) -> List[str]:
        """Subsystem kinds (memory/mixed/logic) in canonical order."""
        return [spec.kind for spec in self.floorplan.subsystems]

    def floorplan_vt_mean(self) -> float:
        """Process-nominal ``Vt`` mean used as the design reference."""
        return self.vt_mean

    # ------------------------------------------------------------------
    # Physical models, vectorised over subsystems.
    # ------------------------------------------------------------------
    def effective_vt(self, vdd, vbb, temp, *, for_timing: bool = True):
        """Per-subsystem effective ``Vt`` at an operating point (Eq 9).

        ``vdd``/``vbb``/``temp`` broadcast against the subsystem axis
        (last axis of length ``n_subsystems``).
        """
        vt0 = self.vt0_timing if for_timing else self.vt0_leak
        return threshold_voltage(vt0, temp, vdd, vbb, self.vt_sens)

    def delay_factor(self, vdd, vbb, temp):
        """Per-subsystem gate-delay factor relative to the nominal design.

        1.0 means "as fast as the no-variation design at its design
        temperature"; larger is slower.  Broadcasts like
        :meth:`effective_vt`.
        """
        vt = self.effective_vt(vdd, vbb, temp, for_timing=True)
        delay = gate_delay(vdd, vt, self.leff_timing, temp, self.delay_params)
        return delay / self._nominal_gate_delay

    def subsystem_static_power(self, vdd, vbb, temp):
        """Per-subsystem leakage power in watts at an operating point.

        Routed through the fused ``vt_and_static_power`` kernel (Eq 9 +
        Eq 8 in one pass, bit-identical to the leaf composition).
        """
        _, p_sta = get_backend().kernel("vt_and_static_power")(
            self.vt0_leak, vdd, vbb, temp, self.ksta, self.vt_sens
        )
        return p_sta

    def subsystem_dynamic_power(self, vdd, freq, activity):
        """Per-subsystem dynamic power in watts (Eq 7)."""
        return self.kdyn * np.asarray(activity, dtype=float) * (
            np.asarray(vdd, dtype=float) ** 2
        ) * freq

    def l2_power(self, freq: float, activity: float = 1.0) -> float:
        """L2 power (dynamic + static) at nominal supply; power-only block."""
        pdyn = self.l2_kdyn * activity * self.calib.vdd_nominal**2 * freq
        psta = float(
            static_power(
                self.l2_ksta,
                self.calib.vdd_nominal,
                self.calib.t_design,
                self.vt_mean
                + self.vt_sens.k1 * (self.calib.t_design - self.vt_sens.t_ref),
            )
        )
        return pdyn + psta


def stackable(cores: Sequence[Core]) -> bool:
    """Whether the cores share the context that lets them stack into lanes.

    Lanes of one stack share one calibration, delay-parameter and
    Vt-sensitivity object, one mean Vt and one floorplan; only the
    per-subsystem arrays differ.  The NoVar core, whose calibration
    disables the random tail, never stacks with variation cores.
    """
    if not cores:
        return True
    first = cores[0]
    return all(
        core is first
        or (
            core.calib is first.calib
            and core.delay_params is first.delay_params
            and core.vt_sens is first.vt_sens
            and core.vt_mean == first.vt_mean
            and core.floorplan.names == first.floorplan.names
        )
        for core in cores[1:]
    )


#: Per-subsystem arrays stacked along the lane axis in :class:`CoreLanes`.
_LANE_FIELDS = (
    "vt0_timing",
    "leff_timing",
    "vt0_leak",
    "rth",
    "kdyn",
    "ksta",
    "stage_mean_rel",
    "stage_sigma_rel",
    "tail_rel",
    "alpha_ref",
    "rho_ref",
)


@dataclass
class CoreLanes:
    """A population of cores as one ``(B, n_subsystems)`` tensor program.

    This is the :class:`Core` analogue of the optimiser's
    ``SubsystemArrays`` lane axis, one tier up: every per-subsystem
    parameter array of ``B`` cores stacked along a leading lane axis, so
    the thermal solver, the timing model and the retuner evaluate a whole
    (chip, core) population in a handful of array ops.  The physics
    methods are the same elementwise formulas as :class:`Core`, so lane
    ``i`` of any result is bit-identical to calling the same method on
    ``cores[i]`` alone.

    Only cores that are :func:`stackable` together may share a stack.
    """

    floorplan: Floorplan
    calib: Calibration
    delay_params: DelayParams
    vt_sens: VtSensitivities
    vt_mean: float
    # (B, n) per-subsystem arrays and (B,) L2 constants.
    vt0_timing: np.ndarray = field(repr=False)
    leff_timing: np.ndarray = field(repr=False)
    vt0_leak: np.ndarray = field(repr=False)
    rth: np.ndarray = field(repr=False)
    kdyn: np.ndarray = field(repr=False)
    ksta: np.ndarray = field(repr=False)
    stage_mean_rel: np.ndarray = field(repr=False)
    stage_sigma_rel: np.ndarray = field(repr=False)
    tail_rel: np.ndarray = field(repr=False)
    alpha_ref: np.ndarray = field(repr=False)
    rho_ref: np.ndarray = field(repr=False)
    l2_kdyn: np.ndarray = field(repr=False, default=None)
    l2_ksta: np.ndarray = field(repr=False, default=None)
    _nominal_gate_delay: float = 0.0

    def __post_init__(self) -> None:
        shape = self.vt0_timing.shape
        if len(shape) != 2 or shape[1] != len(self.floorplan):
            raise ValueError(
                f"lane arrays must have shape (B, {len(self.floorplan)}), "
                f"got {shape}"
            )
        for name in _LANE_FIELDS:
            if getattr(self, name).shape != shape:
                raise ValueError(f"lane array {name} must have shape {shape}")
        for name in ("l2_kdyn", "l2_ksta"):
            if getattr(self, name).shape != (shape[0],):
                raise ValueError(f"{name} must have shape ({shape[0]},)")

    @classmethod
    def stack(cls, cores: List[Core]) -> "CoreLanes":
        """Stack cores along the lane axis, enforcing shared context."""
        if not cores:
            raise ValueError("need at least one core to stack")
        if not stackable(cores):
            raise ValueError(
                "cores must share calibration/delay/sensitivity objects, "
                "vt_mean and floorplan to stack into lanes"
            )
        first = cores[0]
        kwargs = {
            name: np.stack([getattr(core, name) for core in cores])
            for name in _LANE_FIELDS
        }
        lanes = cls(
            floorplan=first.floorplan,
            calib=first.calib,
            delay_params=first.delay_params,
            vt_sens=first.vt_sens,
            vt_mean=first.vt_mean,
            l2_kdyn=np.array([core.l2_kdyn for core in cores]),
            l2_ksta=np.array([core.l2_ksta for core in cores]),
            **kwargs,
        )
        lanes._nominal_gate_delay = first._nominal_gate_delay
        return lanes

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """Number of stacked cores (the lane-axis length ``B``)."""
        return self.vt0_timing.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.floorplan)

    @property
    def names(self) -> List[str]:
        return self.floorplan.names

    def floorplan_vt_mean(self) -> float:
        return self.vt_mean

    def lane_subset(self, index) -> "CoreLanes":
        """A view restricted to the lanes selected by ``index``.

        ``index`` is any numpy fancy index over the lane axis (a boolean
        mask or an integer array); the subset keeps ``(K, n)`` shapes so
        masked solver iterations stay shape-consistent.
        """
        kwargs = {
            name: getattr(self, name)[index] for name in _LANE_FIELDS
        }
        subset = CoreLanes(
            floorplan=self.floorplan,
            calib=self.calib,
            delay_params=self.delay_params,
            vt_sens=self.vt_sens,
            vt_mean=self.vt_mean,
            l2_kdyn=self.l2_kdyn[index],
            l2_ksta=self.l2_ksta[index],
            **kwargs,
        )
        subset._nominal_gate_delay = self._nominal_gate_delay
        return subset

    # ------------------------------------------------------------------
    # Physics — identical elementwise formulas to :class:`Core`.
    # ------------------------------------------------------------------
    def effective_vt(self, vdd, vbb, temp, *, for_timing: bool = True):
        vt0 = self.vt0_timing if for_timing else self.vt0_leak
        return threshold_voltage(vt0, temp, vdd, vbb, self.vt_sens)

    def delay_factor(self, vdd, vbb, temp):
        vt = self.effective_vt(vdd, vbb, temp, for_timing=True)
        delay = gate_delay(vdd, vt, self.leff_timing, temp, self.delay_params)
        return delay / self._nominal_gate_delay

    def subsystem_static_power(self, vdd, vbb, temp):
        _, p_sta = get_backend().kernel("vt_and_static_power")(
            self.vt0_leak, vdd, vbb, temp, self.ksta, self.vt_sens
        )
        return p_sta

    def subsystem_dynamic_power(self, vdd, freq, activity):
        return self.kdyn * np.asarray(activity, dtype=float) * (
            np.asarray(vdd, dtype=float) ** 2
        ) * freq

    def l2_power(self, freq, activity: float = 1.0) -> np.ndarray:
        """Per-lane L2 power; lane ``i`` equals ``cores[i].l2_power``."""
        pdyn = self.l2_kdyn * activity * self.calib.vdd_nominal**2 * np.asarray(
            freq, dtype=float
        )
        psta = static_power(
            self.l2_ksta,
            self.calib.vdd_nominal,
            self.calib.t_design,
            self.vt_mean
            + self.vt_sens.k1 * (self.calib.t_design - self.vt_sens.t_ref),
        )
        return pdyn + psta


def _effective_leak_vt0(vt0_cells: np.ndarray, temp: float) -> float:
    """Effective ``Vt0`` of a region for leakage purposes.

    Leakage is exponential in ``-Vt``, so low-``Vt`` cells dominate a
    region's total.  The effective value is the log-mean-exp of the cell
    values at the given temperature.
    """
    scale = Q_OVER_K / (IDEALITY_FACTOR * temp)
    return float(-np.log(np.mean(np.exp(-scale * vt0_cells))) / scale)


def build_core(
    chip: ChipSample,
    core_index: int = 0,
    floorplan: Optional[Floorplan] = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS,
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES,
) -> Core:
    """Construct the :class:`Core` model for one quadrant of a chip.

    This performs the "manufacturer" work of Section 4.1: measuring each
    subsystem's ``Vt0`` (timing-worst cell and leakage-effective value),
    deriving ``Rth`` from area, and ``Kdyn``/``Ksta`` from the CAD-style
    power budgets, then folding in the analytic random-variation tail for
    the worst dynamic path of each subsystem.
    """
    if not 0 <= core_index < len(CORE_QUADRANTS):
        raise ValueError(f"core_index must be in [0, 4), got {core_index}")
    floorplan = floorplan or default_floorplan()
    calib.validate()
    params = chip.params
    quad_x, quad_y = CORE_QUADRANTS[core_index]

    n = len(floorplan)
    vt0_timing = np.empty(n)
    leff_timing = np.empty(n)
    vt0_leak = np.empty(n)
    rth = np.empty(n)
    kdyn = np.empty(n)
    ksta = np.empty(n)
    stage_mean = np.empty(n)
    stage_sigma = np.empty(n)
    tail = np.empty(n)
    alpha_ref = np.empty(n)
    rho_ref = np.empty(n)

    sys_gain = calib.systematic_delay_gain
    vt_mean = params.vt_mean
    vt_design = threshold_voltage(
        vt_mean, calib.t_design, calib.vdd_nominal, 0.0, vt_sens
    )
    # Random-component delay sigma per gate (relative), from Vt and Leff.
    vt_delay_sens = delay_params.alpha / (calib.vdd_nominal - vt_design)
    sigma_gate = np.hypot(
        vt_delay_sens * params.vt_sigma_ran, params.leff_sigma_ran
    )

    # Normalise dynamic budgets so the core totals match the calibration.
    total_dyn_budget = sum(s.pdyn_budget for s in floorplan.subsystems)
    dyn_scale = (
        calib.core_dynamic_power_nominal - floorplan.l2.pdyn_budget
    ) / total_dyn_budget
    # Static budget distributed in proportion to area.
    total_area = sum(s.area_frac for s in floorplan.subsystems)
    core_static = calib.core_static_power_nominal - floorplan.l2.psta_budget
    if core_static <= 0.0 or dyn_scale <= 0.0:
        raise ValueError("L2 budgets exceed the core power budgets")

    # Per-(chip, core, subsystem) reproducible randomness for the
    # extreme-value tail of the random variation component.
    rng = np.random.default_rng(
        np.random.SeedSequence([abs(chip.chip_id), core_index, 0xE7A1])
    )

    nominal_gate = float(
        gate_delay(calib.vdd_nominal, vt_design, 1.0, calib.t_design, delay_params)
    )

    for i, spec in enumerate(floorplan.subsystems):
        rect = spec.rect
        cells = chip.grid.cells_in_rect(
            quad_x + rect.x0 * 0.5,
            quad_y + rect.y0 * 0.5,
            quad_x + rect.x1 * 0.5,
            quad_y + rect.y1 * 0.5,
        )
        # Systematic offsets, amplified by the calibrated gain.
        vt0_cells = vt_mean + sys_gain * chip.vt_sys[cells]
        leff_cells = 1.0 + sys_gain * chip.leff_sys[cells]
        # Timing: the slowest *unrepaired* cell governs the stage.  SRAM
        # redundancy repairs the worst spots of large arrays, so memory
        # (and partly mixed) subsystems are governed by a high percentile
        # of their footprint's cell delays rather than the maximum.
        vt_cells_design = threshold_voltage(
            vt0_cells, calib.t_design, calib.vdd_nominal, 0.0, vt_sens
        )
        delays = gate_delay(
            calib.vdd_nominal, vt_cells_design, leff_cells, calib.t_design, delay_params
        )
        quantile = calib.repair_quantile[spec.kind]
        order = np.argsort(delays)
        worst = int(order[min(len(order) - 1, int(np.ceil(quantile * (len(order) - 1))))])
        vt0_timing[i] = vt0_cells[worst]
        leff_timing[i] = leff_cells[worst]
        vt0_leak[i] = _effective_leak_vt0(vt0_cells, calib.t_design)

        # Thermal resistance from area (lateral spreading via exponent<1),
        # adjusted by the structure's cooling quality.
        rth[i] = (
            calib.rth_coefficient
            / spec.area_frac**calib.rth_area_exponent
            * spec.rth_factor
        )

        # CAD-extracted constants (variation-independent).
        kdyn[i] = (
            spec.pdyn_budget
            * dyn_scale
            / (spec.alpha_ref * calib.vdd_nominal**2 * calib.f_nominal)
        )
        budget_sta = core_static * spec.area_frac / total_area
        ksta[i] = budget_sta / float(
            static_power(1.0, calib.vdd_nominal, calib.t_design, vt_design)
        )

        # VATS dynamic path-delay distribution parameters (cycle units).
        # Criticality scales the whole distribution: stages with design
        # slack sit proportionally below the cycle-time wall.
        stage_sigma[i] = calib.stage_sigma[spec.kind] * spec.criticality
        stage_mean[i] = calib.stage_mean(spec.kind) * spec.criticality
        # Extreme-value (Gumbel) tail of the worst random path.
        depth = calib.path_gate_depth[spec.kind]
        count = calib.path_count[spec.kind]
        sigma_path = calib.random_delay_gain * sigma_gate / np.sqrt(depth)
        spread = np.sqrt(2.0 * np.log(count))
        if sigma_path > 0.0:
            tail[i] = max(
                0.0, rng.gumbel(sigma_path * spread, sigma_path / spread)
            ) * spec.criticality
        else:
            tail[i] = 0.0  # no random component (e.g. the NoVar core)

        alpha_ref[i] = spec.alpha_ref
        rho_ref[i] = spec.rho_ref

    l2_kdyn = floorplan.l2.pdyn_budget / (calib.vdd_nominal**2 * calib.f_nominal)
    l2_ksta = floorplan.l2.psta_budget / float(
        static_power(1.0, calib.vdd_nominal, calib.t_design, vt_design)
    )

    core = Core(
        floorplan=floorplan,
        calib=calib,
        delay_params=delay_params,
        vt_sens=vt_sens,
        chip_id=chip.chip_id,
        core_index=core_index,
        vt0_timing=vt0_timing,
        leff_timing=leff_timing,
        vt0_leak=vt0_leak,
        rth=rth,
        kdyn=kdyn,
        ksta=ksta,
        stage_mean_rel=stage_mean,
        stage_sigma_rel=stage_sigma,
        tail_rel=tail,
        alpha_ref=alpha_ref,
        rho_ref=rho_ref,
        l2_kdyn=l2_kdyn,
        l2_ksta=l2_ksta,
        vt_mean=vt_mean,
    )
    core._nominal_gate_delay = nominal_gate
    return core


def build_novar_core(
    floorplan: Optional[Floorplan] = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS,
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES,
) -> Core:
    """Build the idealised no-variation core (the NoVar environment).

    All variation surfaces are zero and the random-variation tail is
    disabled, so every stage meets exactly the nominal cycle time at the
    design temperature: the core runs at 4 GHz error-free.
    """
    from dataclasses import replace as dc_replace

    from ..variation.grid import DieGrid
    from ..variation.maps import ChipSample, VariationParams

    grid = DieGrid(nx=8, ny=8)
    chip = ChipSample(
        grid=grid,
        params=VariationParams(),
        vt_sys=np.zeros(grid.cell_count),
        leff_sys=np.zeros(grid.cell_count),
        chip_id=-1,
    )
    calib_novar = dc_replace(calib, random_delay_gain=0.0)
    return build_core(chip, 0, floorplan, calib_novar, delay_params, vt_sens)


def build_chip_cores(
    chip: ChipSample,
    floorplan: Optional[Floorplan] = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS,
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES,
) -> List[Core]:
    """Build all four cores of a chip (the paper runs every app on each)."""
    return [
        build_core(chip, core_index, floorplan, calib, delay_params, vt_sens)
        for core_index in range(len(CORE_QUADRANTS))
    ]
