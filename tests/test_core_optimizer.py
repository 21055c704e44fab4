"""The Freq and Power algorithms (Sections 4.2 / 4.3.1)."""

import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import obs
from repro.core import (
    ALL_TECHNIQUES,
    BASELINE,
    AdaptationMode,
    TS,
    TS_ASV,
    TS_ASV_ABB,
    budget_z,
    core_subsystem_arrays,
    freq_algorithm,
    power_algorithm,
)
from repro.chip import build_core
from repro.core.adaptation import _stacked_phase_arrays
from repro.core import optimizer
from repro.core.optimizer import _ARRAY_FIELDS, SubsystemArrays, _distinct_rows
from repro.exps.runner import ExperimentRunner, RunnerConfig
from repro.microarch import spec2000_like_suite
from repro.mitigation import TechniqueState
from repro.ml.dataset import TrainingRequest, _draw_request
from repro.obs import MetricsRegistry
from repro.timing import StageModifiers


@pytest.fixture(scope="module")
def subs(core, int_measurement):
    return core_subsystem_arrays(
        core, int_measurement.activity, int_measurement.rho
    )


@pytest.fixture(scope="module")
def lanes(core, int_measurement, fp_measurement):
    """Four lanes with distinct physics (mix of workloads and variants)."""
    n = core.n_subsystems
    slow = np.ones(n)
    slow[3] = 0.92
    tilt = np.ones(n)
    tilt[5] = np.sqrt(2.0)
    return [
        core_subsystem_arrays(
            core, int_measurement.activity, int_measurement.rho
        ),
        core_subsystem_arrays(
            core, fp_measurement.activity, fp_measurement.rho
        ),
        core_subsystem_arrays(
            core,
            int_measurement.activity,
            int_measurement.rho,
            StageModifiers(delay_scale=slow, sigma_scale=np.ones(n)),
        ),
        core_subsystem_arrays(
            core,
            fp_measurement.activity,
            fp_measurement.rho,
            StageModifiers(delay_scale=np.ones(n), sigma_scale=tilt),
        ),
        # A nearly idle phase: weak thermal feedback, so its joint
        # (f, T) fixed point converges in fewer iterations than the
        # active lanes — exercising the masked early retirement.
        core_subsystem_arrays(
            core, int_measurement.activity * 0.05, int_measurement.rho
        ),
    ]


class TestBudgetZ:
    def test_zero_budget_gives_z_free(self, subs):
        z = budget_z(subs, 0.0)
        assert np.all(z == subs.calib.z_free)

    def test_budget_z_decreases_with_looser_budget(self, subs):
        tight = budget_z(subs, 1e-8)
        loose = budget_z(subs, 1e-3)
        assert np.all(loose <= tight)

    def test_z_clamped_to_design_margin(self, subs):
        z = budget_z(subs, 1e-15)
        assert np.all(z <= subs.calib.z_free)


class TestFreqAlgorithm:
    def test_ts_beats_baseline(self, subs, core):
        base = freq_algorithm(subs, BASELINE.optimization_spec(15, core.calib))
        ts = freq_algorithm(subs, TS.optimization_spec(15, core.calib))
        assert ts.core_frequency() >= base.core_frequency()

    def test_asv_beats_ts(self, subs, core):
        ts = freq_algorithm(subs, TS.optimization_spec(15, core.calib))
        asv = freq_algorithm(subs, TS_ASV.optimization_spec(15, core.calib))
        # ASV can never hurt; on the bottleneck it should help unless the
        # stage is already thermally capped at nominal supply.
        assert asv.core_frequency() >= ts.core_frequency()
        assert np.all(asv.f_max >= ts.f_max - 1e-6)
        assert np.mean(asv.f_max - ts.f_max) > 1e8  # most stages gain

    def test_abb_never_hurts(self, subs, core):
        asv = freq_algorithm(subs, TS_ASV.optimization_spec(15, core.calib))
        both = freq_algorithm(subs, TS_ASV_ABB.optimization_spec(15, core.calib))
        assert both.core_frequency() >= asv.core_frequency() - 1e-6

    def test_core_frequency_is_min_of_subsystems(self, subs, core, asv_spec):
        result = freq_algorithm(subs, asv_spec)
        assert result.core_frequency() <= result.f_max.min() + 1e-6

    def test_frequency_on_100mhz_grid(self, subs, asv_spec):
        f = freq_algorithm(subs, asv_spec).core_frequency()
        steps = (f - asv_spec.knob_ranges.f_min) / asv_spec.knob_ranges.f_step
        assert steps == pytest.approx(round(steps), abs=1e-6)

    def test_chosen_knobs_are_legal_levels(self, subs, asv_spec):
        result = freq_algorithm(subs, asv_spec)
        for v in result.vdd:
            assert np.min(np.abs(asv_spec.vdd_levels - v)) < 1e-9

    def test_shift_modifier_raises_subsystem_fmax(self, core, int_measurement, asv_spec):
        idx = core.floorplan.index_of("IntQ")
        n = core.n_subsystems
        delay_scale = np.ones(n)
        delay_scale[idx] = 0.9
        modified = core_subsystem_arrays(
            core,
            int_measurement.activity,
            int_measurement.rho,
            StageModifiers(delay_scale=delay_scale, sigma_scale=np.ones(n)),
        )
        plain = core_subsystem_arrays(
            core, int_measurement.activity, int_measurement.rho
        )
        f_mod = freq_algorithm(modified, asv_spec).f_max[idx]
        f_plain = freq_algorithm(plain, asv_spec).f_max[idx]
        assert f_mod > f_plain

    def test_results_feasible(self, subs, asv_spec):
        result = freq_algorithm(subs, asv_spec)
        assert result.feasible.all()


class TestPowerAlgorithm:
    def test_all_subsystems_feasible_at_core_frequency(self, subs, core, asv_spec):
        f_core = freq_algorithm(subs, asv_spec).core_frequency()
        power = power_algorithm(subs, f_core, asv_spec)
        assert power.feasible.all()

    def test_respects_thermal_constraint(self, subs, asv_spec):
        f_core = freq_algorithm(subs, asv_spec).core_frequency()
        power = power_algorithm(subs, f_core, asv_spec)
        assert power.max_temperature() <= asv_spec.t_max + 0.1

    def test_meets_timing_at_chosen_voltages(self, subs, core, asv_spec):
        f_core = freq_algorithm(subs, asv_spec).core_frequency()
        power = power_algorithm(subs, f_core, asv_spec)
        z = budget_z(subs, asv_spec.pe_budget)
        period = subs.budget_period_rel(
            power.vdd, power.vbb, power.temperature, z
        ) / core.calib.f_nominal
        assert np.all(period <= 1.0 / f_core + 1e-15)

    def test_lower_frequency_means_no_more_power(self, subs, asv_spec):
        f_hi = freq_algorithm(subs, asv_spec).core_frequency()
        hi = power_algorithm(subs, f_hi, asv_spec)
        lo = power_algorithm(subs, f_hi * 0.75, asv_spec)
        p_hi = (hi.p_dynamic + hi.p_static).sum()
        p_lo = (lo.p_dynamic + lo.p_static).sum()
        assert p_lo < p_hi

    def test_slack_subsystems_get_reduced_vdd(self, subs, asv_spec):
        f_core = freq_algorithm(subs, asv_spec).core_frequency()
        power = power_algorithm(subs, f_core, asv_spec)
        # At least a third of the subsystems should save power below
        # nominal supply (the Reshape behaviour of Fig 2(d)).
        assert np.count_nonzero(power.vdd < 1.0) >= 5

    def test_accepts_per_row_frequencies(self, subs, asv_spec):
        f = np.full(len(subs), 3.0e9)
        result = power_algorithm(subs, f, asv_spec)
        assert result.vdd.shape == (len(subs),)

    def test_rejects_nonpositive_frequency(self, subs, asv_spec):
        with pytest.raises(ValueError):
            power_algorithm(subs, 0.0, asv_spec)


class TestSubsystemArraysBatch:
    def test_stack_shapes_and_flags(self, lanes):
        stack = SubsystemArrays.stack(lanes)
        assert stack.is_batched
        assert stack.batch_size == len(lanes)
        assert stack.n_subsystems == len(lanes[0])
        assert stack.stage_mean_rel.shape == (len(lanes), len(lanes[0]))

    def test_unbatched_view_is_not_batched(self, subs):
        assert not subs.is_batched
        assert subs.batch_size == 1

    def test_lanes_view_adds_singleton_axis(self, subs):
        view = subs.lanes()
        assert view.is_batched
        assert view.batch_size == 1
        assert np.array_equal(view.alpha[0], subs.alpha)

    def test_stack_rejects_empty(self):
        with pytest.raises(ValueError):
            SubsystemArrays.stack([])

    def test_stack_rejects_already_batched(self, lanes):
        stack = SubsystemArrays.stack(lanes)
        with pytest.raises(ValueError):
            SubsystemArrays.stack([stack])

    def test_lane_subset_requires_batched(self, subs):
        with pytest.raises(ValueError):
            subs.lane_subset(np.array([0]))

    def test_lane_subset_selects_rows(self, lanes):
        stack = SubsystemArrays.stack(lanes)
        subset = stack.lane_subset(np.array([2, 0]))
        assert subset.batch_size == 2
        assert np.array_equal(subset.rho[0], lanes[2].rho)
        assert np.array_equal(subset.rho[1], lanes[0].rho)

    def test_rejects_mismatched_field_shapes(self, subs):
        with pytest.raises(ValueError):
            SubsystemArrays(
                vt0_timing=subs.vt0_timing,
                leff_timing=subs.leff_timing,
                vt0_leak=subs.vt0_leak,
                rth=subs.rth,
                kdyn=subs.kdyn,
                ksta=subs.ksta,
                alpha=subs.alpha[:-1],
                rho=subs.rho,
                stage_mean_rel=subs.stage_mean_rel,
                stage_sigma_rel=subs.stage_sigma_rel,
                power_factor=subs.power_factor,
            )


class TestBatchedFreqAlgorithm:
    def test_bit_identical_to_serial(self, lanes, asv_spec):
        stack = SubsystemArrays.stack(lanes)
        batched = freq_algorithm(stack, asv_spec)
        for lane, member in enumerate(lanes):
            serial = freq_algorithm(member, asv_spec)
            assert np.array_equal(batched.f_max[lane], serial.f_max)
            assert np.array_equal(batched.vdd[lane], serial.vdd)
            assert np.array_equal(batched.vbb[lane], serial.vbb)
            assert np.array_equal(batched.feasible[lane], serial.feasible)

    def test_batched_result_rejects_scalar_accessors(self, lanes, asv_spec):
        result = freq_algorithm(SubsystemArrays.stack(lanes), asv_spec)
        with pytest.raises(ValueError):
            result.core_frequency()

    def test_convergence_masking_matches_serial_iterations(
        self, lanes, asv_spec
    ):
        # Lanes with different physics converge at different speeds; the
        # masked joint fixed point must retire each lane after exactly as
        # many iterations as a serial call on that lane alone takes.
        def freq_iteration_values(arrays):
            with obs.scoped(MetricsRegistry()) as registry:
                freq_algorithm(arrays, asv_spec)
                doc = registry.to_dict()
            return doc["histograms"]["optimizer.freq_iterations"]["values"]

        serial_counts = [
            freq_iteration_values(member)[0] for member in lanes
        ]
        batched_counts = freq_iteration_values(SubsystemArrays.stack(lanes))
        assert batched_counts == serial_counts
        assert len(set(serial_counts)) > 1  # speeds genuinely differ

    def test_lane_counters(self, lanes, asv_spec):
        with obs.scoped(MetricsRegistry()) as registry:
            freq_algorithm(SubsystemArrays.stack(lanes), asv_spec)
            counters = registry.to_dict()["counters"]
        assert counters["optimizer.freq_calls"] == 1
        assert counters["optimizer.freq_lanes"] == len(lanes)


def _freq_iteration_values(arrays, spec):
    """The per-lane ``optimizer.freq_iterations`` values of one call."""
    with obs.scoped(MetricsRegistry()) as registry:
        result = freq_algorithm(arrays, spec)
        doc = registry.to_dict()
    return result, doc["histograms"]["optimizer.freq_iterations"]["values"]


class TestDistinctRows:
    """Freq sweeps each distinct subsystem row once; lanes sharing rows
    must still come out exactly as they do alone."""

    def test_shared_rows_equal_per_technique_calls(
        self, population, core, other_core, int_measurement, fp_measurement
    ):
        spec = TS_ASV_ABB.optimization_spec(core.n_subsystems, core.calib)
        cores = [core, other_core, build_core(population[1], 0)]
        lanes = [
            (c, m) for c in cores for m in (int_measurement, fp_measurement)
        ]

        def stack(flags):
            return _stacked_phase_arrays(
                [c for _ in flags for c, _ in lanes],
                [
                    TechniqueState(lowslope=lowslope, domain=m.domain)
                    for lowslope in flags for _, m in lanes
                ],
                [m for _ in flags for _, m in lanes],
            )

        normal, low = stack([False]), stack([True])
        both = stack([False, True])
        rows, _ = _distinct_rows(both)
        # Precondition: the replicas share every row but the FU column.
        assert rows.n_subsystems == len(lanes) * (core.n_subsystems + 1)
        joint = freq_algorithm(both, spec)
        for part, alone in ((slice(0, len(lanes)), normal),
                            (slice(len(lanes), None), low)):
            want = freq_algorithm(alone, spec)
            assert_array_equal(joint.f_max[part], want.f_max)
            assert_array_equal(joint.vdd[part], want.vdd)
            assert_array_equal(joint.vbb[part], want.vbb)
            assert_array_equal(joint.feasible[part], want.feasible)

    def test_lanes_sharing_rows_stop_at_their_own_iteration(
        self, core, int_measurement, asv_spec
    ):
        # A nearly idle lane next to copies with one subsystem at full
        # activity: the two lanes share all other rows, yet the hot row
        # can keep its lane iterating after the idle lane has stopped.
        idle_alpha = int_measurement.activity * 0.05
        idle = core_subsystem_arrays(core, idle_alpha, int_measurement.rho)
        for index in range(core.n_subsystems):
            alpha = idle_alpha.copy()
            alpha[index] = int_measurement.activity[index]
            hot = core_subsystem_arrays(core, alpha, int_measurement.rho)
            stack = SubsystemArrays.stack([idle, hot])
            joint, counts = _freq_iteration_values(stack, asv_spec)
            if counts[0] != counts[1]:
                break
        else:
            pytest.fail("no subsystem changes its lane's iteration count")
        assert _distinct_rows(stack)[0].n_subsystems == core.n_subsystems + 1
        for lane, member in enumerate((idle, hot)):
            alone, alone_counts = _freq_iteration_values(member, asv_spec)
            assert counts[lane] == alone_counts[0]
            assert_array_equal(joint.f_max[lane], alone.f_max)
            assert_array_equal(joint.vdd[lane], alone.vdd)
            assert_array_equal(joint.vbb[lane], alone.vbb)

    def test_candidates_count_distinct_row_cells(
        self, core, int_measurement, asv_spec
    ):
        subs = core_subsystem_arrays(
            core, int_measurement.activity, int_measurement.rho
        )
        with obs.scoped(MetricsRegistry()) as registry:
            freq_algorithm(SubsystemArrays.stack([subs, subs, subs]), asv_spec)
            counters = registry.to_dict()["counters"]
        knobs = len(asv_spec.vdd_levels) * len(asv_spec.vbb_levels)
        n_rows = len(np.unique(np.stack(
            [getattr(subs, name) for name in _ARRAY_FIELDS], axis=-1
        ), axis=0))
        assert counters["optimizer.candidates"] == knobs * n_rows
        assert counters["optimizer.freq_lanes"] == 3
        assert 0 <= counters["optimizer.constraint_rejections"] <= (
            knobs * n_rows
        )


class TestRowIndependence:
    """Freq solves each subsystem on its own (Section 4.3.1): its result
    is a function of its row alone, not of the lane it sits in."""

    @pytest.mark.parametrize("env", [TS, TS_ASV, TS_ASV_ABB],
                             ids=lambda env: env.name)
    def test_subsystem_alone_equals_it_in_its_lane(self, population, env):
        # 3 chips x 4 random (activity, rho) draws: 180 subsystems.
        rng = np.random.default_rng(0)
        differ = 0
        for chip in population[:3]:
            core = build_core(chip, 0)
            n = core.n_subsystems
            spec = env.optimization_spec(n, core.calib)
            for _ in range(4):
                subs = core_subsystem_arrays(
                    core, rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 1.0, n)
                )
                lane, [lane_count] = _freq_iteration_values(subs, spec)
                counts = []
                for k in range(n):
                    alone, [count] = _freq_iteration_values(
                        subs._take(slice(k, k + 1)), spec
                    )
                    counts.append(count)
                    differ += any(
                        getattr(alone, field)[0] != getattr(lane, field)[k]
                        for field in ("f_max", "vdd", "vbb", "feasible")
                    )
                # A lane's iteration count is the most any row took.
                assert lane_count == max(counts)
        assert differ == 0


class TestBatchedPowerAlgorithm:
    def test_bit_identical_to_serial(self, lanes, asv_spec):
        stack = SubsystemArrays.stack(lanes)
        f_cores = np.array(
            [
                freq_algorithm(member, asv_spec).core_frequency()
                for member in lanes
            ]
        )
        batched = power_algorithm(stack, f_cores, asv_spec)
        for lane, member in enumerate(lanes):
            serial = power_algorithm(member, float(f_cores[lane]), asv_spec)
            assert np.array_equal(batched.vdd[lane], serial.vdd)
            assert np.array_equal(batched.vbb[lane], serial.vbb)
            assert np.array_equal(
                batched.temperature[lane], serial.temperature
            )
            assert np.array_equal(batched.p_dynamic[lane], serial.p_dynamic)
            assert np.array_equal(batched.p_static[lane], serial.p_static)
            assert np.array_equal(batched.feasible[lane], serial.feasible)

    def test_accepts_per_lane_matrix(self, lanes, asv_spec):
        stack = SubsystemArrays.stack(lanes)
        f = np.full((len(lanes), len(lanes[0])), 3.0e9)
        result = power_algorithm(stack, f, asv_spec)
        assert result.vdd.shape == (len(lanes), len(lanes[0]))

    def test_rejects_wrong_lane_vector_shape(self, lanes, asv_spec):
        stack = SubsystemArrays.stack(lanes)
        with pytest.raises(ValueError):
            power_algorithm(stack, np.full(len(lanes) + 1, 3.0e9), asv_spec)
        with pytest.raises(ValueError):
            power_algorithm(
                stack, np.full((len(lanes), 3), 3.0e9), asv_spec
            )

    def test_batched_result_rejects_scalar_accessors(self, lanes, asv_spec):
        stack = SubsystemArrays.stack(lanes)
        result = power_algorithm(stack, np.full(len(lanes), 3.0e9), asv_spec)
        with pytest.raises(ValueError):
            result.max_temperature()


def _twin_stack(cores, measurements, scales=(1.0,)):
    """FU twins: every (core, measurement, activity scale) lane once
    with the normal FU and once with the low-slope replica (same order),
    sharing every subsystem row but the FU column."""
    pairs = [
        (c, replace(m, activity=m.activity * scale))
        for c in cores for m in measurements for scale in scales
    ]
    stack = _stacked_phase_arrays(
        [c for _ in (0, 1) for c, _ in pairs],
        [
            TechniqueState(lowslope=lowslope, domain=m.domain)
            for lowslope in (False, True) for _, m in pairs
        ],
        [m for _ in (0, 1) for _, m in pairs],
    )
    return stack, len(pairs)


@contextmanager
def _sweep_helper(in_use):
    """Sweeps with the helper thread in use (two usable CPUs) or forced
    off (one); yields the monkeypatch, undone on exit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_usable_cpus", lambda: 2 if in_use else 1)
        yield patch


def _slice_count(n_items, knobs, share):
    """Sweeps of ``n_items`` rows or entries under a share of cells."""
    return -(-n_items // max(1, share // knobs))


def _run_counted(call):
    """``call()``'s result and the metrics document it wrote."""
    with obs.scoped(MetricsRegistry()) as registry:
        result = call()
        doc = registry.to_dict()
    return result, doc


def _optimizer_counters(doc):
    """The ``optimizer.*`` counters of a metrics document."""
    return {name: value for name, value in doc["counters"].items()
            if name.startswith("optimizer.")}


class TestSweepBudget:
    """``MAX_SWEEP_CELLS`` splits a call into slices of Freq rows or
    Power entries without moving a bit of any result."""

    @pytest.fixture(scope="class")
    def twins(self, population, core, other_core, int_measurement,
              fp_measurement):
        cores = [core, other_core, build_core(population[1], 0)]
        return _twin_stack(cores, [int_measurement, fp_measurement])

    @pytest.fixture(scope="class")
    def abb_spec(self, core):
        return TS_ASV_ABB.optimization_spec(core.n_subsystems, core.calib)

    @staticmethod
    def _sweeps(monkeypatch, name):
        """Record the item count of every call of a private sweep."""
        calls = []
        real = getattr(optimizer, name)

        def counted(items, *args, **kwargs):
            calls.append(items.n_subsystems)
            return real(items, *args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
        return calls

    @pytest.mark.parametrize("rows", [1, 40])
    def test_freq_chunked_equals_unchunked(
        self, twins, abb_spec, monkeypatch, rows
    ):
        stack, _ = twins
        knobs = len(abb_spec.vdd_levels) * len(abb_spec.vbb_levels)
        whole, whole_doc = _run_counted(lambda: freq_algorithm(stack, abb_spec))
        monkeypatch.setattr(optimizer, "MAX_SWEEP_CELLS", knobs * rows)
        sweeps = self._sweeps(monkeypatch, "_freq_sweep")
        parts, parts_doc = _run_counted(lambda: freq_algorithm(stack, abb_spec))
        assert len(sweeps) > 1
        for field in ("f_max", "vdd", "vbb", "feasible"):
            assert_array_equal(getattr(parts, field), getattr(whole, field))
        iterations = "optimizer.freq_iterations"
        assert parts_doc["histograms"][iterations]["values"] == (
            whole_doc["histograms"][iterations]["values"]
        )
        # Every row is swept exactly once, whatever the slicing.
        assert _optimizer_counters(parts_doc) == (
            _optimizer_counters(whole_doc)
        )
        assert parts_doc["counters"]["optimizer.freq_calls"] == 1

    def test_each_row_is_swept_once(self, twins, abb_spec, core):
        # FU twins share every row but the FU column: the rows are
        # sliced globally, so no shared row is swept twice, with the
        # helper in use (half the budget per slice) or not.
        stack, n_pairs = twins
        rows, _ = _distinct_rows(stack)
        assert rows.n_subsystems == n_pairs * (core.n_subsystems + 1)
        knobs = len(abb_spec.vdd_levels) * len(abb_spec.vbb_levels)
        whole = freq_algorithm(stack, abb_spec)
        budget = knobs * (core.n_subsystems + 1)
        for in_use, share in ((False, budget), (True, budget // 2)):
            with _sweep_helper(in_use) as patch:
                patch.setattr(optimizer, "MAX_SWEEP_CELLS", budget)
                sweeps = self._sweeps(patch, "_freq_sweep")
                parts, doc = _run_counted(
                    lambda: freq_algorithm(stack, abb_spec)
                )
            assert_array_equal(parts.f_max, whole.f_max)
            assert sum(sweeps) == rows.n_subsystems
            assert len(sweeps) == _slice_count(
                rows.n_subsystems, knobs, share
            )
            assert max(sweeps) * knobs <= share
            assert doc["counters"]["optimizer.candidates"] == (
                knobs * rows.n_subsystems
            )

    def test_one_lane_splits_into_rows(self, subs, abb_spec, monkeypatch):
        # Below one row's knob grid, an unbatched call (one lane) runs
        # one row or entry per sweep, bit for bit as one sweep.
        whole = freq_algorithm(subs, abb_spec)
        f_core = whole.core_frequency()
        power_whole = power_algorithm(subs, f_core, abb_spec)
        n_rows = _distinct_rows(subs.lanes())[0].n_subsystems
        monkeypatch.setattr(optimizer, "MAX_SWEEP_CELLS", 1)
        for in_use in (False, True):
            with _sweep_helper(in_use) as patch:
                freq_sweeps = self._sweeps(patch, "_freq_sweep")
                power_sweeps = self._sweeps(patch, "_power_sweep")
                alone = freq_algorithm(subs, abb_spec)
                power = power_algorithm(subs, f_core, abb_spec)
            for field in ("f_max", "vdd", "vbb", "feasible"):
                assert_array_equal(
                    getattr(alone, field), getattr(whole, field)
                )
            for field in ("vdd", "vbb", "temperature", "p_dynamic",
                          "p_static", "feasible"):
                assert_array_equal(
                    getattr(power, field), getattr(power_whole, field)
                )
            assert freq_sweeps == [1] * n_rows
            assert power_sweeps == [1] * subs.n_subsystems

    @pytest.mark.parametrize("per_lane", [True, False])
    @pytest.mark.parametrize("lanes_per_chunk", [1, 3])
    def test_power_chunked_equals_unchunked(
        self, twins, abb_spec, monkeypatch, per_lane, lanes_per_chunk
    ):
        stack, _ = twins
        f_max = freq_algorithm(stack, abb_spec).f_max
        f_core = f_max.min(axis=1) if per_lane else f_max
        whole, whole_doc = _run_counted(
            lambda: power_algorithm(stack, f_core, abb_spec)
        )
        knobs = len(abb_spec.vdd_levels) * len(abb_spec.vbb_levels)
        budget = knobs * stack.n_subsystems * lanes_per_chunk
        monkeypatch.setattr(optimizer, "MAX_SWEEP_CELLS", budget)
        entries = stack.batch_size * stack.n_subsystems

        for in_use, share in ((False, budget), (True, budget // 2)):
            with _sweep_helper(in_use) as patch:
                sweeps = self._sweeps(patch, "_power_sweep")
                parts, parts_doc = _run_counted(
                    lambda: power_algorithm(stack, f_core, abb_spec)
                )
            assert len(sweeps) == _slice_count(entries, knobs, share)
            assert max(sweeps) * knobs <= share
            for field in ("vdd", "vbb", "temperature", "p_dynamic",
                          "p_static", "feasible"):
                assert_array_equal(
                    getattr(parts, field), getattr(whole, field)
                )
            assert _optimizer_counters(parts_doc) == (
                _optimizer_counters(whole_doc)
            )
            assert parts_doc["counters"]["optimizer.power_calls"] == 1
            assert parts_doc["counters"]["optimizer.candidates"] == (
                knobs * entries
            )

    def test_labelling_chunk_sweeps_within_share(
        self, core, abb_spec, monkeypatch
    ):
        # One 2,500-sample labelling chunk on the 9 x 21 ABB grid is
        # 472,500 cells, 3.6 budgets: both sweeps cut it into slices
        # within the share, helper in use or not.
        (_, lane, f_core_u), = _draw_request(
            core, TrainingRequest(index=3, seed=11, n_examples=2500), 2500
        )
        knobs = len(abb_spec.vdd_levels) * len(abb_spec.vbb_levels)
        assert knobs * lane.n_subsystems == 472_500
        f_min = abb_spec.knob_ranges.f_min

        def label():
            freq = freq_algorithm(lane, abb_spec)
            f_core = np.maximum(f_min + f_core_u * (freq.f_max - f_min), f_min)
            power = power_algorithm(lane, f_core, abb_spec)
            return [freq.f_max, freq.vdd, freq.vbb, freq.feasible, power.vdd,
                    power.vbb, power.temperature, power.p_dynamic,
                    power.p_static, power.feasible]

        labelled = {}
        for in_use in (False, True):
            with _sweep_helper(in_use) as patch:
                share = optimizer._sweep_share()
                freq_sweeps = self._sweeps(patch, "_freq_sweep")
                power_sweeps = self._sweeps(patch, "_power_sweep")
                labelled[in_use] = label()
            assert sum(freq_sweeps) == sum(power_sweeps) == 2500
            assert len(freq_sweeps) >= 4 and len(power_sweeps) >= 4
            assert max(freq_sweeps + power_sweeps) * knobs <= share
        monkeypatch.setattr(optimizer, "MAX_SWEEP_CELLS", 10**9)
        freq_sweeps = self._sweeps(monkeypatch, "_freq_sweep")
        power_sweeps = self._sweeps(monkeypatch, "_power_sweep")
        whole = label()
        assert freq_sweeps == power_sweeps == [2500]
        for in_use in (False, True):
            for got, want in zip(labelled[in_use], whole):
                assert_array_equal(got, want)

    def test_static_block_rows_unchanged(self, monkeypatch):
        runner = ExperimentRunner(
            RunnerConfig(n_chips=2, cores_per_chip=2, n_instructions=3000,
                         fuzzy_examples=300, fuzzy_epochs=1),
            workloads=spec2000_like_suite()[4:6],
        )
        units = [(chip, core) for chip in range(2) for core in range(2)]

        def rows():
            return runner.run_units_batched(
                ALL_TECHNIQUES, AdaptationMode.STATIC, units
            )

        whole = rows()
        monkeypatch.setattr(optimizer, "MAX_SWEEP_CELLS", 1)
        assert rows() == whole

    def test_freq_peak_memory_is_bounded(
        self, population, int_measurement, fp_measurement, abb_spec
    ):
        # 228 TS+ASV+ABB lanes (114 FU twin pairs): unchunked, the
        # (9, 21, 1824-row) grid holds about 2.6 MiB per array.
        cores = [build_core(chip, k) for chip in population[:3]
                 for k in range(2)]
        stack, n_pairs = _twin_stack(
            cores, [int_measurement, fp_measurement],
            scales=np.linspace(0.5, 1.5, 10),
        )
        stack = stack.lane_subset(np.r_[0:114, n_pairs:n_pairs + 114])
        assert stack.batch_size == 228
        tracemalloc.start()
        try:
            freq_algorithm(stack, abb_spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * optimizer.MAX_SWEEP_CELLS * 8

