"""The Freq and Power algorithms (Sections 4.2 / 4.3.1)."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import obs
from repro.core import (
    BASELINE,
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
from repro.core.optimizer import _ARRAY_FIELDS, SubsystemArrays, _distinct_rows
from repro.mitigation import TechniqueState
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

    def test_min_rest_excludes_target(self, subs, asv_spec):
        result = freq_algorithm(subs, asv_spec)
        bottleneck = int(np.argmin(result.f_max))
        assert result.min_rest(bottleneck) >= result.f_max[bottleneck]

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
        p_hi = power_algorithm(subs, f_hi, asv_spec).core_power()
        p_lo = power_algorithm(subs, f_hi * 0.75, asv_spec).core_power()
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

    def test_core_frequencies_match_serial(self, lanes, asv_spec):
        stack = SubsystemArrays.stack(lanes)
        batched = freq_algorithm(stack, asv_spec)
        freqs = batched.core_frequencies(asv_spec.knob_ranges)
        assert freqs.shape == (len(lanes),)
        for lane, member in enumerate(lanes):
            serial = freq_algorithm(member, asv_spec)
            assert freqs[lane] == serial.core_frequency(asv_spec.knob_ranges)

    def test_batched_result_rejects_scalar_accessors(self, lanes, asv_spec):
        result = freq_algorithm(SubsystemArrays.stack(lanes), asv_spec)
        with pytest.raises(ValueError):
            result.core_frequency()
        with pytest.raises(ValueError):
            result.min_rest(0)

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
            result.core_power()
        with pytest.raises(ValueError):
            result.max_temperature()
