"""Environments (Table 1), adaptation, state evaluation, retuning."""

import numpy as np
import pytest

from repro.core import (
    ADAPTIVE_ENVIRONMENTS,
    BASELINE,
    NOVAR,
    TS,
    TS_ASV,
    TS_ASV_Q,
    TS_ASV_Q_FU,
    AdaptationMode,
    Configuration,
    Environment,
    Outcome,
    Violation,
    aggregate_static_measurement,
    by_name,
    evaluate_at_fixed_config,
    evaluate_configurations,
    optimize_phase,
    optimize_phases_batched,
)
from repro import obs
from repro.chip import build_core
from repro.chip.chip import stackable
from repro.core.adaptation import (
    _freq_stage,
    _fuzzy_inputs,
    optimize_units_batched,
    perf_params_from_measurement,
)
from repro.core.retuning import retune_batched
from repro.microarch import DEFAULT_CORE_CONFIG, measure_workload
from repro.mitigation import TechniqueState
from repro.obs import MetricsRegistry
from repro.timing.speculation import performance


def _evaluate_one(core, config, activity, rho, t_heatsink=None, *,
                  checker=True):
    """The one-lane ``evaluate_configurations`` call."""
    (state,) = evaluate_configurations(
        core, [config], [activity], [rho], t_heatsink, checker=checker
    )
    return state


@pytest.fixture(scope="module")
def q_measurements(int_workload):
    base = DEFAULT_CORE_CONFIG
    return (
        measure_workload(int_workload, base, 8000, seed=0),
        measure_workload(
            int_workload, base.with_resized_queue("int"), 8000, seed=0
        ),
    )


@pytest.fixture(scope="module")
def fu_measurements(int_workload):
    base = DEFAULT_CORE_CONFIG.with_fu_replication()
    return (
        measure_workload(int_workload, base, 8000, seed=0),
        measure_workload(
            int_workload, base.with_resized_queue("int"), 8000, seed=0
        ),
    )


@pytest.fixture(scope="module")
def fp_fu_measurements(fp_workload):
    base = DEFAULT_CORE_CONFIG.with_fu_replication()
    return (
        measure_workload(fp_workload, base, 8000, seed=0),
        measure_workload(
            fp_workload, base.with_resized_queue("fp"), 8000, seed=0
        ),
    )


class TestEnvironments:
    def test_table1_is_complete(self):
        names = {env.name for env in ADAPTIVE_ENVIRONMENTS}
        assert names == {
            "TS", "TS+ASV", "TS+ASV+ABB", "TS+ASV+Q", "TS+ASV+Q+FU", "ALL",
        }

    def test_lookup_by_name(self):
        assert by_name("TS+ASV").asv
        assert not by_name("TS").asv
        with pytest.raises(KeyError):
            by_name("TS+magic")

    def test_techniques_require_checker(self):
        with pytest.raises(ValueError, match="checker"):
            Environment("bad", checker=False, asv=True)

    def test_spec_reflects_knobs(self, calib):
        ts = TS.optimization_spec(15, calib)
        assert len(ts.vdd_levels) == 1 and len(ts.vbb_levels) == 1
        assert ts.pe_budget == pytest.approx(calib.pe_max / 15)
        base = BASELINE.optimization_spec(15, calib)
        assert base.pe_budget == 0.0
        asv = TS_ASV.optimization_spec(15, calib)
        assert len(asv.vdd_levels) == 9


class TestEvaluateConfiguration:
    def make_config(self, core, f=3.2e9, vdd=1.0):
        n = core.n_subsystems
        return Configuration(
            f_core=f,
            vdd=np.full(n, vdd),
            vbb=np.zeros(n),
            technique=TechniqueState(),
        )

    def test_state_consistency(self, core, int_measurement):
        config = self.make_config(core)
        state = _evaluate_one(
            core, config, int_measurement.activity, int_measurement.rho
        )
        assert state.total_power == pytest.approx(
            state.subsystem_power + state.l2_power + state.checker_power
        )
        assert state.pe_total == pytest.approx(state.pe_per_subsystem.sum())

    def test_checker_power_flag(self, core, int_measurement):
        config = self.make_config(core)
        with_checker = _evaluate_one(
            core, config, int_measurement.activity, int_measurement.rho,
            checker=True,
        )
        without = _evaluate_one(
            core, config, int_measurement.activity, int_measurement.rho,
            checker=False,
        )
        assert with_checker.checker_power > 0.0
        assert without.checker_power == 0.0

    def test_violation_priority_error_first(self, core, int_measurement):
        config = self.make_config(core, f=5.5e9)  # absurdly fast
        state = _evaluate_one(
            core, config, int_measurement.activity, int_measurement.rho
        )
        assert state.violation(core) is Violation.ERROR

    def test_no_violation_at_conservative_point(self, core, int_measurement):
        config = self.make_config(core, f=2.4e9)
        state = _evaluate_one(
            core, config, int_measurement.activity, int_measurement.rho
        )
        assert state.violation(core) is Violation.NONE

    def test_batched_matches_serial(self, core, int_measurement, fp_measurement):
        configs = [
            self.make_config(core, f=2.4e9),
            self.make_config(core, f=3.2e9, vdd=1.1),
            self.make_config(core, f=2.8e9, vdd=0.9),
        ]
        workloads = [int_measurement, fp_measurement, int_measurement]
        batched = evaluate_configurations(
            core,
            configs,
            [m.activity for m in workloads],
            [m.rho for m in workloads],
        )
        for config, meas, got in zip(configs, workloads, batched):
            want = _evaluate_one(
                core, config, meas.activity, meas.rho
            )
            assert np.array_equal(got.temperature, want.temperature)
            assert np.array_equal(got.p_dynamic, want.p_dynamic)
            assert np.array_equal(got.p_static, want.p_static)
            assert np.array_equal(
                got.pe_per_subsystem, want.pe_per_subsystem
            )
            assert got.l2_power == want.l2_power
            assert got.checker_power == want.checker_power
            assert np.array_equal(got.delays.mean, want.delays.mean)
            assert np.array_equal(got.delays.sigma, want.delays.sigma)

    def test_batched_checker_flag(self, core, int_measurement):
        configs = [self.make_config(core), self.make_config(core, f=2.4e9)]
        states = evaluate_configurations(
            core,
            configs,
            [int_measurement.activity] * 2,
            [int_measurement.rho] * 2,
            checker=False,
        )
        assert all(s.checker_power == 0.0 for s in states)

    def test_lowslope_burns_more_power(self, core, int_measurement):
        base = self.make_config(core)
        ls = Configuration(
            f_core=base.f_core,
            vdd=base.vdd,
            vbb=base.vbb,
            technique=TechniqueState(lowslope=True, domain="int"),
        )
        p_base = _evaluate_one(
            core, base, int_measurement.activity, int_measurement.rho
        ).total_power
        p_ls = _evaluate_one(
            core, ls, int_measurement.activity, int_measurement.rho
        ).total_power
        assert p_ls > p_base


class TestEvaluateAtFixedConfig:
    """Static's lane evaluation equals one one-lane evaluation per phase."""

    @staticmethod
    def _assert_equals_per_phase(units, env, measurements):
        got = evaluate_at_fixed_config(units, env, measurements)
        assert len(got) == len(units)
        for (core, config), results in zip(units, got):
            assert len(results) == len(measurements)
            for meas, result in zip(measurements, results):
                want = _evaluate_one(
                    core, config, meas.activity, meas.rho,
                    core.calib.t_heatsink_max, checker=env.checker,
                )
                pe = want.pe_total if env.checker else 0.0
                perf = float(performance(
                    config.f_core, pe, perf_params_from_measurement(meas, core)
                ))
                assert result.performance_ips == perf
                assert result.config is config
                assert result.measurement is meas
                assert result.mode is AdaptationMode.STATIC
                assert result.outcome is Outcome.NO_CHANGE
                assert result.f_controller == config.f_core
                state = result.state
                assert np.array_equal(state.temperature, want.temperature)
                assert np.array_equal(state.p_dynamic, want.p_dynamic)
                assert np.array_equal(state.p_static, want.p_static)
                assert np.array_equal(
                    state.pe_per_subsystem, want.pe_per_subsystem
                )
                assert state.l2_power == want.l2_power
                assert state.checker_power == want.checker_power
                assert np.array_equal(state.delays.mean, want.delays.mean)
                assert np.array_equal(state.delays.sigma, want.delays.sigma)

    def test_stackable_block(
        self, population, core, other_core, fu_measurements,
        fp_fu_measurements,
    ):
        cores = [core, other_core, build_core(population[1], 0)]
        assert stackable(cores)
        measurements = [fu_measurements[0], fp_fu_measurements[0]]
        units = [
            (c, optimize_phase(c, TS_ASV_Q_FU, *fu_measurements).config)
            for c in cores
        ]
        self._assert_equals_per_phase(units, TS_ASV_Q_FU, measurements)

    def test_novar_and_varied_block(
        self, core, novar_core, int_measurement, fp_measurement
    ):
        units = [
            (c, optimize_phase(c, TS_ASV, int_measurement).config)
            for c in (novar_core, core)
        ]
        assert not stackable([novar_core, core])
        for env in (TS_ASV, BASELINE):
            self._assert_equals_per_phase(
                units, env, [int_measurement, fp_measurement]
            )

    def test_no_measurements(self, core, int_measurement):
        config = optimize_phase(core, TS_ASV, int_measurement).config
        assert evaluate_at_fixed_config([(core, config)], TS_ASV, []) == [[]]


class TestRetuning:
    def test_overshoot_backs_off_to_safety(self, core, int_measurement):
        n = core.n_subsystems
        config = Configuration(
            f_core=5.2e9,
            vdd=np.full(n, 1.0),
            vbb=np.zeros(n),
            technique=TechniqueState(),
        )
        [result] = retune_batched(
            [core], [config], [int_measurement.activity], [int_measurement.rho],
            pe_max=core.calib.pe_max,
        )
        assert result.outcome in (Outcome.ERROR, Outcome.TEMP, Outcome.POWER)
        assert result.config.f_core < 5.2e9
        assert result.state.violation(core) is Violation.NONE

    def test_undershoot_ramps_up(self, core, int_measurement):
        n = core.n_subsystems
        config = Configuration(
            f_core=2.4e9,
            vdd=np.full(n, 1.0),
            vbb=np.zeros(n),
            technique=TechniqueState(),
        )
        [result] = retune_batched(
            [core], [config], [int_measurement.activity], [int_measurement.rho],
            pe_max=core.calib.pe_max,
        )
        assert result.outcome is Outcome.LOW_FREQ
        assert result.config.f_core > 2.4e9

    def test_near_optimal_is_no_change(self, core, int_measurement):
        # First find the converged frequency, then re-run from it.
        n = core.n_subsystems
        [probe] = retune_batched(
            [core],
            [Configuration(3.0e9, np.full(n, 1.0), np.zeros(n), TechniqueState())],
            [int_measurement.activity],
            [int_measurement.rho],
            pe_max=core.calib.pe_max,
        )
        [again] = retune_batched(
            [core],
            [probe.config],
            [int_measurement.activity],
            [int_measurement.rho],
            pe_max=core.calib.pe_max,
        )
        assert again.outcome is Outcome.NO_CHANGE
        assert again.config.f_core == pytest.approx(probe.config.f_core)


class TestOptimizePhase:
    def test_environment_ladder_is_monotone(self, core, int_measurement, q_measurements, fu_measurements):
        meas = int_measurement
        f_base = optimize_phase(core, BASELINE, meas).f_core
        f_ts = optimize_phase(core, TS, meas).f_core
        f_asv = optimize_phase(core, TS_ASV, meas).f_core
        f_q = optimize_phase(core, TS_ASV_Q, *q_measurements).f_core
        f_fu = optimize_phase(core, TS_ASV_Q_FU, *fu_measurements).f_core
        assert f_base <= f_ts <= f_asv
        assert f_asv <= f_q + 1e8  # queue may tie but not regress a step
        assert f_q <= f_fu + 1e8

    def test_final_state_respects_constraints(self, core, q_measurements):
        result = optimize_phase(core, TS_ASV_Q, *q_measurements)
        calib = core.calib
        assert result.state.pe_total <= calib.pe_max * 1.01
        assert result.state.max_temperature <= calib.t_max + 0.1
        assert result.state.total_power <= calib.p_max + 1e-6

    def test_baseline_is_error_free(self, core, int_measurement):
        result = optimize_phase(core, BASELINE, int_measurement)
        assert result.state.pe_total < 1e-10

    def test_queue_env_requires_resized_measurement(self, core, int_measurement):
        with pytest.raises(ValueError, match="resized"):
            optimize_phase(core, TS_ASV_Q, int_measurement)

    def test_fuzzy_requires_bank(self, core, int_measurement):
        with pytest.raises(ValueError, match="bank"):
            optimize_phase(
                core, TS_ASV, int_measurement, mode=AdaptationMode.FUZZY_DYN
            )

    def test_fuzzy_close_to_exhaustive(self, core, int_measurement, tiny_bank):
        fuzzy = optimize_phase(
            core, TS_ASV, int_measurement,
            mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
        )
        exact = optimize_phase(core, TS_ASV, int_measurement)
        # Tiny bank: accept a loose envelope; the production bank is ~2%.
        assert fuzzy.f_core >= 0.75 * exact.f_core
        assert fuzzy.state.violation(core) is Violation.NONE

    def test_retune_disabled_keeps_controller_choice(self, core, int_measurement):
        result = optimize_phase(
            core, TS_ASV, int_measurement, retune_enabled=False
        )
        assert result.f_core == result.f_controller

    def test_different_chips_get_different_operating_points(
        self, core, other_core, int_measurement
    ):
        a = optimize_phase(core, TS_ASV, int_measurement)
        b = optimize_phase(other_core, TS_ASV, int_measurement)
        # The 100 MHz grid can make frequencies collide, but the chosen
        # per-subsystem supplies reflect each chip's variation map.
        assert a.f_core != b.f_core or not np.allclose(
            a.config.vdd, b.config.vdd
        )

    def test_static_aggregate_is_elementwise_bound(self, int_measurement, fp_measurement):
        agg = aggregate_static_measurement([int_measurement, fp_measurement])
        stacked = np.maximum(int_measurement.activity, fp_measurement.activity)
        assert np.all(agg.activity <= stacked + 1e-12)
        assert agg.domain == "int"


def _assert_results_identical(batched, serial):
    """Every field of an AdaptationResult must match bit-for-bit."""
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert got.f_core == want.f_core
        assert got.f_controller == want.f_controller
        assert got.outcome is want.outcome
        assert np.array_equal(got.config.vdd, want.config.vdd)
        assert np.array_equal(got.config.vbb, want.config.vbb)
        assert got.performance_ips == want.performance_ips
        assert got.state.total_power == want.state.total_power
        assert got.state.pe_total == want.state.pe_total
        assert np.array_equal(got.state.temperature, want.state.temperature)
        assert np.array_equal(got.state.p_static, want.state.p_static)
        assert np.array_equal(
            got.state.delays.mean, want.state.delays.mean
        )
        assert got.measurement is want.measurement


class TestOptimizePhasesBatched:
    """Lane independence: many phases in one call equal one call each.

    A multi-phase call stacks its lanes into one Freq/Power sweep and one
    set of lane-masked PMAX and retuning rounds; each lane must come out
    exactly as its one-lane :func:`optimize_phase` call does.  The
    cross-version oracle is ``tests/test_adaptation_golden.py``.
    """

    def test_matches_serial_ts_asv(self, core, int_measurement, fp_measurement):
        phases = [(int_measurement, None), (fp_measurement, None)]
        serial = [
            optimize_phase(core, TS_ASV, meas) for meas, _ in phases
        ]
        batched = optimize_phases_batched(core, TS_ASV, phases)
        _assert_results_identical(batched, serial)

    def test_matches_serial_with_queue_resize(self, core, q_measurements):
        full, resized = q_measurements
        phases = [(full, resized), (full, resized)]
        serial = [
            optimize_phase(core, TS_ASV_Q, meas, rs) for meas, rs in phases
        ]
        batched = optimize_phases_batched(core, TS_ASV_Q, phases)
        _assert_results_identical(batched, serial)

    def test_matches_serial_with_low_slope_fu(self, core, fu_measurements):
        full, resized = fu_measurements
        phases = [(full, resized), (full, resized), (full, resized)]
        serial = [
            optimize_phase(core, TS_ASV_Q_FU, meas, rs)
            for meas, rs in phases
        ]
        batched = optimize_phases_batched(core, TS_ASV_Q_FU, phases)
        _assert_results_identical(batched, serial)

    def test_matches_serial_mixed_phases(
        self, core, other_core, int_measurement, fp_measurement
    ):
        phases = [
            (int_measurement, None),
            (fp_measurement, None),
            (int_measurement, None),
        ]
        for which in (core, other_core):
            serial = [
                optimize_phase(which, TS, meas) for meas, _ in phases
            ]
            batched = optimize_phases_batched(which, TS, phases)
            _assert_results_identical(batched, serial)

    def test_retune_disabled_matches_serial(self, core, int_measurement, fp_measurement):
        phases = [(int_measurement, None), (fp_measurement, None)]
        serial = [
            optimize_phase(core, TS_ASV, meas, retune_enabled=False)
            for meas, _ in phases
        ]
        batched = optimize_phases_batched(
            core, TS_ASV, phases, retune_enabled=False
        )
        _assert_results_identical(batched, serial)

    def test_queue_env_requires_resized_measurements(self, core, int_measurement):
        with pytest.raises(ValueError, match="resize"):
            optimize_phases_batched(
                core,
                TS_ASV_Q,
                [(int_measurement, None), (int_measurement, None)],
            )

    def test_fuzzy_matches_one_lane_calls(self, core, int_measurement, tiny_bank):
        phases = [(int_measurement, None), (int_measurement, None)]
        serial = [
            optimize_phase(
                core, TS_ASV, meas,
                mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
            )
            for meas, _ in phases
        ]
        batched = optimize_phases_batched(
            core, TS_ASV, phases,
            mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
        )
        _assert_results_identical(batched, serial)

    def test_fuzzy_mixed_variants_match_one_lane_calls(
        self, population, core, other_core, fu_measurements,
        fp_fu_measurements, tiny_bank,
    ):
        """Int and FP phases on three cores: the resized-queue and
        low-slope stages put both variants in one subsystem column, and
        the bank groups lanes by FC; each lane must still equal its
        one-lane call."""
        cores = [core, other_core, build_core(population[1], 0)]
        phases = [fu_measurements, fp_fu_measurements]
        # Precondition: the lowslope/resized stage mixes variants within
        # the IntQ and IntALU columns.
        _, variants, _, _ = _fuzzy_inputs(
            [c for c in cores for _ in phases], TS_ASV_Q_FU,
            [
                TechniqueState(queue_full=False, lowslope=True,
                               domain=full.domain)
                for _ in cores for full, _ in phases
            ],
            [resized for _ in cores for _, resized in phases],
        )
        fp = core.floorplan
        assert set(variants[:, fp.index_of("IntQ")]) == {"full", "resized"}
        assert set(variants[:, fp.index_of("IntALU")]) == {
            "normal", "lowslope"
        }
        batched = optimize_units_batched(
            [(c, phases) for c in cores], TS_ASV_Q_FU,
            AdaptationMode.FUZZY_DYN, tiny_bank,
        )
        for which, results in zip(cores, batched):
            serial = [
                optimize_phase(
                    which, TS_ASV_Q_FU, full, resized,
                    mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
                )
                for full, resized in phases
            ]
            _assert_results_identical(results, serial)

    def test_fuzzy_inference_counter_per_estimate(
        self, core, int_measurement, fp_measurement, tiny_bank
    ):
        """``ml.inference_calls`` counts one per (lane, subsystem)
        estimate, not one per bank call: this two-phase unit makes
        135 = 15 x 9 lane estimates.  That is one two-lane Freq-FC call,
        the two-lane Power stage, one two-lane PMAX round, and three
        more PMAX rounds (200 MHz each) of the integer phase alone, down
        to 3.8 GHz."""
        registry = MetricsRegistry()
        was_enabled = obs.enabled()
        obs.enable()
        try:
            with obs.scoped(registry):
                optimize_phases_batched(
                    core, TS_ASV,
                    [(int_measurement, None), (fp_measurement, None)],
                    mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
                )
        finally:
            if not was_enabled:
                obs.disable()
        assert registry.counters["ml.inference_calls"].value == 135


class TestFreqStage:
    @pytest.mark.parametrize("env", [TS_ASV_Q, TS_ASV_Q_FU])
    @pytest.mark.parametrize(
        "mode", [AdaptationMode.EXH_DYN, AdaptationMode.FUZZY_DYN]
    )
    def test_merged_queue_stages_equal_separate_calls(
        self, population, core, other_core, fu_measurements,
        fp_fu_measurements, tiny_bank, monkeypatch, env, mode,
    ):
        """Both queue stages in one Freq sweep (or one bank call) decide
        every lane bit for bit as one call per stage does."""
        cores = [core, other_core, build_core(population[1], 0)]
        pairs = [(c, m) for c in cores
                 for m in (fu_measurements, fp_fu_measurements)]
        lane_cores = [c for c, _ in pairs]
        stages = [
            ([full for _, (full, _) in pairs], True),
            ([resized for _, (_, resized) in pairs], False),
        ]
        spec = env.optimization_spec(core.n_subsystems, core.calib)
        bank_calls = []
        predict = tiny_bank.predict_fmax

        def counted(*args, **kwargs):
            bank_calls.append(1)
            return predict(*args, **kwargs)

        monkeypatch.setattr(tiny_bank, "predict_fmax", counted)
        with obs.scoped(MetricsRegistry()) as registry:
            merged = _freq_stage(lane_cores, env, spec, stages, mode, tiny_bank)
        if mode is AdaptationMode.FUZZY_DYN:
            assert len(bank_calls) == 1
        else:
            assert registry.counters["optimizer.freq_calls"].value == 1
        separate = [
            _freq_stage(lane_cores, env, spec, [stage], mode, tiny_bank)[0]
            for stage in stages
        ]
        assert merged == separate
