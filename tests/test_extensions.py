"""Extension features: bank persistence, CMP scheduling, path sampling,
checker throughput, variation-severity sensitivity."""

import numpy as np
import pytest

from repro.chip import CMP, schedule_applications
from repro.chip.chip import CoreLanes
from repro.core import TS_ASV, optimize_phase
from repro.exps import run_sensitivity
from repro.microarch import DEFAULT_CORE_CONFIG, measure_workload
from repro.ml import load_bank, save_bank
from repro.timing import (
    CheckerConfig,
    fit_stage_model,
    stage_error_rates,
    wall_ensemble,
)
from repro.variation import DieGrid


class TestBankPersistence:
    def test_round_trip_preserves_predictions(self, tiny_bank, core, tmp_path):
        path = tmp_path / "bank.npz"
        save_bank(tiny_bank, path)
        loaded = load_bank(path)
        spec = tiny_bank.spec
        lanes = CoreLanes.stack([core])
        variants = np.array([[
            tiny_bank.variants_for(core, index)[0]
            for index in range(core.n_subsystems)
        ]])
        inputs = np.full(variants.shape, 0.5)
        original = tiny_bank.predict_fmax(
            lanes, variants, spec.t_heatsink, inputs, inputs
        )
        restored = loaded.predict_fmax(
            lanes, variants, spec.t_heatsink, inputs, inputs
        )
        assert restored == pytest.approx(original)

    def test_round_trip_preserves_voltages(self, tiny_bank, core, tmp_path):
        path = tmp_path / "bank.npz"
        save_bank(tiny_bank, path)
        loaded = load_bank(path)
        spec = tiny_bank.spec
        lanes = CoreLanes.stack([core])
        variants = np.array([[
            tiny_bank.variants_for(core, index)[0]
            for index in range(core.n_subsystems)
        ]])
        alpha = np.full(variants.shape, 0.4)
        rho = np.full(variants.shape, 0.5)
        f_core = np.array([3.5e9])
        a = tiny_bank.predict_voltages(
            lanes, variants, spec.t_heatsink, alpha, rho, f_core
        )
        b = loaded.predict_voltages(
            lanes, variants, spec.t_heatsink, alpha, rho, f_core
        )
        for got, want in zip(b, a):
            np.testing.assert_array_equal(got, want)

    def test_metadata_survives(self, tiny_bank, tmp_path):
        path = tmp_path / "bank.npz"
        save_bank(tiny_bank, path)
        loaded = load_bank(path)
        assert loaded.optimism == tiny_bank.optimism
        assert np.allclose(loaded.spec.vdd_levels, tiny_bank.spec.vdd_levels)
        assert loaded.spec.pe_budget == pytest.approx(tiny_bank.spec.pe_budget)
        assert loaded.freq_rmse == pytest.approx(tiny_bank.freq_rmse)


class TestCMPScheduling:
    @pytest.fixture(scope="class")
    def cmp_chip(self, population):
        return CMP.from_chip(population[0])

    def test_four_cores(self, cmp_chip):
        assert len(cmp_chip) == 4
        # Cores sample different quadrants: variation differs.
        assert not np.allclose(
            cmp_chip.cores[0].vt0_timing, cmp_chip.cores[1].vt0_timing
        )

    def test_schedule_beats_or_matches_naive(self, cmp_chip, suite):
        measurements = [
            measure_workload(w, DEFAULT_CORE_CONFIG, 5000) for w in suite[:4]
        ]

        def evaluate(core, app):
            return optimize_phase(core, TS_ASV, measurements[app]).performance_ips

        result = schedule_applications(cmp_chip, evaluate)
        assert result.throughput >= result.naive_throughput - 1e-9
        assert result.gain >= 0.0
        assert sorted(result.assignment) == [0, 1, 2, 3]

    def test_schedule_with_fewer_apps(self, cmp_chip):
        perf_matrix = {(0, c): 1.0 + 0.1 * c for c in range(4)}

        def evaluate(core, app):
            return perf_matrix[(app, core.core_index)]

        result = schedule_applications(cmp_chip, evaluate, n_apps=1)
        assert result.assignment == (3,)  # the fastest core

    def test_rejects_too_many_apps(self, cmp_chip):
        with pytest.raises(ValueError):
            schedule_applications(cmp_chip, lambda c, a: 1.0, n_apps=5)


class TestPathSampling:
    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            wall_ensemble(250e-12, n_paths=10, exercise_count=12).__class__(
                nominal_delays=np.array([-1.0]), random_sigma=0.0
            )

    def test_static_delays_frozen(self):
        ensemble = wall_ensemble(250e-12, seed=4)
        assert np.array_equal(ensemble.static_delays(), ensemble.static_delays())

    def test_empirical_error_rate_monotone(self):
        ensemble = wall_ensemble(250e-12, seed=4)
        slow = ensemble.empirical_error_rate(3.0e9)
        fast = ensemble.empirical_error_rate(4.6e9)
        assert slow <= fast

    def test_error_free_below_all_paths(self):
        ensemble = wall_ensemble(250e-12, seed=4)
        slowest = ensemble.static_delays().max()
        assert ensemble.empirical_error_rate(0.9 / slowest) == 0.0

    def test_analytic_fit_matches_monte_carlo(self):
        """The normal VATS abstraction tracks the microscopic ensemble in
        the PE regime that matters (1e-3..0.5 per access)."""
        ensemble = wall_ensemble(250e-12, seed=7)
        model = fit_stage_model(ensemble, z_free=6.5)
        rho = np.array([1.0])
        for freq in (4.1e9, 4.3e9, 4.5e9):
            empirical = ensemble.empirical_error_rate(freq, n_accesses=60000)
            analytic = float(stage_error_rates(freq, model, rho)[0])
            if empirical > 1e-3:
                assert analytic == pytest.approx(empirical, rel=0.6, abs=2e-3)

    def test_empirical_error_rate_accepts_frequency_arrays(self):
        ensemble = wall_ensemble(250e-12, seed=4)
        freqs = np.linspace(3.0e9, 4.8e9, 7)
        vector = ensemble.empirical_error_rate(freqs)
        assert vector.shape == freqs.shape
        # One shared Monte-Carlo draw: each point equals the scalar call.
        for i, freq in enumerate(freqs):
            assert vector[i] == ensemble.empirical_error_rate(float(freq))

    def test_empirical_error_rate_scalar_returns_float(self):
        ensemble = wall_ensemble(250e-12, seed=4)
        assert isinstance(ensemble.empirical_error_rate(4.0e9), float)

    def test_empirical_error_rate_rejects_nonpositive_array(self):
        ensemble = wall_ensemble(250e-12, seed=4)
        with pytest.raises(ValueError):
            ensemble.empirical_error_rate(np.array([4.0e9, 0.0]))

    def test_wall_shape(self):
        ensemble = wall_ensemble(250e-12, wall_fraction=0.4, seed=1)
        delays = ensemble.nominal_delays
        near_wall = np.mean(delays > 0.95 * 250e-12)
        assert near_wall >= 0.35  # the critical-path wall exists


class TestCheckerThroughput:
    def test_wide_checker_rarely_binds(self):
        checker = CheckerConfig()
        # A 3-issue core at 5 GHz peaks at 15 G-instr/s; the checker
        # verifies 14 G/s — close, but real IPC keeps perf far below.
        assert checker.max_throughput == pytest.approx(14e9)
        assert checker.cap_performance(4e9) == pytest.approx(4e9)

    def test_narrow_checker_caps(self):
        checker = CheckerConfig(verify_width=1)
        assert checker.cap_performance(1e10) == pytest.approx(3.5e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckerConfig(verify_width=0)


class TestSensitivity:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sensitivity(
            sigma_levels=(0.045, 0.135),
            n_chips=2,
            grid=DieGrid(nx=16, ny=16),
        )

    def test_more_variation_hurts_baseline(self, sweep):
        points = sweep.points
        assert points[0].baseline_f_rel > points[1].baseline_f_rel

    def test_eval_always_above_baseline(self, sweep):
        for p in sweep.points:
            assert p.eval_f_rel > p.baseline_f_rel

    def test_recovery_fraction_meaningful(self, sweep):
        for p in sweep.points:
            assert 0.0 <= p.recovered_fraction <= 1.0
        # At 1.5x the paper's severity the knobs saturate, but EVAL still
        # recovers a substantial share of the variation loss.
        assert sweep.points[1].recovered_fraction > 0.3

    def test_rows_render(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 2 and len(rows[0]) == 5


class TestRetiming:
    @pytest.fixture(scope="class")
    def delays(self, core):
        from repro.timing import stage_delays

        n = core.n_subsystems
        return stage_delays(
            core, np.full(n, 1.0), np.zeros(n), core.calib.t_design
        )

    def test_retiming_never_slower_than_rigid(self, core, delays):
        from repro.mitigation import retime

        result = retime(core, delays)
        assert result.f_retimed >= result.f_baseline

    def test_retiming_bounded_by_loop_average(self, core, delays):
        from repro.mitigation import retime

        result = retime(core, delays)
        periods = delays.error_free_period()
        # Cannot beat the global average stage delay.
        assert result.f_retimed <= 1.0 / periods.mean() + 1e-9

    def test_limiting_loop_reported(self, core, delays):
        from repro.mitigation import DEFAULT_LOOPS, retime

        result = retime(core, delays)
        known = set(DEFAULT_LOOPS) | {
            (name,) for name in core.names
        }
        assert result.limiting_loop in known

    def test_uncovered_stage_keeps_own_period(self, core, delays):
        from repro.mitigation import retime

        # Restrict loops so Dcache has no donors.
        result = retime(core, delays, loops=(("Icache", "ITLB"),))
        idx = core.floorplan.index_of("Dcache")
        period = float(delays.error_free_period()[idx])
        assert result.loop_periods[("Dcache",)] == pytest.approx(period)

    def test_comparison_orders_schemes(self):
        from repro.exps import run_retiming_comparison
        from repro.variation import DieGrid

        result = run_retiming_comparison(n_chips=2)
        assert (
            result.baseline_f_rel
            <= result.retimed_f_rel
            <= result.eval_f_rel + 0.05
        )
