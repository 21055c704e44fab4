"""Extension features: bank persistence, checker throughput,
variation-severity sensitivity, retiming."""

import numpy as np
import pytest

from repro.chip.chip import CoreLanes
from repro.exps import run_sensitivity
from repro.ml import load_bank, save_bank
from repro.timing import CheckerConfig
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
