"""VATS timing-error model and timing speculation (Eqs 4-5)."""

import numpy as np
import pytest

from repro.timing import (
    CheckerConfig,
    PerfParams,
    StageModifiers,
    effective_cpi,
    error_free_frequency,
    frequency_at_stage_budget,
    max_frequency_under_budget,
    miss_penalty_cycles,
    optimal_on_curve,
    performance,
    processor_error_rate,
    stage_delays,
    stage_error_rates,
)


@pytest.fixture(scope="module")
def delays(core):
    n = core.n_subsystems
    return stage_delays(
        core, np.full(n, 1.0), np.zeros(n), core.calib.t_design
    )


@pytest.fixture(scope="module")
def rho(core):
    return core.rho_ref


class TestNormSf:
    """The survival function ``Q(z)`` inside the fused Eq 4 kernel.

    With ``f = sigma = rho = 1`` and ``mean = 1 - z`` the kernel returns
    ``Q((1/f - mean) / sigma)``, i.e. ``Q`` at ``1 - (1 - z)``, which is
    ``z`` up to the rounding of ``1 - z``.
    """

    def test_bit_identical_to_scipy_over_optimizer_range(self):
        from scipy.stats import norm

        from repro.kernels import timing_error_cdf

        # The optimizer probes z from deep error-free (~ +40) to heavy
        # overclocking (~ -10); bit-identity keeps every cached summary
        # and golden table stable.
        z = np.linspace(-12.0, 40.0, 20001)
        mean = 1.0 - z
        assert np.array_equal(
            timing_error_cdf(1.0, mean, 1.0, 1.0), norm.sf(1.0 - mean)
        )
        assert timing_error_cdf(1.0, 1.0, 1.0, 1.0) == norm.sf(0.0)

    def test_tail_values(self):
        from repro.kernels import timing_error_cdf

        # mean = 1 -+ 40 is exact, so z = +-40 is too.
        assert timing_error_cdf(1.0, -39.0, 1.0, 1.0) == 0.0  # underflow
        assert timing_error_cdf(1.0, 41.0, 1.0, 1.0) == 1.0


class TestStageDelays:
    def test_positive_and_ordered(self, delays):
        assert np.all(delays.mean > 0)
        assert np.all(delays.sigma > 0)
        assert np.all(delays.error_free_period() > delays.mean)

    def test_memory_has_sharper_onset_than_logic(self, core, delays):
        kinds = core.kinds
        mem_ratio = [
            delays.sigma[i] / delays.mean[i]
            for i in range(len(kinds))
            if kinds[i] == "memory"
        ]
        logic_ratio = [
            delays.sigma[i] / delays.mean[i]
            for i in range(len(kinds))
            if kinds[i] == "logic"
        ]
        assert max(mem_ratio) < min(logic_ratio)

    def test_asv_speeds_stages_up(self, core):
        n = core.n_subsystems
        slow = stage_delays(core, np.full(n, 0.9), np.zeros(n), 350.0)
        fast = stage_delays(core, np.full(n, 1.2), np.zeros(n), 350.0)
        assert np.all(fast.mean < slow.mean)

    def test_modifiers_shift(self, core, delays):
        n = core.n_subsystems
        mods = StageModifiers(
            delay_scale=np.full(n, 0.9), sigma_scale=np.ones(n)
        )
        shifted = stage_delays(
            core, np.full(n, 1.0), np.zeros(n), core.calib.t_design, mods
        )
        assert np.allclose(shifted.mean, delays.mean * 0.9)
        assert np.allclose(shifted.sigma, delays.sigma * 0.9)

    def test_modifiers_tilt_preserves_error_free_point(self, core, delays):
        n = core.n_subsystems
        mods = StageModifiers(
            delay_scale=np.ones(n), sigma_scale=np.full(n, 1.5)
        )
        tilted = stage_delays(
            core, np.full(n, 1.0), np.zeros(n), core.calib.t_design, mods
        )
        assert np.allclose(
            tilted.error_free_period(), delays.error_free_period()
        )
        assert np.all(tilted.sigma > delays.sigma)

    def test_modifier_validation(self):
        with pytest.raises(ValueError):
            StageModifiers(delay_scale=np.ones(3), sigma_scale=np.zeros(3))


class TestErrorRates:
    def test_zero_below_error_free_frequency(self, delays, rho):
        f_var = error_free_frequency(delays)
        pe = processor_error_rate(f_var * 0.9, delays, rho)
        assert pe < 1e-9

    def test_monotone_in_frequency(self, delays, rho):
        freqs = np.linspace(3e9, 6e9, 40)
        pe = processor_error_rate(freqs[:, None], delays, rho)
        assert np.all(np.diff(pe) >= -1e-18)

    def test_stage_rates_sum_to_processor_rate(self, delays, rho):
        f = 4.5e9
        per_stage = stage_error_rates(f, delays, rho)
        assert processor_error_rate(f, delays, rho) == pytest.approx(
            per_stage.sum()
        )

    def test_rejects_nonpositive_frequency(self, delays, rho):
        with pytest.raises(ValueError):
            stage_error_rates(0.0, delays, rho)

    def test_budget_frequency_above_error_free(self, delays, rho):
        f_var = error_free_frequency(delays)
        f_budget = max_frequency_under_budget(delays, rho, 1e-4 / 15)
        assert f_budget > f_var

    def test_budget_frequency_meets_budget(self, delays, rho):
        budget = 1e-4 / 15
        f = frequency_at_stage_budget(delays, rho, budget)
        pe = stage_error_rates(f.min(), delays, rho)
        assert np.all(pe <= budget * (1 + 1e-6))

    def test_tighter_budget_means_lower_frequency(self, delays, rho):
        loose = max_frequency_under_budget(delays, rho, 1e-3)
        tight = max_frequency_under_budget(delays, rho, 1e-7)
        assert tight < loose

    def test_pe_cliff_is_steep(self, delays, rho):
        # Section 4.1: f range between PE=1e-4 and PE=1e-1 is minuscule.
        f4 = max_frequency_under_budget(delays, rho, 1e-4 / 15)
        f1 = max_frequency_under_budget(delays, rho, 1e-1 / 15)
        assert (f1 - f4) / f4 < 0.12

    def test_budget_rejects_nonpositive(self, delays, rho):
        with pytest.raises(ValueError):
            frequency_at_stage_budget(delays, rho, 0.0)


class TestPerformanceModel:
    def make_params(self, cpi=0.8, mr=0.003):
        return PerfParams.from_calibration(cpi, mr)

    def test_miss_penalty_grows_with_frequency(self):
        params = self.make_params()
        assert miss_penalty_cycles(5e9, params) > miss_penalty_cycles(4e9, params)

    def test_effective_cpi_components(self):
        params = self.make_params(cpi=1.0, mr=0.0)
        assert effective_cpi(4e9, 0.0, params) == pytest.approx(1.0)
        with_errors = effective_cpi(4e9, 0.01, params)
        assert with_errors == pytest.approx(
            1.0 + 0.01 * params.recovery_penalty
        )

    def test_performance_peaks_then_falls(self, delays, rho):
        params = self.make_params()
        freqs = np.linspace(3e9, 6e9, 120)
        pe = processor_error_rate(freqs[:, None], delays, rho)
        perfs = performance(freqs, pe, params)
        best = int(np.argmax(perfs))
        assert 0 < best < len(freqs) - 1  # interior peak
        assert perfs[-1] < perfs[best] * 0.9  # clear plunge

    def test_optimal_on_curve_matches_argmax(self, delays, rho):
        params = self.make_params()
        freqs = np.linspace(3e9, 6e9, 60)
        pe = processor_error_rate(freqs[:, None], delays, rho)
        f_opt, perf_opt = optimal_on_curve(freqs, pe, params)
        assert perf_opt == pytest.approx(performance(freqs, pe, params).max())

    def test_memory_bound_gains_less_from_frequency(self):
        compute = self.make_params(cpi=0.8, mr=0.0)
        memory = self.make_params(cpi=0.8, mr=0.03)
        gain_compute = performance(5e9, 0.0, compute) / performance(
            4e9, 0.0, compute
        )
        gain_memory = performance(5e9, 0.0, memory) / performance(
            4e9, 0.0, memory
        )
        assert gain_compute > gain_memory

    def test_rejects_negative_error_rate(self):
        with pytest.raises(ValueError):
            effective_cpi(4e9, -0.1, self.make_params())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PerfParams(cpi_comp=0.0, l2_miss_rate=0.0, recovery_penalty=14,
                       memory_latency_s=52e-9)
        with pytest.raises(ValueError):
            PerfParams(cpi_comp=1.0, l2_miss_rate=0.0, recovery_penalty=14,
                       memory_latency_s=52e-9, overlap_factor=1.5)

    def test_checker_config(self):
        checker = CheckerConfig()
        assert checker.frequency == pytest.approx(3.5e9)  # Figure 7(c)
        assert checker.area_fraction == pytest.approx(0.07)
        with pytest.raises(ValueError):
            CheckerConfig(frequency=0.0)
