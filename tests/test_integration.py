"""End-to-end integration tests across the whole stack."""

import pytest

import repro
from repro.core import TS_ASV, AdaptationMode
from repro.exps import run_table2, run_fig13
from repro.exps.runner import ExperimentRunner, RunnerConfig

from tests.conftest import run_env


class TestQuickstartPath:
    def test_quick_adapt_produces_reasonable_point(self):
        result = repro.quick_adapt()
        calib = repro.DEFAULT_CALIBRATION
        assert 0.6 <= result.f_core / calib.f_nominal <= 1.4
        assert result.state.total_power <= calib.p_max + 1e-6
        assert result.state.pe_total <= calib.pe_max * 1.01

    def test_public_api_surface(self):
        assert callable(repro.build_core)
        assert callable(repro.optimize_phase)
        assert repro.__version__


class TestPaperHeadlineShapes:
    """The qualitative claims of the abstract, at reduced scale."""

    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(
            RunnerConfig(
                n_chips=3,
                cores_per_chip=1,
                n_instructions=6000,
                fuzzy_examples=800,
                fuzzy_epochs=1,
            )
        )

    def test_baseline_loses_roughly_a_fifth_of_frequency(self, runner):
        base = run_env(runner, repro.BASELINE)
        assert 0.68 <= base.f_rel <= 0.9  # paper: 0.78

    def test_full_eval_beats_novar_frequency(self, runner):
        best = run_env(runner, repro.TS_ASV_Q_FU, AdaptationMode.EXH_DYN)
        assert best.f_rel > 1.0  # paper: 1.21

    def test_full_eval_beats_baseline_performance_substantially(self, runner):
        base = run_env(runner, repro.BASELINE)
        best = run_env(runner, repro.TS_ASV_Q_FU, AdaptationMode.EXH_DYN)
        assert best.perf_rel / base.perf_rel > 1.15  # paper: 1.40

    def test_power_stays_within_budget(self, runner):
        best = run_env(runner, repro.TS_ASV_Q_FU, AdaptationMode.EXH_DYN)
        for r in best.results:
            assert r.power <= repro.DEFAULT_CALIBRATION.p_max + 1e-6

    def test_fuzzy_close_to_exhaustive(self, runner):
        fuzzy = run_env(runner, TS_ASV, AdaptationMode.FUZZY_DYN)
        exact = run_env(runner, TS_ASV, AdaptationMode.EXH_DYN)
        assert fuzzy.f_rel >= 0.85 * exact.f_rel  # tiny bank: loose bound


class TestControllerStudies:
    def test_table2_small(self, tiny_runner):
        from repro.core import TS as TS_ENV

        result = run_table2(
            tiny_runner, environments=[TS_ENV], n_workloads=2
        )
        assert "TS" in result.freq_mhz
        for kind in ("memory", "mixed", "logic"):
            assert result.freq_mhz["TS"][kind] >= 0.0
        assert result.rows()

    def test_fig13_small(self, tiny_runner):
        from repro.core import TS as TS_ENV

        result = run_fig13(tiny_runner, environments=[TS_ENV])
        for (opt, env), frac in result.fractions.items():
            assert env == "TS"
            assert sum(frac.values()) == pytest.approx(1.0)
        assert len(result.fractions) == 4  # the four opt configs
