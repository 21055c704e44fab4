"""Mitigation techniques: tilt, shift, decisions, area."""

import numpy as np
import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.microarch import DEFAULT_CORE_CONFIG
from repro.mitigation import (
    TechniqueState,
    area_budget,
    choose_fu_implementation,
    choose_queue_size,
)
from repro.timing import PerfParams, performance


class TestTechniqueState:
    def test_queue_and_fu_names_by_domain(self):
        int_state = TechniqueState(domain="int")
        fp_state = TechniqueState(domain="fp")
        assert int_state.queue_name == "IntQ" and int_state.fu_name == "IntALU"
        assert fp_state.queue_name == "FPQ" and fp_state.fu_name == "FPUnit"

    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError):
            TechniqueState(domain="vector")

    def test_identity_modifiers(self, core):
        mods = TechniqueState().stage_modifiers(core)
        assert np.all(mods.delay_scale == 1.0)
        assert np.all(mods.sigma_scale == 1.0)

    def test_resize_modifies_only_the_queue(self, core):
        state = TechniqueState(queue_full=False, domain="int")
        mods = state.stage_modifiers(core)
        idx = core.floorplan.index_of("IntQ")
        assert mods.delay_scale[idx] == pytest.approx(
            DEFAULT_CALIBRATION.queue_resize_delay_factor
        )
        others = np.delete(mods.delay_scale, idx)
        assert np.all(others == 1.0)

    def test_lowslope_modifies_only_the_fu(self, core):
        state = TechniqueState(lowslope=True, domain="fp")
        mods = state.stage_modifiers(core)
        idx = core.floorplan.index_of("FPUnit")
        assert mods.sigma_scale[idx] == pytest.approx(
            DEFAULT_CALIBRATION.lowslope_sigma_factor
        )

    def test_power_factors(self, core):
        state = TechniqueState(queue_full=False, lowslope=True, domain="int")
        factors = state.power_factors(core)
        fp = core.floorplan
        assert factors[fp.index_of("IntALU")] == pytest.approx(
            DEFAULT_CALIBRATION.lowslope_power_factor
        )
        assert factors[fp.index_of("IntQ")] == pytest.approx(
            DEFAULT_CALIBRATION.queue_resize_power_factor
        )

    def test_core_config_resize_and_replication(self):
        state = TechniqueState(queue_full=False, domain="int")
        cfg = state.core_config(DEFAULT_CORE_CONFIG, replication_built=True)
        assert cfg.extra_exec_stage == 1
        assert cfg.int_queue_size < DEFAULT_CORE_CONFIG.int_queue_size

    def test_replication_stage_present_even_with_normal_fu(self):
        # The extra stage is hardware: it stays whichever replica runs.
        state = TechniqueState(lowslope=False)
        cfg = state.core_config(DEFAULT_CORE_CONFIG, replication_built=True)
        assert cfg.extra_exec_stage == 1


class TestFUDecision:
    def test_enable_lowslope_when_fu_is_bottleneck(self):
        d = choose_fu_implementation(3.0e9, 3.4e9, 4.0e9)
        assert d.use_lowslope
        assert d.core_frequency == pytest.approx(3.4e9)

    def test_keep_normal_when_fu_not_critical(self):
        d = choose_fu_implementation(4.5e9, 4.8e9, 4.0e9)
        assert not d.use_lowslope
        assert d.core_frequency == pytest.approx(4.0e9)

    def test_keep_normal_when_replica_does_not_help(self):
        # Thermal inversion: the replica's extra power makes it slower.
        d = choose_fu_implementation(3.0e9, 2.8e9, 4.0e9)
        assert not d.use_lowslope

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_fu_implementation(0.0, 1e9, 1e9)


class TestQueueDecision:
    def make_params(self, cpi):
        return PerfParams.from_calibration(cpi, 0.002)

    def test_resize_wins_when_frequency_gain_dominates(self):
        d = choose_queue_size(
            4.0e9, self.make_params(1.0), 4.5e9, self.make_params(1.02), 1e-4
        )
        assert not d.use_full
        assert d.core_frequency == pytest.approx(4.5e9)

    def test_full_wins_when_cpi_cost_dominates(self):
        d = choose_queue_size(
            4.0e9, self.make_params(1.0), 4.05e9, self.make_params(1.4), 1e-4
        )
        assert d.use_full

    def test_performance_attribute_matches_choice(self):
        d = choose_queue_size(
            4.0e9, self.make_params(1.0), 4.3e9, self.make_params(1.05), 1e-4
        )
        # The winner is the configuration with the higher Eq 5 estimate.
        assert d.perf_full == performance(4.0e9, 1e-4, self.make_params(1.0))
        assert d.perf_resized == performance(
            4.3e9, 1e-4, self.make_params(1.05)
        )
        assert d.use_full == (d.perf_full >= d.perf_resized)


class TestAreaBudget:
    def test_reproduces_figure_7d(self):
        budget = area_budget()
        table = budget.as_percent()
        assert table["IntALU replication"] == pytest.approx(0.7)
        assert table["FPAdd/Mul replication"] == pytest.approx(2.5)
        assert table["Checker"] == pytest.approx(7.0)
        assert table["Phase detector"] == pytest.approx(0.3)
        assert table["Sensors"] == pytest.approx(0.1)
        assert table["ASV"] == pytest.approx(0.0)
        assert table["Issue-queue resize"] == pytest.approx(0.0)

    def test_total_is_10_6_percent(self):
        assert 100 * area_budget().total == pytest.approx(10.6, abs=0.05)

    def test_abb_adds_two_percent(self):
        with_abb = area_budget(include_abb=True)
        assert 100 * (with_abb.total - area_budget().total) == pytest.approx(2.0)
