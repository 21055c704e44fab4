"""Device-level models: delay (Eq 1), leakage (Eq 2/8), power (Eq 3/7),
and the threshold-voltage law (Eq 9)."""

import numpy as np
import pytest

from repro.circuits import (
    DEFAULT_KNOB_RANGES,
    DEFAULT_VT_SENSITIVITIES,
    KnobRanges,
    OperatingPoint,
    VtSensitivities,
    delay_factor,
    gate_delay,
    static_power,
    threshold_voltage,
)


class TestGateDelay:
    def test_higher_vt_is_slower(self):
        assert gate_delay(1.0, 0.25, 1.0, 350.0) > gate_delay(1.0, 0.15, 1.0, 350.0)

    def test_higher_vdd_is_faster(self):
        assert gate_delay(1.2, 0.18, 1.0, 350.0) < gate_delay(1.0, 0.18, 1.0, 350.0)

    def test_longer_channel_is_slower(self):
        assert gate_delay(1.0, 0.18, 1.1, 350.0) > gate_delay(1.0, 0.18, 1.0, 350.0)

    def test_hotter_is_slower(self):
        # Mobility degradation dominates at fixed Vt.
        assert gate_delay(1.0, 0.18, 1.0, 380.0) > gate_delay(1.0, 0.18, 1.0, 340.0)

    def test_rejects_subthreshold_operation(self):
        with pytest.raises(ValueError, match="Vdd > Vt"):
            gate_delay(0.5, 0.6, 1.0, 350.0)

    def test_vectorised(self):
        vt = np.array([0.1, 0.15, 0.2])
        delays = gate_delay(1.0, vt, 1.0, 350.0)
        assert delays.shape == (3,)
        assert np.all(np.diff(delays) > 0)

    def test_delay_factor_is_one_at_nominal(self):
        factor = delay_factor(
            1.0, 0.18, 1.0, 350.0, vdd_nom=1.0, vt_nom=0.18, temp_nom=350.0
        )
        assert factor == pytest.approx(1.0)


class TestLeakage:
    def test_exponential_in_vt(self):
        leaky = static_power(1.0, 1.0, 350.0, 0.10)
        tight = static_power(1.0, 1.0, 350.0, 0.20)
        assert leaky / tight > 5.0

    def test_increases_with_temperature(self):
        assert static_power(1.0, 1.0, 380.0, 0.15) > static_power(
            1.0, 1.0, 340.0, 0.15
        )

    def test_increases_with_vdd(self):
        assert static_power(1.0, 1.2, 350.0, 0.15) > static_power(
            1.0, 1.0, 350.0, 0.15
        )


class TestDynamicPower:
    """Eq 7 as the core model evaluates it, per subsystem."""

    def test_linear_in_frequency_and_activity(self, core):
        base = core.subsystem_dynamic_power(1.0, 4e9, 0.5)
        assert np.allclose(core.subsystem_dynamic_power(1.0, 4e9, 1.0), 2 * base)
        assert np.allclose(core.subsystem_dynamic_power(1.0, 8e9, 0.5), 2 * base)

    def test_quadratic_in_vdd(self, core):
        base = core.subsystem_dynamic_power(1.0, 4e9, 0.5)
        assert np.allclose(core.subsystem_dynamic_power(2.0, 4e9, 0.5), 4 * base)


class TestThresholdVoltage:
    def test_reference_point_identity(self):
        sens = DEFAULT_VT_SENSITIVITIES
        vt = threshold_voltage(0.15, sens.t_ref, sens.vdd_ref, 0.0, sens)
        assert vt == pytest.approx(0.15)

    def test_temperature_lowers_vt(self):
        sens = DEFAULT_VT_SENSITIVITIES
        hot = threshold_voltage(0.15, sens.t_ref + 30, 1.0)
        cold = threshold_voltage(0.15, sens.t_ref - 30, 1.0)
        assert hot < cold

    def test_dibl_lowers_vt_with_vdd(self):
        sens = DEFAULT_VT_SENSITIVITIES
        assert threshold_voltage(0.15, sens.t_ref, 1.2) < threshold_voltage(
            0.15, sens.t_ref, 1.0
        )

    def test_forward_body_bias_lowers_vt(self):
        sens = DEFAULT_VT_SENSITIVITIES
        fbb = threshold_voltage(0.15, sens.t_ref, 1.0, 0.4)
        rbb = threshold_voltage(0.15, sens.t_ref, 1.0, -0.4)
        assert fbb < 0.15 < rbb


class TestKnobRanges:
    def test_frequency_grid_covers_paper_range(self):
        kr = DEFAULT_KNOB_RANGES
        assert kr.f_min == pytest.approx(2.4e9)
        assert kr.f_step == pytest.approx(1e8)  # 100 MHz steps
        assert kr.clamp_frequency(kr.f_min + 1.5e8) == pytest.approx(2.5e9)

    def test_vdd_grid_matches_figure_7a(self):
        vdd = DEFAULT_KNOB_RANGES.vdd_levels()
        assert vdd[0] == pytest.approx(0.8)
        assert vdd[-1] == pytest.approx(1.2)
        assert len(vdd) == 9  # 50 mV steps

    def test_vbb_grid_matches_figure_7a(self):
        vbb = DEFAULT_KNOB_RANGES.vbb_levels()
        assert vbb[0] == pytest.approx(-0.5)
        assert vbb[-1] == pytest.approx(0.5)
        assert len(vbb) == 21

    def test_clamp_frequency_snaps_down(self):
        kr = DEFAULT_KNOB_RANGES
        assert kr.clamp_frequency(4.06e9) == pytest.approx(4.0e9)
        assert kr.clamp_frequency(1e9) == pytest.approx(kr.f_min)
        assert kr.clamp_frequency(1e12) == pytest.approx(kr.f_max)

    def test_clamp_frequency_keeps_exact_steps(self):
        kr = DEFAULT_KNOB_RANGES
        assert kr.clamp_frequency(3.3e9) == pytest.approx(3.3e9)

    def test_operating_point_validation(self):
        with pytest.raises(ValueError):
            OperatingPoint(vdd=0.0)

    def test_custom_ranges(self):
        kr = KnobRanges(f_min=1e9, f_max=2e9, f_step=5e8)
        assert kr.clamp_frequency(1.9e9) == pytest.approx(1.5e9)
        assert kr.clamp_frequency(3e9) == pytest.approx(2e9)
