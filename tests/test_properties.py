"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.circuits import gate_delay, static_power, threshold_voltage
from repro.microarch.phases import N_BUCKETS, PhaseDetector
from repro.ml.fuzzy import FuzzyController
from repro.timing.paths import StageDelays
from repro.timing.errors import processor_error_rate, stage_error_rates
from repro.timing.speculation import PerfParams, effective_cpi
from repro.variation import correlation_matrix

voltages = st.floats(min_value=0.8, max_value=1.3)
thresholds = st.floats(min_value=0.05, max_value=0.4)
temps = st.floats(min_value=300.0, max_value=400.0)
frequencies = st.floats(min_value=1e9, max_value=6e9)


@given(vdd=voltages, vt=thresholds, temp=temps)
def test_gate_delay_always_positive(vdd, vt, temp):
    assert gate_delay(vdd, vt, 1.0, temp) > 0.0


@given(vdd=voltages, vt=thresholds, temp=temps)
def test_delay_decreases_with_overdrive(vdd, vt, temp):
    faster = gate_delay(vdd + 0.05, vt, 1.0, temp)
    slower = gate_delay(vdd, vt, 1.0, temp)
    assert faster < slower


@given(vdd=voltages, vt=thresholds, temp=temps)
def test_leakage_positive_and_monotone_in_vt(vdd, vt, temp):
    high_vt = static_power(1.0, vdd, temp, vt + 0.02)
    low_vt = static_power(1.0, vdd, temp, vt)
    assert 0.0 < high_vt < low_vt


@given(
    vt0=thresholds,
    temp=temps,
    vdd=voltages,
    vbb=st.floats(min_value=-0.5, max_value=0.5),
)
def test_vt_law_is_affine_in_vbb(vt0, temp, vdd, vbb):
    base = threshold_voltage(vt0, temp, vdd, 0.0)
    shifted = threshold_voltage(vt0, temp, vdd, vbb)
    again = threshold_voltage(vt0, temp, vdd, 2 * vbb)
    assert np.isclose(again - shifted, shifted - base, atol=1e-12)


@given(r=st.floats(min_value=0.0, max_value=5.0), phi=st.floats(min_value=0.05, max_value=2.0))
def test_spherical_correlation_in_unit_interval(r, phi):
    rho = float(correlation_matrix(np.array([[0.0, 0.0], [r, 0.0]]), phi)[0, 1])
    assert 0.0 <= rho <= 1.0


@given(
    mean=st.floats(min_value=1e-10, max_value=5e-10),
    sigma=st.floats(min_value=1e-12, max_value=5e-11),
    rho=st.floats(min_value=0.01, max_value=2.0),
    f1=frequencies,
    f2=frequencies,
)
def test_error_rate_monotone_in_frequency(mean, sigma, rho, f1, f2):
    delays = StageDelays(
        mean=np.array([mean]), sigma=np.array([sigma]), z_free=6.5
    )
    lo, hi = min(f1, f2), max(f1, f2)
    pe_lo = processor_error_rate(lo, delays, np.array([rho]))
    pe_hi = processor_error_rate(hi, delays, np.array([rho]))
    assert pe_lo <= pe_hi + 1e-30


@given(
    mean=st.floats(min_value=1e-10, max_value=5e-10),
    sigma=st.floats(min_value=1e-12, max_value=5e-11),
    freq=frequencies,
)
def test_stage_error_rate_bounded_by_rho(mean, sigma, freq):
    delays = StageDelays(
        mean=np.array([mean]), sigma=np.array([sigma]), z_free=6.5
    )
    rho = np.array([0.7])
    pe = stage_error_rates(freq, delays, rho)
    assert 0.0 <= pe[0] <= rho[0]


@given(
    cpi=st.floats(min_value=0.3, max_value=8.0),
    mr=st.floats(min_value=0.0, max_value=0.05),
    pe=st.floats(min_value=0.0, max_value=0.1),
    freq=frequencies,
)
def test_effective_cpi_at_least_compute_cpi(cpi, mr, pe, freq):
    params = PerfParams.from_calibration(cpi, mr)
    assert effective_cpi(freq, pe, params) >= cpi


@settings(max_examples=25)
@given(
    data=arrays(
        np.float64,
        (8, 3),
        elements=st.floats(min_value=-2.0, max_value=2.0),
    ),
    x=arrays(
        np.float64, (3,), elements=st.floats(min_value=-3.0, max_value=3.0)
    ),
)
def test_fuzzy_output_within_rule_output_range(data, x):
    fc = FuzzyController(
        mu=data,
        sigma=np.full((8, 3), 0.5),
        y=np.linspace(-1.0, 1.0, 8),
        input_mean=np.zeros(3),
        input_std=np.ones(3),
    )
    out = fc.predict_rows(x[None])[0]
    assert -1.0 - 1e-9 <= out <= 1.0 + 1e-9


@settings(max_examples=25)
@given(
    bbv=arrays(
        np.int64,
        (N_BUCKETS,),
        elements=st.integers(min_value=0, max_value=63),
    )
)
def test_phase_detector_distance_is_symmetric(bbv):
    other = np.roll(bbv, 3)
    assert PhaseDetector.distance(bbv, other) == PhaseDetector.distance(
        other, bbv
    )


@settings(max_examples=25)
@given(
    bbv=arrays(
        np.int64,
        (N_BUCKETS,),
        elements=st.integers(min_value=0, max_value=63),
    )
)
def test_phase_detector_self_distance_zero(bbv):
    assert PhaseDetector.distance(bbv, bbv) == 0.0
