"""Fused physics kernels (DESIGN.md §15): golden parity and plumbing.

The contract under test is *bit*-identity: every hand-fused kernel
must produce results bitwise equal to its ``reference`` oracle, the
plain leaf-function composition in ``tests/kernel_reference.py``, at the
kernel level, the solver level, and the full ``run_unit`` row level.
Plus the satellite coverage: the workspace pool, the per-kernel
counters, thermal-runaway lane isolation, and the all-scalar fast paths
in the leaf functions themselves.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import kernels, obs
from repro.chip.chip import CoreLanes
from repro.circuits.knobs import DEFAULT_VT_SENSITIVITIES, threshold_voltage
from repro.circuits.leakage import IDEALITY_FACTOR, static_power
from repro.core import (
    TS_ASV,
    AdaptationMode,
    core_subsystem_arrays,
    freq_algorithm,
    power_algorithm,
)
from repro.exps.runner import ExperimentRunner, RunnerConfig
from repro.kernels import WorkspacePool, workspace_pool
from repro.obs import MetricsRegistry
from repro.thermal import solve_temperatures, solve_temperatures_lanes
from repro.thermal.solver import T_RUNAWAY
from repro.units import Q_OVER_K

from tests import kernel_reference

SENS = DEFAULT_VT_SENSITIVITIES

#: Implementations that must match ``reference`` bit for bit: the
#: hand-fused numpy kernels of :mod:`repro.kernels`.
FUSED_IMPLS = ["numpy"]


def _grid_operands(seed=0, n_lanes=6, n=15, n_vdd=9, n_vbb=5):
    """Random operands shaped like the optimiser's (V, Vb, B, n) sweep."""
    rng = np.random.default_rng(seed)
    return {
        "vt0": rng.uniform(0.10, 0.20, (n_lanes, n)),
        "ksta": rng.uniform(0.5, 2.0, (n_lanes, n)),
        "rth": rng.uniform(0.5, 2.5, (n_lanes, n)),
        "power_factor": rng.uniform(1.0, 1.4, (n_lanes, n)),
        "vdd": np.linspace(0.8, 1.2, n_vdd)[:, None, None, None],
        "vbb": np.linspace(-0.5, 0.5, n_vbb)[None, :, None, None],
        "temp": rng.uniform(330.0, 420.0, (n_vdd, n_vbb, n_lanes, n)),
        "p_dyn": rng.uniform(0.1, 3.0, (n_vdd, n_vbb, n_lanes, n)),
    }


def _run_impl(impl, name, *args, **kwargs):
    module = kernel_reference if impl == "reference" else kernels
    return getattr(module, name)(*args, **kwargs)


@contextmanager
def _pipeline_on(impl):
    """Run the solvers and the pipeline on ``impl``'s kernels."""
    if impl == "reference":
        with kernel_reference.installed():
            yield
    else:
        yield


def _assert_bitwise(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    assert (a == b).all()


# ----------------------------------------------------------------------
# Workspace pool.
# ----------------------------------------------------------------------
class TestWorkspacePool:
    def test_borrow_yields_distinct_buffers(self):
        pool = WorkspacePool()
        with pool.borrow((4, 3), 3) as buffers:
            assert len(buffers) == 3
            assert len({id(b) for b in buffers}) == 3
            for buffer in buffers:
                assert buffer.shape == (4, 3)
                assert buffer.dtype == np.float64

    def test_buffers_are_reused_across_borrows(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (first,):
            first_id = id(first)
        with pool.borrow((8,)) as (again,):
            assert id(again) == first_id

    def test_keyed_on_shape_and_dtype(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (a,):
            pass
        with pool.borrow((9,)) as (b,):
            assert id(b) != id(a)
        with pool.borrow((8,), dtype=np.float32) as (c,):
            assert id(c) != id(a)
            assert c.dtype == np.float32

    def test_free_list_is_bounded(self):
        pool = WorkspacePool(max_per_key=2)
        with pool.borrow((16,), 5):
            pass
        assert pool.cached_bytes() == 2 * 16 * 8

    def test_nested_borrows_do_not_alias(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (outer,):
            with pool.borrow((8,)) as (inner,):
                assert id(inner) != id(outer)

    def test_pool_is_thread_local(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (mine,):
            pass
        seen = {}

        def worker():
            with pool.borrow((8,)) as (theirs,):
                seen["id"] = id(theirs)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["id"] != id(mine)

    def test_clear_drops_cached_buffers(self):
        pool = WorkspacePool()
        with pool.borrow((8,)):
            pass
        assert pool.cached_bytes() > 0
        pool.clear()
        assert pool.cached_bytes() == 0

    def test_module_pool_is_shared(self):
        assert workspace_pool() is workspace_pool()


# ----------------------------------------------------------------------
# Kernel-level golden parity: fused == reference, bit for bit.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("impl", FUSED_IMPLS)
class TestKernelParity:
    def test_vt_and_static_power(self, impl):
        ops = _grid_operands()
        args = (ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS)
        ref_vt, ref_p = _run_impl("reference", "vt_and_static_power", *args)
        vt, p_sta = _run_impl(impl, "vt_and_static_power", *args)
        _assert_bitwise(ref_vt, vt)
        _assert_bitwise(ref_p, p_sta)

    def test_vt_and_static_power_with_power_factor(self, impl):
        ops = _grid_operands(seed=1)
        args = (ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS)
        kwargs = {"power_factor": ops["power_factor"]}
        ref = _run_impl("reference", "vt_and_static_power", *args, **kwargs)
        out = _run_impl(impl, "vt_and_static_power", *args, **kwargs)
        _assert_bitwise(ref[1], out[1])

    def test_vt_and_static_power_scalar_temperature(self, impl):
        # The optimiser's loop-invariant p_static(vdd, vbb, t_max) shape.
        ops = _grid_operands(seed=2)
        args = (ops["vt0"], ops["vdd"], ops["vbb"], 373.15, ops["ksta"], SENS)
        ref = _run_impl("reference", "vt_and_static_power", *args)
        out = _run_impl(impl, "vt_and_static_power", *args)
        _assert_bitwise(ref[0], out[0])
        _assert_bitwise(ref[1], out[1])

    def test_thermal_step(self, impl):
        ops = _grid_operands(seed=3)
        args = (
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS,
        )
        ref_t, ref_d = _run_impl(
            "reference", "thermal_step", *args, compute_delta=True
        )
        new_t, delta = _run_impl(impl, "thermal_step", *args, compute_delta=True)
        _assert_bitwise(ref_t, new_t)
        _assert_bitwise(ref_d, delta)

    def test_thermal_step_with_power_factor_and_out(self, impl):
        ops = _grid_operands(seed=4)
        args = (
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS,
        )
        kwargs = {"power_factor": ops["power_factor"], "t_runaway": 500.0}
        ref_t, _ = _run_impl("reference", "thermal_step", *args, **kwargs)
        out = np.empty(ops["temp"].shape)
        new_t, _ = _run_impl(impl, "thermal_step", *args, out=out, **kwargs)
        assert new_t is out  # the ping-pong contract
        _assert_bitwise(ref_t, new_t)

    def test_thermal_step_clamps_at_runaway(self, impl):
        ops = _grid_operands(seed=5)
        args = (
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"] * 1e4, 318.0, SENS,
        )
        ref_t, _ = _run_impl("reference", "thermal_step", *args)
        new_t, _ = _run_impl(impl, "thermal_step", *args)
        assert new_t.max() == T_RUNAWAY
        _assert_bitwise(ref_t, new_t)

    def test_thermal_step_rejects_misshapen_out(self, impl):
        ops = _grid_operands(seed=6)
        with pytest.raises(ValueError, match="out buffer"):
            _run_impl(
                impl, "thermal_step",
                ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
                ops["rth"], ops["p_dyn"], 318.0, SENS,
                out=np.empty((2, 2)),
            )

    def test_timing_error_cdf(self, impl):
        rng = np.random.default_rng(7)
        freq = rng.uniform(2.0e9, 5.0e9, (6, 1))
        mean = rng.uniform(1.8e-10, 2.4e-10, (6, 15))
        sigma = rng.uniform(1e-12, 8e-12, (6, 15))
        rho = rng.uniform(0.0, 1.0, (6, 15))
        ref = _run_impl("reference", "timing_error_cdf", freq, mean, sigma, rho)
        out = _run_impl(impl, "timing_error_cdf", freq, mean, sigma, rho)
        _assert_bitwise(ref, out)

        # The optimizer probes z from heavy overclocking (~ -10) to deep
        # error-free (~ +40): with f = sigma = rho = 1, mean = 1 - z puts
        # each probe at (1/f - mean) / sigma = z, up to the rounding of
        # 1 - z.
        z = np.linspace(-12.0, 40.0, 20001)
        sweep = (1.0, 1.0 - z, 1.0, 1.0)
        ref = _run_impl("reference", "timing_error_cdf", *sweep)
        out = _run_impl(impl, "timing_error_cdf", *sweep)
        _assert_bitwise(ref, out)

    def test_timing_error_cdf_deep_tail(self, impl):
        # Far below the error-free frequency Q(z) underflows to 0.0;
        # both paths must agree there too.
        freq = np.array([1.0e9])
        mean = np.full((1, 15), 2.0e-10)
        sigma = np.full((1, 15), 5.0e-12)
        rho = np.full((1, 15), 0.5)
        ref = _run_impl("reference", "timing_error_cdf", freq, mean, sigma, rho)
        out = _run_impl(impl, "timing_error_cdf", freq, mean, sigma, rho)
        assert (ref == 0.0).all()
        _assert_bitwise(ref, out)

        # z = +40 underflows Q to 0.0 and z = -40 saturates it at 1.0
        # (mean = 1 -+ 40 is exact, so z is too).
        tails = (1.0, np.array([-39.0, 41.0]), 1.0, 1.0)
        ref = _run_impl("reference", "timing_error_cdf", *tails)
        out = _run_impl(impl, "timing_error_cdf", *tails)
        _assert_bitwise(ref, [0.0, 1.0])
        _assert_bitwise(ref, out)


# ----------------------------------------------------------------------
# Per-kernel observability.
# ----------------------------------------------------------------------
class TestKernelInstrumentation:
    def test_calls_and_ns_counters(self):
        ops = _grid_operands(seed=8)
        registry = MetricsRegistry()
        with obs.scoped(registry):
            kernels.vt_and_static_power(
                ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS
            )
        counters = registry.to_dict()["counters"]
        assert counters["kernel.vt_and_static_power.calls"] == 1
        assert counters["kernel.vt_and_static_power.ns"] > 0

    def test_disabled_metrics_record_nothing(self):
        ops = _grid_operands(seed=9)
        registry = MetricsRegistry()
        with obs.scoped(registry):
            obs.disable()
            try:
                kernels.vt_and_static_power(
                    ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"],
                    ops["ksta"], SENS,
                )
            finally:
                obs.enable()
        assert registry.to_dict()["counters"] == {}

    def test_solver_records_the_fixed_point_span(self, core):
        registry = MetricsRegistry()
        n = core.n_subsystems
        with obs.scoped(registry):
            solve_temperatures(
                core, np.full(n, 1.0), np.zeros(n), 4.0e9, core.alpha_ref,
                343.15,
            )
        document = registry.to_dict()
        assert "span.kernel.thermal_fixed_point_seconds" in document["histograms"]
        assert document["counters"]["kernel.thermal_step.calls"] >= 1


# ----------------------------------------------------------------------
# Solver- and optimiser-level golden parity.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("impl", FUSED_IMPLS)
class TestSolverParity:
    def _solve(self, core, impl):
        n = core.n_subsystems
        with _pipeline_on(impl):
            return solve_temperatures(
                core, np.full(n, 1.1), np.full(n, 0.1), 4.4e9,
                core.alpha_ref, 343.15,
            )

    def test_solve_temperatures(self, core, impl):
        ref = self._solve(core, "reference")
        out = self._solve(core, impl)
        _assert_bitwise(ref.temperature, out.temperature)
        _assert_bitwise(ref.p_static, out.p_static)
        _assert_bitwise(ref.p_dynamic, out.p_dynamic)
        _assert_bitwise(ref.converged, out.converged)

    def test_solve_temperatures_lanes(self, core, other_core, impl):
        lanes = CoreLanes.stack([core, other_core])
        n = core.n_subsystems
        vdd = np.stack([np.full(n, 1.0), np.full(n, 1.2)])
        vbb = np.stack([np.zeros(n), np.full(n, -0.2)])
        activity = np.stack([core.alpha_ref, other_core.alpha_ref * 0.1])

        def solve(with_impl):
            with _pipeline_on(with_impl):
                return solve_temperatures_lanes(
                    lanes, vdd, vbb, 4.0e9, activity, 343.15
                )

        ref = solve("reference")
        out = solve(impl)
        _assert_bitwise(ref.temperature, out.temperature)
        _assert_bitwise(ref.p_static, out.p_static)
        _assert_bitwise(ref.converged, out.converged)

    def test_freq_and_power_algorithms(self, core, int_measurement, impl):
        subs = core_subsystem_arrays(
            core, int_measurement.activity, int_measurement.rho
        )
        spec = TS_ASV.optimization_spec(core.n_subsystems, core.calib)

        def run(with_impl):
            with _pipeline_on(with_impl):
                freq = freq_algorithm(subs, spec)
                power = power_algorithm(subs, freq.core_frequency(), spec)
            return freq, power

        ref_freq, ref_power = run("reference")
        freq, power = run(impl)
        _assert_bitwise(ref_freq.f_max, freq.f_max)
        _assert_bitwise(ref_freq.vdd, freq.vdd)
        _assert_bitwise(ref_freq.vbb, freq.vbb)
        _assert_bitwise(ref_power.vdd, power.vdd)
        _assert_bitwise(ref_power.vbb, power.vbb)
        _assert_bitwise(ref_power.temperature, power.temperature)
        _assert_bitwise(ref_power.p_dynamic, power.p_dynamic)
        _assert_bitwise(ref_power.p_static, power.p_static)


# ----------------------------------------------------------------------
# run_unit-level golden parity: whole pipeline rows, bit for bit.
# ----------------------------------------------------------------------
class TestRunUnitParity:
    CONFIG = RunnerConfig(
        n_chips=2,
        cores_per_chip=1,
        n_instructions=4000,
        fuzzy_examples=200,
        fuzzy_epochs=1,
    )

    @pytest.mark.parametrize("impl", FUSED_IMPLS)
    def test_rows_bit_identical_to_reference(self, suite, impl):
        def rows(with_impl):
            runner = ExperimentRunner(self.CONFIG, workloads=list(suite[:2]))
            with _pipeline_on(with_impl):
                return [
                    runner.run_unit(TS_ASV, AdaptationMode.EXH_DYN, chip, 0)
                    for chip in range(self.CONFIG.n_chips)
                ]

        assert rows(impl) == rows("reference")


# ----------------------------------------------------------------------
# Satellite: thermal runaway stays lane-local.
# ----------------------------------------------------------------------
class TestThermalRunaway:
    #: Activity large enough to push every subsystem past the cap.
    BLOWUP = 1e4

    def test_scalar_runaway_reports_not_converged(self, core):
        n = core.n_subsystems
        solution = solve_temperatures(
            core, np.full(n, 1.2), np.zeros(n), 5.0e9,
            core.alpha_ref * self.BLOWUP, 343.15,
        )
        assert not solution.converged.any()
        assert (solution.temperature == T_RUNAWAY).all()

    def test_runaway_subsystem_does_not_poison_neighbors(self, core):
        n = core.n_subsystems
        activity = core.alpha_ref.copy()
        activity[0] *= self.BLOWUP
        mixed = solve_temperatures(
            core, np.full(n, 1.0), np.zeros(n), 4.0e9, activity, 343.15
        )
        assert not mixed.converged[0]
        assert mixed.temperature[0] == T_RUNAWAY
        assert mixed.converged[1:].all()
        # The healthy subsystems' fixed points are untouched: each node
        # couples to the heat sink only (diagonal Rth), so their
        # temperatures match a solve without the runaway neighbour.
        healthy = solve_temperatures(
            core, np.full(n, 1.0), np.zeros(n), 4.0e9, core.alpha_ref, 343.15
        )
        assert (mixed.temperature[1:] == healthy.temperature[1:]).all()

    @pytest.mark.parametrize("batched_core", ["single", "lanes"])
    def test_lane_runaway_stays_lane_local(self, core, other_core, batched_core):
        n = core.n_subsystems
        if batched_core == "lanes":
            node = CoreLanes.stack([core, other_core])
            alpha = [core.alpha_ref, other_core.alpha_ref]
        else:
            node = core
            alpha = [core.alpha_ref, core.alpha_ref]
        vdd = np.stack([np.full(n, 1.0)] * 2)
        vbb = np.zeros((2, n))
        activity = np.stack([alpha[0], alpha[1] * self.BLOWUP])

        batched = solve_temperatures_lanes(
            node, vdd, vbb, 4.0e9, activity, 343.15
        )
        assert batched.converged[0].all()
        assert not batched.converged[1].any()
        assert (batched.temperature[1] == T_RUNAWAY).all()

        # Lane 0 is bit-identical to solving it alone — the runaway
        # neighbour never leaks into its iterate sequence.
        lane_core = core
        alone = solve_temperatures(
            lane_core, vdd[0], vbb[0], 4.0e9, alpha[0], 343.15
        )
        _assert_bitwise(alone.temperature, batched.temperature[0])
        _assert_bitwise(alone.p_static, batched.p_static[0])


# ----------------------------------------------------------------------
# Satellite: all-scalar fast paths in the leaf functions.
# ----------------------------------------------------------------------
class TestScalarFastPaths:
    KSTA, VDD, TEMP, VT = 1.7, 1.05, 381.5, 0.143
    VT0, VBB = 0.158, -0.25

    def test_static_power_scalar_matches_array_path(self):
        fast = static_power(self.KSTA, self.VDD, self.TEMP, self.VT)
        # 0-d ndarray operands force the asarray path (they are not
        # instances of float); numpy reduces them back to a np.float64.
        slow = static_power(
            self.KSTA, np.asarray(self.VDD)[...], np.asarray(self.TEMP)[...],
            np.full((1,), self.VT),
        )
        assert isinstance(fast, float)
        assert float(fast) == float(slow[0])

    def test_static_power_scalar_matches_manual_composition(self):
        fast = static_power(self.KSTA, self.VDD, self.TEMP, self.VT)
        exponent = -Q_OVER_K * np.asarray(self.VT) / (
            IDEALITY_FACTOR * np.asarray(self.TEMP)
        )
        expected = (
            self.KSTA * np.asarray(self.VDD) * np.asarray(self.TEMP) ** 2
            * np.exp(exponent)
        )
        assert float(fast) == float(expected)

    def test_static_power_numpy_scalars_take_the_fast_path(self):
        fast = static_power(
            np.float64(self.KSTA), np.float64(self.VDD),
            np.float64(self.TEMP), np.float64(self.VT),
        )
        assert isinstance(fast, float)
        assert float(fast) == float(
            static_power(self.KSTA, self.VDD, self.TEMP, self.VT)
        )

    def test_static_power_arrays_still_return_arrays(self):
        result = static_power(
            np.full(3, self.KSTA), np.full(3, self.VDD),
            np.full(3, self.TEMP), np.full(3, self.VT),
        )
        assert isinstance(result, np.ndarray)
        assert result.shape == (3,)
        assert (result == static_power(self.KSTA, self.VDD, self.TEMP, self.VT)).all()

    def test_threshold_voltage_scalar_matches_array_path(self):
        fast = threshold_voltage(self.VT0, self.TEMP, self.VDD, self.VBB)
        slow = threshold_voltage(
            np.full((1,), self.VT0), np.asarray(self.TEMP),
            np.asarray(self.VDD), np.asarray(self.VBB),
        )
        assert isinstance(fast, float)
        assert float(fast) == float(slow[0])

    def test_threshold_voltage_arrays_still_return_arrays(self):
        result = threshold_voltage(
            np.full(3, self.VT0), np.full(3, self.TEMP),
            np.full(3, self.VDD), np.full(3, self.VBB),
        )
        assert isinstance(result, np.ndarray)
        assert (
            result == threshold_voltage(self.VT0, self.TEMP, self.VDD, self.VBB)
        ).all()

    def test_int_arguments_use_the_array_path(self):
        # Ints are not floats: they fall through to the asarray path —
        # the fast path never changes behaviour for the seed's int calls.
        result = threshold_voltage(self.VT0, 373, 1, 0)
        expected = threshold_voltage(self.VT0, 373.0, 1.0, 0.0)
        assert float(result) == float(expected)
