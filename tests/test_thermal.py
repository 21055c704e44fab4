"""Thermal solver (Eqs 6-9)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chip.chip import CoreLanes, build_core
from repro.circuits import DEFAULT_KNOB_RANGES
from repro.core import SubsystemArrays, core_subsystem_arrays
from repro.core.optimizer import _thermal_fixed_point
from repro.obs import MetricsRegistry
from repro.thermal import T_RUNAWAY, solve_temperatures


class TestSolver:
    def solve(self, core, vdd=1.0, freq=4e9, th=343.15, activity=None):
        n = core.n_subsystems
        return solve_temperatures(
            core,
            np.full(n, vdd),
            np.zeros(n),
            freq,
            core.alpha_ref if activity is None else activity,
            th,
        )

    def test_temperatures_above_heatsink(self, core):
        sol = self.solve(core)
        assert np.all(sol.temperature > 343.15)
        assert sol.converged.all()

    def test_higher_frequency_is_hotter(self, core):
        cold = self.solve(core, freq=2.4e9)
        hot = self.solve(core, freq=4.8e9)
        assert np.all(hot.temperature >= cold.temperature)
        assert (hot.p_dynamic + hot.p_static).sum() > (
            cold.p_dynamic + cold.p_static
        ).sum()

    def test_higher_vdd_is_hotter(self, core):
        low = self.solve(core, vdd=0.9)
        high = self.solve(core, vdd=1.2)
        assert high.max_temperature() > low.max_temperature()

    def test_zero_activity_leaves_only_leakage(self, core):
        sol = self.solve(core, activity=np.zeros(core.n_subsystems))
        assert np.all(sol.p_dynamic == 0.0)
        assert np.all(sol.p_static > 0.0)

    def test_heatsink_temperature_shifts_solution(self, core):
        cool = self.solve(core, th=330.0)
        warm = self.solve(core, th=345.0)
        # Warmer sink -> hotter silicon -> strictly more leakage.
        assert warm.max_temperature() > cool.max_temperature()
        assert warm.p_static.sum() > cool.p_static.sum()

    def test_fixed_point_consistency(self, core):
        # At convergence, T == TH + Rth * P must hold.
        sol = self.solve(core)
        reconstructed = 343.15 + core.rth * (sol.p_dynamic + sol.p_static)
        assert np.allclose(sol.temperature, reconstructed, atol=0.01)

    def test_broadcast_over_knob_grid(self, core):
        n = core.n_subsystems
        vdd = np.array([0.9, 1.0, 1.1])[:, None]
        sol = solve_temperatures(
            core, vdd, np.zeros(n), 4e9, core.alpha_ref, 343.15
        )
        assert sol.temperature.shape == (3, n)
        assert np.all(np.diff(sol.temperature, axis=0) > 0)
        # Every leading axis is a lane: a 2-D grid of lanes solves each
        # point exactly as its own call does.
        grid = solve_temperatures(
            core, vdd[:, None], np.zeros(n), np.array([3e9, 4e9])[:, None],
            core.alpha_ref, 343.15,
        )
        assert grid.temperature.shape == (3, 2, n)
        assert np.array_equal(grid.temperature[:, 1], sol.temperature)


class TestLaneSolver:
    def lane_inputs(self, core):
        """Three lanes with distinct voltages, frequencies and activity."""
        n = core.n_subsystems
        vdd = np.stack([np.full(n, 0.9), np.full(n, 1.0), np.full(n, 1.15)])
        vbb = np.stack([np.zeros(n), np.full(n, 0.2), np.full(n, -0.3)])
        freq = np.array([2.4e9, 4.0e9, 4.8e9])[:, None]
        activity = np.stack(
            [core.alpha_ref * 0.05, core.alpha_ref, core.alpha_ref * 2.0]
        )
        return vdd, vbb, freq, activity

    def test_matches_serial_per_lane(self, core):
        # A batch of lanes equals one one-lane (1-D) call per lane.
        vdd, vbb, freq, activity = self.lane_inputs(core)
        batched = solve_temperatures(
            core, vdd, vbb, freq, activity, 343.15
        )
        for lane in range(3):
            serial = solve_temperatures(
                core,
                vdd[lane],
                vbb[lane],
                float(freq[lane, 0]),
                activity[lane],
                343.15,
            )
            assert np.array_equal(
                batched.temperature[lane], serial.temperature
            )
            assert np.array_equal(batched.p_dynamic[lane], serial.p_dynamic)
            assert np.array_equal(batched.p_static[lane], serial.p_static)
            assert np.array_equal(batched.converged[lane], serial.converged)

    def test_metrics_match_serial_per_lane(self, core):
        vdd, vbb, freq, activity = self.lane_inputs(core)

        def iteration_values(run):
            with obs.scoped(MetricsRegistry()) as registry:
                run()
                doc = registry.to_dict()
            return (
                doc["counters"]["thermal.solves"],
                doc["histograms"]["thermal.iterations"]["values"],
            )

        serial_values = []
        for lane in range(3):
            solves, values = iteration_values(
                lambda lane=lane: solve_temperatures(
                    core,
                    vdd[lane],
                    vbb[lane],
                    float(freq[lane, 0]),
                    activity[lane],
                    343.15,
                )
            )
            assert solves == 1
            serial_values.extend(values)
        solves, batched_values = iteration_values(
            lambda: solve_temperatures(
                core, vdd, vbb, freq, activity, 343.15
            )
        )
        assert solves == 3
        assert batched_values == serial_values


# Hypothesis strategies for the temperature-bound properties: lanes of
# cores drawn from the session population, knob grids drawn from the
# knob ranges, activity up to far past thermal runaway.
KNOBS = DEFAULT_KNOB_RANGES
lane_cores = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=1, max_size=4
)
vdd_grids = st.lists(
    st.sampled_from(list(KNOBS.vdd_levels())), min_size=1, max_size=4,
    unique=True,
)
vbb_grids = st.lists(
    st.sampled_from(list(KNOBS.vbb_levels())), min_size=1, max_size=4,
    unique=True,
)
frequencies = st.floats(min_value=KNOBS.f_min, max_value=KNOBS.f_max)
activity_scales = st.sampled_from([0.0, 0.05, 1.0, 3.0, 1e4])
heatsinks = st.floats(min_value=300.0, max_value=360.0)


def _within_bounds(temperature, t_heatsink):
    temperature = np.asarray(temperature)
    return bool(
        np.all(temperature >= t_heatsink) and np.all(temperature <= T_RUNAWAY)
    )


class TestTemperatureBounds:
    """Every solver's temperatures lie in ``[t_heatsink, T_RUNAWAY]``."""

    @settings(max_examples=25, deadline=None)
    @given(
        picks=lane_cores,
        vdd=vdd_grids,
        vbb=vbb_grids,
        freq=st.lists(frequencies, min_size=4, max_size=4),
        scale=st.lists(activity_scales, min_size=4, max_size=4),
        t_heatsink=heatsinks,
    )
    def test_solve_temperatures_lanes(
        self, population, picks, vdd, vbb, freq, scale, t_heatsink
    ):
        cores = [build_core(population[c], k) for c, k in picks]
        lanes = CoreLanes.stack(cores)
        n_lanes, n = len(cores), lanes.n_subsystems
        lane = np.arange(n_lanes)
        solution = solve_temperatures(
            lanes,
            np.repeat(np.take(vdd, lane, mode="wrap")[:, None], n, axis=1),
            np.repeat(np.take(vbb, lane, mode="wrap")[:, None], n, axis=1),
            np.asarray(freq[:n_lanes])[:, None],
            lanes.alpha_ref * np.asarray(scale[:n_lanes])[:, None],
            t_heatsink,
        )
        assert _within_bounds(solution.temperature, t_heatsink)

    @settings(max_examples=25, deadline=None)
    @given(
        picks=lane_cores,
        vdd=vdd_grids,
        vbb=vbb_grids,
        freq=frequencies,
        scale=activity_scales,
        t_heatsink=heatsinks,
    )
    def test_thermal_fixed_point(
        self, population, picks, vdd, vbb, freq, scale, t_heatsink
    ):
        cores = [build_core(population[c], k) for c, k in picks]
        stack = SubsystemArrays.stack([
            core_subsystem_arrays(core, core.alpha_ref * scale, core.rho_ref)
            for core in cores
        ])
        temp, _ = _thermal_fixed_point(
            stack,
            np.asarray(vdd)[:, None, None, None],
            np.asarray(vbb)[None, :, None, None],
            freq,
            t_heatsink,
        )
        assert temp.shape == (len(vdd), len(vbb), len(cores), stack.n_subsystems)
        assert _within_bounds(temp, t_heatsink)
