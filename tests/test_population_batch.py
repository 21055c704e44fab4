"""Lane independence of the population-tier programs.

Every program that stacks many lanes must give each lane exactly what a
one-lane call gives it:

* ``measure_suite_batched`` over many requests vs one request at a time,
* ``retune_batched`` over many cores vs ``retune`` per core,
* ``run_timelines_batched`` over many cores vs ``run_timeline`` per core
  (RNG streams included),
* ``optimize_units_batched`` over a population vs one call per unit,
  including a population whose cores cannot share lanes,
* ``ExperimentRunner.run_units_batched`` over a block vs ``run_unit``
  per unit, across (environment x mode x workload) combinations,

plus the measurement LRU and the content-hash cache key.  The cross-version oracle is ``tests/test_adaptation_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.chip.chip import CoreLanes, build_core, build_novar_core
from repro.core import TS, TS_ASV, TS_ASV_Q_FU, AdaptationMode
from repro.core.adaptation import optimize_units_batched
from repro.core.optimizer import core_subsystem_arrays
from repro.core.retuning import retune, retune_batched
from repro.core.state import Configuration
from repro.core.timeline import run_timeline, run_timelines_batched
from repro.exps.runner import ExperimentRunner, RunnerConfig
from repro.microarch.phases import PhaseDetector, generate_phase_stream
from repro.microarch.pipeline import DEFAULT_CORE_CONFIG
from repro.microarch.simulator import (
    clear_measurement_cache,
    measure_suite_batched,
    measure_workload,
    measurement_cache_len,
    set_measurement_cache_capacity,
)
from repro.microarch.workloads import WorkloadProfile
from repro.mitigation.base import TechniqueState

UNIT_CONFIG = RunnerConfig(
    n_chips=3,
    cores_per_chip=1,
    n_instructions=5000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


def _runner(workloads):
    return ExperimentRunner(UNIT_CONFIG, workloads=list(workloads))


# ----------------------------------------------------------------------
# A block of units == one run_unit call per unit, bit for bit.
# ----------------------------------------------------------------------
class TestRunUnitsBatchedParity:
    @pytest.mark.parametrize(
        "env, mode, first, last",
        [
            (TS, AdaptationMode.EXH_DYN, 0, 2),
            (TS_ASV_Q_FU, AdaptationMode.EXH_DYN, 2, 4),
            (TS_ASV, AdaptationMode.FUZZY_DYN, 4, 6),
            (TS, AdaptationMode.STATIC, 0, 2),
            (TS_ASV, AdaptationMode.EXH_DYN, 0, 1),
        ],
        ids=[
            "TS-exh", "TS+ASV+Q+FU-exh", "TS+ASV-fuzzy", "TS-static",
            "TS+ASV-exh",
        ],
    )
    def test_rows_bit_identical(self, suite, env, mode, first, last):
        """Block rows == per-unit rows across env x mode x workloads."""
        workloads = suite[first:last]
        units = [(chip, 0) for chip in range(UNIT_CONFIG.n_chips)]
        batched = _runner(workloads).run_units_batched(env, mode, units)
        serial_runner = _runner(workloads)
        serial = [
            serial_runner.run_unit(env, mode, chip, core)
            for chip, core in units
        ]
        assert batched == serial


# ----------------------------------------------------------------------
# Lane-masked adaptation tiers.
# ----------------------------------------------------------------------
class TestRetuneBatchedParity:
    @staticmethod
    def _assert_same(one, many):
        """RetuningResults hold arrays, so compare field by field."""
        assert one.outcome == many.outcome
        assert one.initial_violation == many.initial_violation
        assert one.f_initial == many.f_initial
        assert one.steps == many.steps
        assert one.config.f_core == many.config.f_core
        assert np.array_equal(one.config.vdd, many.config.vdd)
        assert np.array_equal(one.config.vbb, many.config.vbb)
        assert one.state.total_power == many.state.total_power
        assert np.array_equal(
            one.state.pe_per_subsystem, many.state.pe_per_subsystem
        )
        assert np.array_equal(one.state.temperature, many.state.temperature)

    def _entry(self, core, meas):
        spec = TS.optimization_spec(core.n_subsystems, core.calib)
        n = core.n_subsystems
        technique = TechniqueState(domain=meas.domain)
        return Configuration(
            f_core=core.calib.f_nominal * 0.9,
            vdd=np.full(n, core.calib.vdd_nominal),
            vbb=np.zeros(n),
            technique=technique,
        ), spec

    def test_many_cores_one_call(self, population, int_measurement,
                                 fp_measurement):
        cores = [build_core(chip, 0) for chip in population[:4]]
        measurements = [int_measurement, fp_measurement] * 2
        configs, specs = [], []
        for core, meas in zip(cores, measurements):
            config, spec = self._entry(core, meas)
            configs.append(config)
            specs.append(spec)
        pe_max = cores[0].calib.pe_max
        serial = [
            retune(
                core, config, meas.activity, meas.rho,
                pe_max=pe_max, checker=True,
            )
            for core, config, meas in zip(cores, configs, measurements)
        ]
        batched = retune_batched(
            cores, configs,
            [m.activity for m in measurements],
            [m.rho for m in measurements],
            pe_max=pe_max, checker=True,
        )
        for one, many in zip(serial, batched):
            self._assert_same(one, many)

    def test_shared_core_fast_path(self, core, int_measurement):
        config, spec = self._entry(core, int_measurement)
        pe_max = core.calib.pe_max
        serial = retune(
            core, config, int_measurement.activity, int_measurement.rho,
            pe_max=pe_max, checker=True,
        )
        batched = retune_batched(
            [core] * 3, [config] * 3,
            [int_measurement.activity] * 3, [int_measurement.rho] * 3,
            pe_max=pe_max, checker=True,
        )
        for many in batched:
            self._assert_same(serial, many)


class TestTimelineBatchedParity:
    def test_detectors_must_match_lanes(self, population, suite):
        cores = [build_core(chip, 0) for chip in population[:2]]
        stream = generate_phase_stream(suite[0], total_ms=300.0, seed=3)
        for detectors in ([PhaseDetector()], [None, None, None]):
            with pytest.raises(ValueError, match="one detector per core"):
                run_timelines_batched(cores, TS, stream, detectors=detectors)

    def test_lockstep_rng_streams(self, population, suite):
        cores = [build_core(chip, 0) for chip in population[:3]]
        stream = generate_phase_stream(suite[0], total_ms=700.0, seed=11)
        serial = [
            run_timeline(core, TS_ASV_Q_FU, stream,
                         mode=AdaptationMode.EXH_DYN, seed=5)
            for core in cores
        ]
        batched = run_timelines_batched(
            cores, TS_ASV_Q_FU, stream,
            mode=AdaptationMode.EXH_DYN, seed=5,
        )
        for one, many in zip(serial, batched):
            assert one.events == many.events

    def test_per_lane_seeds(self, population, suite):
        cores = [build_core(chip, 0) for chip in population[:2]]
        stream = generate_phase_stream(suite[1], total_ms=500.0, seed=3)
        serial = [
            run_timeline(core, TS, stream, mode=AdaptationMode.EXH_DYN,
                         seed=seed)
            for core, seed in zip(cores, (5, 9))
        ]
        batched = run_timelines_batched(
            cores, TS, stream, mode=AdaptationMode.EXH_DYN, seed=[5, 9],
        )
        for one, many in zip(serial, batched):
            assert one.events == many.events


class TestOptimizeUnitsBatched:
    def test_non_stackable_population_runs_per_unit(
        self, population, novar_core, int_measurement, fp_measurement
    ):
        """A NoVar core next to varied cores cannot share lanes; the
        call must still equal one call per unit."""
        cores = [build_core(population[0], 0), novar_core,
                 build_core(population[1], 0)]
        phases = [(int_measurement, None), (fp_measurement, None)]
        units = [(core, phases) for core in cores]
        together = optimize_units_batched(units, TS_ASV)
        alone = [optimize_units_batched([unit], TS_ASV)[0] for unit in units]
        assert len(together) == len(alone) == len(units)
        for got_unit, want_unit in zip(together, alone):
            for got, want in zip(got_unit, want_unit):
                assert got.config.f_core == want.config.f_core
                assert got.f_controller == want.f_controller
                assert got.outcome == want.outcome
                assert got.performance_ips == want.performance_ips
                assert np.array_equal(got.config.vdd, want.config.vdd)
                assert np.array_equal(got.config.vbb, want.config.vbb)
                assert got.state.total_power == want.state.total_power

    def test_empty_units_and_phases(self, core):
        assert optimize_units_batched([], TS) == []
        assert optimize_units_batched([(core, [])], TS) == [[]]


# ----------------------------------------------------------------------
# Microarch tier: batched trace walks.
# ----------------------------------------------------------------------
class TestSimulateBatchParity:
    # The walk itself is pinned by tests/test_pipeline_golden.py; this
    # checks that grouping many requests per trace changes nothing.
    def test_measure_suite_batched_matches_serial(self, suite):
        clear_measurement_cache()
        resized = DEFAULT_CORE_CONFIG.with_resized_queue("fp")
        requests = [
            (suite[0], DEFAULT_CORE_CONFIG),
            (suite[0], resized),
            (suite[3], DEFAULT_CORE_CONFIG),
        ]
        batched = measure_suite_batched(requests, 4000, seed=2)
        clear_measurement_cache()
        serial = [
            measure_workload(profile, config, 4000, seed=2)
            for profile, config in requests
        ]
        clear_measurement_cache()
        for one, many in zip(serial, batched):
            assert one.cpi_comp == many.cpi_comp
            assert one.cpi_total == many.cpi_total
            assert one.overlap_factor == many.overlap_factor
            assert np.array_equal(one.activity, many.activity)
            assert np.array_equal(one.rho, many.rho)


# ----------------------------------------------------------------------
# Satellite: bounded LRU + content-hash keys.
# ----------------------------------------------------------------------
class TestMeasurementCacheLRU:
    def test_eviction_keeps_capacity_and_counts(self, suite):
        clear_measurement_cache()
        previous = set_measurement_cache_capacity(2)
        try:
            with obs.scoped(MetricsRegistry()) as registry:
                for profile in suite[:3]:
                    measure_workload(
                        profile, DEFAULT_CORE_CONFIG, 3000, seed=4
                    )
                assert measurement_cache_len() == 2
                counters = registry.to_dict()["counters"]
                assert counters["microarch.cache.misses"] == 3.0
                assert counters["microarch.cache.evictions"] == 1.0
                # The most recent entry still hits.
                measure_workload(suite[2], DEFAULT_CORE_CONFIG, 3000, seed=4)
                counters = registry.to_dict()["counters"]
                assert counters["microarch.cache.hits"] == 1.0
        finally:
            set_measurement_cache_capacity(previous)
            clear_measurement_cache()

    def test_content_hash_aliases_equal_profiles(self, suite):
        """A structurally identical rebuild shares the cache entry."""
        clear_measurement_cache()
        original = suite[0]
        rebuilt = WorkloadProfile(**{
            name: getattr(original, name)
            for name in original.__dataclass_fields__
        })
        assert rebuilt is not original
        assert rebuilt.content_hash() == original.content_hash()
        first = measure_workload(original, DEFAULT_CORE_CONFIG, 3000, seed=6)
        before = measurement_cache_len()
        second = measure_workload(rebuilt, DEFAULT_CORE_CONFIG, 3000, seed=6)
        assert measurement_cache_len() == before
        assert second is first
        clear_measurement_cache()


# ----------------------------------------------------------------------
# Vectorised lane assembly == per-lane assembly, bit for bit.
# ----------------------------------------------------------------------
class TestStackedPhaseArrays:
    def test_matches_per_lane_stack(self, population, int_measurement,
                                    fp_measurement):
        from repro.core.adaptation import _stacked_phase_arrays
        from repro.core.optimizer import _ARRAY_FIELDS, SubsystemArrays

        cores = [build_core(chip, 0) for chip in population[:3]]
        lane_cores = [core for core in cores for _ in range(2)]
        measurements = [int_measurement, fp_measurement] * 3
        techniques = [
            TechniqueState(queue_full=bool(lane % 2), lowslope=lane % 3 == 0,
                           domain=meas.domain)
            for lane, meas in enumerate(measurements)
        ]
        reference = SubsystemArrays.stack([
            core_subsystem_arrays(
                core, meas.activity, meas.rho,
                technique.stage_modifiers(core),
                technique.power_factors(core),
            )
            for core, technique, meas in zip(
                lane_cores, techniques, measurements
            )
        ])
        fast = _stacked_phase_arrays(lane_cores, techniques, measurements)
        for name in _ARRAY_FIELDS:
            assert np.array_equal(
                getattr(fast, name), getattr(reference, name)
            ), name

    def test_refuses_mixed_calibrations(self, core, novar_core,
                                        int_measurement):
        from repro.core.adaptation import _stacked_phase_arrays

        technique = TechniqueState(domain=int_measurement.domain)
        with pytest.raises(ValueError):
            _stacked_phase_arrays(
                [core, novar_core],
                [technique, technique],
                [int_measurement, int_measurement],
            )


# ----------------------------------------------------------------------
# CoreLanes: the stacked population view itself.
# ----------------------------------------------------------------------
class TestCoreLanes:
    def test_stack_matches_per_core_physics(self, population):
        cores = [build_core(chip, 0) for chip in population[:3]]
        lanes = CoreLanes.stack(cores)
        assert lanes.batch_size == 3
        vdd = np.full((3, lanes.n_subsystems), 1.0)
        temp = np.full((3, lanes.n_subsystems), 345.0)
        vbb = np.zeros((3, lanes.n_subsystems))
        stacked_vt = lanes.effective_vt(vdd, vbb, temp)
        stacked_sta = lanes.subsystem_static_power(vdd, vbb, temp)
        for lane, core in enumerate(cores):
            assert np.array_equal(
                stacked_vt[lane],
                core.effective_vt(vdd[lane], vbb[lane], temp[lane]),
            )
            assert np.array_equal(
                stacked_sta[lane],
                core.subsystem_static_power(vdd[lane], vbb[lane], temp[lane]),
            )
            assert lanes.l2_power(3.2e9)[lane] == core.l2_power(3.2e9)

    def test_lane_subset_preserves_lanes(self, population):
        cores = [build_core(chip, 0) for chip in population[:4]]
        lanes = CoreLanes.stack(cores)
        subset = lanes.lane_subset(np.array([2, 0]))
        assert subset.batch_size == 2
        assert np.array_equal(subset.vt0_timing[0], lanes.vt0_timing[2])
        assert np.array_equal(subset.vt0_timing[1], lanes.vt0_timing[0])

    def test_novar_core_refuses_to_stack_with_variation(self, population):
        cores = [build_core(population[0], 0), build_novar_core()]
        with pytest.raises(ValueError):
            CoreLanes.stack(cores)
