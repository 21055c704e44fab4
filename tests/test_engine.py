"""The parallel experiment engine, its cache, and the run() API redesign."""

import numpy as np
import pytest

from repro.calibration import DEFAULT_CALIBRATION, Calibration
from repro.core import NOVAR, TS, TS_ASV, AdaptationMode
from repro.exps import ExperimentRunner, RunnerConfig, RunSpec
from repro.exps.cache import (
    ExperimentCache,
    bank_key,
    measurement_key,
    stable_hash,
    summary_key,
)
from repro.microarch import DEFAULT_CORE_CONFIG, spec2000_like_suite

#: Small but multi-chip scale: enough to exercise sharding boundaries.
ENGINE_CONFIG = RunnerConfig(
    n_chips=2,
    cores_per_chip=1,
    n_instructions=3000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


@pytest.fixture(scope="module")
def two_workloads():
    return tuple(spec2000_like_suite()[:2])


class TestRunAPI:
    def test_shims_removed(self):
        """The pre-engine per-cell entry points are gone in 1.6."""
        runner = ExperimentRunner(ENGINE_CONFIG)
        for name in ("run_environment", "baseline_summary", "_run_novar"):
            assert not hasattr(runner, name)

    def test_novar_under_any_mode(self):
        runner = ExperimentRunner(ENGINE_CONFIG)
        result = runner.run(RunSpec(
            environments=(NOVAR,),
            modes=(AdaptationMode.STATIC, AdaptationMode.EXH_DYN),
        ))
        static = result.summary(NOVAR, AdaptationMode.STATIC)
        dyn = result.summary(NOVAR, AdaptationMode.EXH_DYN)
        assert static.f_rel == pytest.approx(1.0)
        assert static.results == dyn.results

    def test_single_mode_lookup_needs_no_mode(self, two_workloads):
        runner = ExperimentRunner(ENGINE_CONFIG)
        result = runner.run(RunSpec(environments=(TS,), workloads=two_workloads))
        assert result.summary(TS) is result.summary("TS", "Exh-Dyn")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RunSpec(environments=())
        with pytest.raises(ValueError):
            RunSpec(environments=(TS,), parallelism=0)

    def test_novar_still_reachable_through_run(self):
        runner = ExperimentRunner(ENGINE_CONFIG)
        summary = runner.run(RunSpec(environments=(NOVAR,))).summary(NOVAR)
        assert summary.f_rel == pytest.approx(1.0)


class TestFromSettings:
    """The sanctioned Settings -> spec/config/runner mappings (1.6)."""

    def test_runspec_from_settings(self):
        from repro.config import Settings

        settings = Settings(jobs=3, cache_dir="/tmp/x", shared_mem=False)
        spec = RunSpec.from_settings(settings, environments=(TS,))
        assert spec.parallelism == 3
        assert spec.cache_dir == "/tmp/x"
        assert spec.use_cache
        assert not spec.shared_mem
        # cache_enabled=False zeroes the effective cache directory.
        spec = RunSpec.from_settings(
            settings.replace(cache_enabled=False), environments=(TS,)
        )
        assert spec.cache_dir is None
        assert not spec.use_cache

    def test_runspec_from_settings_overrides_win(self):
        from repro.config import Settings

        spec = RunSpec.from_settings(
            Settings(jobs=3), environments=(TS,), parallelism=7
        )
        assert spec.parallelism == 7

    def test_runner_config_from_settings(self):
        from repro.config import Settings

        settings = Settings(chips=5, cores=2, fc_examples=123, seed=99)
        config = RunnerConfig.from_settings(settings, n_instructions=4000)
        assert config.n_chips == 5
        assert config.cores_per_chip == 2
        assert config.fuzzy_examples == 123
        assert config.seed == 99
        assert config.n_instructions == 4000

    def test_runner_from_settings(self, tmp_path):
        from repro.config import Settings

        settings = Settings(chips=2, cache_dir=str(tmp_path))
        runner = ExperimentRunner.from_settings(settings)
        assert runner.config.n_chips == 2
        assert runner.cache is not None
        override = RunnerConfig(n_chips=1)
        runner = ExperimentRunner.from_settings(settings, config=override)
        assert runner.config is override

    def test_phi_changes_population_and_cache_key(self):
        base = RunnerConfig(n_chips=1)
        swept = RunnerConfig(n_chips=1, phi=0.25)
        assert summary_key(
            DEFAULT_CALIBRATION, base, DEFAULT_CORE_CONFIG, TS,
            AdaptationMode.EXH_DYN, [],
        ) != summary_key(
            DEFAULT_CALIBRATION, swept, DEFAULT_CORE_CONFIG, TS,
            AdaptationMode.EXH_DYN, [],
        )
        chips_base = ExperimentRunner(base).population
        chips_swept = ExperimentRunner(swept).population
        assert chips_swept[0].params.phi == 0.25
        assert not np.array_equal(chips_base[0].vt_sys, chips_swept[0].vt_sys)
        with pytest.raises(ValueError):
            RunnerConfig(phi=-1.0)


class TestParallelDeterminism:
    def test_parallel_matches_serial_exactly(self, two_workloads):
        """RunSpec(parallelism=N) is bit-identical to the serial run."""
        spec = RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        serial = ExperimentRunner(ENGINE_CONFIG).run(spec).summary(TS)
        parallel = (
            ExperimentRunner(ENGINE_CONFIG)
            .run(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
                parallelism=2,
            ))
            .summary(TS)
        )
        assert serial.results == parallel.results  # frozen-dataclass equality
        assert serial.f_rel == parallel.f_rel
        assert serial.perf_rel == parallel.perf_rel
        assert serial.power == parallel.power

    def test_parallel_fuzzy_matches_serial(self, two_workloads):
        """Banks shipped to workers via the npz cache change nothing."""
        spec_args = dict(
            environments=(TS_ASV,),
            modes=(AdaptationMode.FUZZY_DYN,),
            workloads=two_workloads,
        )
        serial = ExperimentRunner(ENGINE_CONFIG).run(
            RunSpec(**spec_args)
        ).summary(TS_ASV)
        parallel = ExperimentRunner(ENGINE_CONFIG).run(
            RunSpec(parallelism=2, **spec_args)
        ).summary(TS_ASV)
        assert serial.results == parallel.results


class TestSharedMemoryTransport:
    def test_shm_rows_byte_identical_to_rebuild(self, two_workloads):
        """--shared-mem changes transport, never physics: identical rows."""
        from repro import obs

        spec_args = dict(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
            parallelism=2,
        )
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            shm = ExperimentRunner(ENGINE_CONFIG).run(
                RunSpec(shared_mem=True, **spec_args)
            ).summary(TS)
        rebuild = ExperimentRunner(ENGINE_CONFIG).run(
            RunSpec(shared_mem=False, **spec_args)
        ).summary(TS)
        assert shm.results == rebuild.results  # frozen-dataclass equality
        assert shm.f_rel == rebuild.f_rel
        assert shm.perf_rel == rebuild.perf_rel
        assert shm.power == rebuild.power
        assert scope.to_dict()["gauges"]["engine.shm_bytes"] > 0.0

    def test_shm_off_publishes_nothing(self, two_workloads):
        from repro import obs

        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            ExperimentRunner(ENGINE_CONFIG).run(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
                parallelism=2,
                shared_mem=False,
            ))
        assert scope.to_dict()["gauges"]["engine.shm_bytes"] == 0.0

    def test_publish_attach_roundtrip(self):
        from repro.exps.shm import SharedPopulation, attach
        from repro.variation import DieGrid, VariationModel, get_factor

        model = VariationModel(grid=DieGrid(nx=8, ny=8))
        population = model.population(3, seed=5)
        factor = get_factor(model.grid, model.params.phi)
        shared = SharedPopulation.publish(population, factor)
        try:
            chips, shared_factor, segment = attach(shared.handle)
            assert len(chips) == len(population)
            for ours, theirs in zip(population, chips):
                assert np.array_equal(ours.vt_sys, theirs.vt_sys)
                assert np.array_equal(ours.leff_sys, theirs.leff_sys)
                assert ours.chip_id == theirs.chip_id
                assert not theirs.vt_sys.flags.writeable
            assert np.array_equal(shared_factor, factor)
            del chips, shared_factor
            segment.close()
        finally:
            shared.close()
            shared.unlink()

    def test_publish_without_factor(self):
        from repro.exps.shm import SharedPopulation, attach
        from repro.variation import DieGrid, VariationModel

        model = VariationModel(grid=DieGrid(nx=6, ny=6))
        population = model.population(2, seed=0)
        shared = SharedPopulation.publish(population)
        try:
            chips, factor, segment = attach(shared.handle)
            assert factor is None
            assert np.array_equal(chips[1].vt_sys, population[1].vt_sys)
            del chips
            segment.close()
        finally:
            shared.close()
            shared.unlink()

    def test_publish_rejects_empty_population(self):
        from repro.exps.shm import SharedPopulation

        with pytest.raises(ValueError):
            SharedPopulation.publish([])

    def test_runner_accepts_injected_population(self):
        from repro.variation import VariationModel

        population = VariationModel().population(
            ENGINE_CONFIG.n_chips, seed=ENGINE_CONFIG.seed
        )
        runner = ExperimentRunner(ENGINE_CONFIG, population=population)
        # The chips themselves are shared, not re-sampled.
        assert all(a is b for a, b in zip(runner.population, population))

    def test_runner_rejects_population_of_wrong_size(self):
        from repro.variation import VariationModel

        wrong = VariationModel().population(
            ENGINE_CONFIG.n_chips + 1, seed=ENGINE_CONFIG.seed
        )
        with pytest.raises(ValueError):
            ExperimentRunner(ENGINE_CONFIG, population=wrong)


class TestCache:
    def test_summary_cache_hit_and_miss(self, tmp_path, two_workloads):
        spec = RunSpec(
            environments=(TS,),
            workloads=two_workloads,
            cache_dir=str(tmp_path),
        )
        cold_runner = ExperimentRunner(ENGINE_CONFIG)
        cold = cold_runner.run(spec).summary(TS)
        warm_runner = ExperimentRunner(ENGINE_CONFIG, cache=ExperimentCache(tmp_path))
        warm = warm_runner.run(RunSpec(environments=(TS,), workloads=two_workloads))
        assert warm_runner.cache.stats.hits["summary"] == 1
        assert warm_runner.cache.stats.misses["summary"] == 0
        assert warm.summary(TS).results == cold.results

    def test_no_cache_flag_bypasses_disk(self, tmp_path, two_workloads):
        cache = ExperimentCache(tmp_path)
        runner = ExperimentRunner(ENGINE_CONFIG, cache=cache)
        runner.run(RunSpec(environments=(TS,), workloads=two_workloads,
                           use_cache=False))
        assert not list((tmp_path / "summaries").iterdir())

    def test_calibration_change_invalidates(self, tmp_path, two_workloads):
        """A recalibrated constant must miss every cache key."""
        recalibrated = Calibration(systematic_delay_gain=3.1)
        spec = RunSpec(environments=(TS,), workloads=two_workloads,
                       cache_dir=str(tmp_path))
        ExperimentRunner(ENGINE_CONFIG).run(spec)
        runner = ExperimentRunner(ENGINE_CONFIG, calib=recalibrated,
                                  cache=ExperimentCache(tmp_path))
        runner.run(RunSpec(environments=(TS,), workloads=two_workloads))
        assert runner.cache.stats.hits["summary"] == 0
        assert runner.cache.stats.misses["summary"] == 1

    def test_key_functions_are_sensitive(self, two_workloads):
        profile = two_workloads[0]
        base = measurement_key(DEFAULT_CALIBRATION, profile,
                               DEFAULT_CORE_CONFIG, 3000, 7)
        assert base == measurement_key(DEFAULT_CALIBRATION, profile,
                                       DEFAULT_CORE_CONFIG, 3000, 7)
        assert base != measurement_key(DEFAULT_CALIBRATION, profile,
                                       DEFAULT_CORE_CONFIG, 3000, 8)
        assert base != measurement_key(Calibration(z_free=6.0), profile,
                                       DEFAULT_CORE_CONFIG, 3000, 7)
        env_a = summary_key(DEFAULT_CALIBRATION, ENGINE_CONFIG,
                            DEFAULT_CORE_CONFIG, TS,
                            AdaptationMode.EXH_DYN, two_workloads)
        env_b = summary_key(DEFAULT_CALIBRATION, ENGINE_CONFIG,
                            DEFAULT_CORE_CONFIG, TS_ASV,
                            AdaptationMode.EXH_DYN, two_workloads)
        assert env_a != env_b

    def test_stable_hash_ignores_container_type(self):
        assert stable_hash([1, 2]) == stable_hash((1, 2))
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_measurement_roundtrip(self, tmp_path, int_measurement):
        cache = ExperimentCache(tmp_path)
        cache.save_measurement("k", int_measurement)
        loaded = cache.load_measurement("k")
        assert loaded.cpi_comp == int_measurement.cpi_comp
        assert loaded.overlap_factor == int_measurement.overlap_factor
        assert np.array_equal(loaded.activity, int_measurement.activity)
        assert np.array_equal(loaded.rho, int_measurement.rho)
        assert cache.load_measurement("absent") is None

    def test_bank_roundtrip_through_cache(self, tmp_path, tiny_bank):
        """ControllerBank persistence through the engine's cache path."""
        cache = ExperimentCache(tmp_path)
        cache.save_bank("k", tiny_bank)
        loaded = cache.load_bank("k")
        assert set(loaded.freq_fcs) == set(tiny_bank.freq_fcs)
        for key, fc in tiny_bank.freq_fcs.items():
            assert np.array_equal(loaded.freq_fcs[key].mu, fc.mu)
            assert np.array_equal(loaded.freq_fcs[key].y, fc.y)
        assert loaded.freq_rmse == tiny_bank.freq_rmse
        assert loaded.optimism == tiny_bank.optimism
        assert np.array_equal(loaded.spec.vdd_levels, tiny_bank.spec.vdd_levels)
        assert cache.load_bank("absent") is None

    def test_bank_key_tracks_training_knobs(self, asv_spec):
        base = bank_key(DEFAULT_CALIBRATION, asv_spec, 300, 1, 7)
        assert base == bank_key(DEFAULT_CALIBRATION, asv_spec, 300, 1, 7)
        assert base != bank_key(DEFAULT_CALIBRATION, asv_spec, 600, 1, 7)
        assert base != bank_key(Calibration(z_free=6.0), asv_spec, 300, 1, 7)


class TestWireFormat:
    def test_suite_summary_json_roundtrip(self, two_workloads):
        runner = ExperimentRunner(ENGINE_CONFIG)
        summary = runner.run(
            RunSpec(environments=(TS,), workloads=two_workloads)
        ).summary(TS)
        restored = type(summary).from_json(summary.to_json())
        assert restored.f_rel == summary.f_rel
        assert restored.perf_rel == summary.perf_rel
        assert restored.power == summary.power
        assert restored.results == summary.results  # floats bit-identical

    def test_phase_result_record_roundtrip(self, two_workloads):
        runner = ExperimentRunner(ENGINE_CONFIG)
        row = runner.run(
            RunSpec(environments=(TS,), workloads=two_workloads)
        ).summary(TS).results[0]
        assert type(row).from_dict(row.to_dict()) == row

    def test_results_table_renders_records(self, two_workloads):
        from repro.exps import results_table

        runner = ExperimentRunner(ENGINE_CONFIG)
        summary = runner.run(
            RunSpec(environments=(TS,), workloads=two_workloads)
        ).summary(TS)
        text = results_table(summary, max_rows=2)
        assert "workload" in text and "f_rel" in text
        assert "..." in text  # truncated


class TestStaticMemoisation:
    def test_measurements_memoised_per_env_knobs(self, two_workloads):
        """Static mode must not re-enter the simulator path (satellite fix)."""
        import repro.exps.runner as runner_mod

        runner = ExperimentRunner(ENGINE_CONFIG, workloads=two_workloads)
        calls = []
        original = runner_mod.measure_suite_batched

        def counting(requests, *args, **kwargs):
            calls.extend(profile.name for profile, _ in requests)
            return original(requests, *args, **kwargs)

        runner_mod.measure_suite_batched = counting
        try:
            runner.run(RunSpec(environments=(TS,),
                               modes=(AdaptationMode.STATIC,),
                               workloads=two_workloads, use_cache=False))
            n_phase_profiles = sum(len(w.phases) for w in two_workloads)
            # One simulator entry per phase profile, despite the Static
            # aggregation pass also needing every measurement per core.
            assert len(calls) == n_phase_profiles
        finally:
            runner_mod.measure_suite_batched = original

    def test_memo_key_includes_seed(self, two_workloads):
        """Two seeds must never share a memo entry (regression).

        The memo key once omitted the seed, so a runner whose config was
        swapped out — the supported reuse pattern across sweeps — served
        seed A's measurements to seed B.
        """
        import dataclasses

        import repro.exps.runner as runner_mod

        runner = ExperimentRunner(ENGINE_CONFIG, workloads=two_workloads)
        profile = next(runner.phase_profiles(two_workloads[0]))[0]
        calls = []
        original = runner_mod.measure_suite_batched

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed", args[2] if len(args) > 2 else None))
            return original(*args, **kwargs)

        runner_mod.measure_suite_batched = counting
        try:
            runner.measurements(profile, TS)
            runner.measurements(profile, TS)  # memoised: no new call
            assert len(calls) == 1
            runner.config = dataclasses.replace(
                runner.config, seed=ENGINE_CONFIG.seed + 1
            )
            runner.measurements(profile, TS)  # new seed: must re-measure
            assert len(calls) == 2
            assert calls[0] != calls[1]
        finally:
            runner_mod.measure_suite_batched = original


class TestCorruptArtifacts:
    def test_truncated_npz_is_a_miss_and_is_deleted(
        self, tmp_path, int_measurement
    ):
        from repro import obs

        cache = ExperimentCache(tmp_path)
        cache.save_measurement("k", int_measurement)
        path = tmp_path / "measurements" / "k.npz"
        path.write_bytes(path.read_bytes()[:40])  # torn copy
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            assert cache.load_measurement("k") is None
        assert not path.exists()
        assert scope.to_dict()["counters"]["cache.corrupt"] == 1.0
        assert cache.stats.misses["measurement"] == 1
        # A clean rewrite is served normally again.
        cache.save_measurement("k", int_measurement)
        loaded = cache.load_measurement("k")
        np.testing.assert_array_equal(loaded.activity, int_measurement.activity)

    def test_garbage_summary_json_is_a_miss_and_is_deleted(self, tmp_path):
        from repro import obs

        cache = ExperimentCache(tmp_path)
        path = tmp_path / "summaries" / "k.json"
        path.write_text("{not json at all")
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            assert cache.load_summary("k") is None
        assert not path.exists()
        assert scope.to_dict()["counters"]["cache.corrupt"] == 1.0

    def test_corrupt_bank_is_a_miss_and_is_deleted(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        path = tmp_path / "banks" / "k.npz"
        path.write_bytes(b"PK\x03\x04 definitely not a bank")
        assert cache.load_bank("k") is None
        assert not path.exists()

    def test_missing_artifact_is_a_plain_miss(self, tmp_path):
        from repro import obs

        cache = ExperimentCache(tmp_path)
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            assert cache.load_summary("absent") is None
        assert "cache.corrupt" not in scope.to_dict()["counters"]


class TestUnitExecutionError:
    def test_wraps_worker_failure_with_unit_identity(self, two_workloads):
        from repro.exps.engine import UnitExecutionError, run_unit_guarded

        runner = ExperimentRunner(ENGINE_CONFIG, workloads=two_workloads)

        def broken(*args, **kwargs):
            raise ValueError("thermal solver diverged")

        runner.run_unit = broken
        with pytest.raises(UnitExecutionError) as excinfo:
            run_unit_guarded(
                runner, TS, AdaptationMode.EXH_DYN, 1, 0, two_workloads
            )
        message = str(excinfo.value)
        assert "env=TS" in message and "mode=Exh-Dyn" in message
        assert "chip=1" in message and "core=0" in message
        assert "thermal solver diverged" in message
        assert excinfo.value.unit == ("TS", "Exh-Dyn", 1, 0)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_does_not_double_wrap(self, two_workloads):
        from repro.exps.engine import UnitExecutionError, run_unit_guarded

        runner = ExperimentRunner(ENGINE_CONFIG, workloads=two_workloads)
        inner = UnitExecutionError("TS", "Exh-Dyn", 0, 0)

        def raising(*args, **kwargs):
            raise inner

        runner.run_unit = raising
        with pytest.raises(UnitExecutionError) as excinfo:
            run_unit_guarded(
                runner, TS, AdaptationMode.EXH_DYN, 0, 0, two_workloads
            )
        assert excinfo.value is inner

    def test_iter_units_order(self):
        from repro.exps.engine import iter_units

        cells = [(TS, AdaptationMode.EXH_DYN), (TS_ASV, AdaptationMode.STATIC)]
        units = list(iter_units(cells, n_chips=2, cores_per_chip=2))
        assert units[0] == (TS, AdaptationMode.EXH_DYN, 0, 0)
        assert units[3] == (TS, AdaptationMode.EXH_DYN, 1, 1)
        assert units[4] == (TS_ASV, AdaptationMode.STATIC, 0, 0)
        assert len(units) == 8

    def test_unit_key_derivation(self):
        from repro.exps.cache import unit_key

        assert unit_key("abc", 3, 1) == "abc-3-1"
        assert unit_key("abc", 3, 1) != unit_key("abc", 1, 3)
