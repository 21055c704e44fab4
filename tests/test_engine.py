"""The parallel experiment engine, its cache, and the run() API redesign."""

import numpy as np
import pytest

from repro.calibration import DEFAULT_CALIBRATION, Calibration
from repro.core import NOVAR, TS, TS_ASV, AdaptationMode
from repro.exps import ExperimentRunner, RunnerConfig, RunSpec
from repro.exps.cache import (
    DirStore,
    ExperimentCache,
    FactorStore,
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


@pytest.fixture()
def metrics():
    """An isolated metrics registry so counter asserts see only this test."""
    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.scoped(registry):
        yield registry


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

        settings = Settings(jobs=3, cache_dir="/tmp/x")
        spec = RunSpec.from_settings(settings, environments=(TS,))
        assert spec.parallelism == 3
        assert spec.cache_dir == "/tmp/x"
        assert spec.use_cache
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
        """Banks shipped through the pool initializer change nothing."""
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

    def test_no_cache_parallel_run_writes_nothing(
        self, two_workloads, monkeypatch
    ):
        """Banks reach the workers with the population, not through disk."""
        import tempfile

        from repro import obs
        from repro.microarch.simulator import clear_measurement_cache

        made = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        spec_args = dict(
            environments=(TS_ASV,),
            modes=(AdaptationMode.FUZZY_DYN,),
            workloads=two_workloads,
            use_cache=False,
        )
        clear_measurement_cache()
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            parallel = ExperimentRunner(ENGINE_CONFIG).run(
                RunSpec(parallelism=2, **spec_args)
            ).summary(TS_ASV)
        assert made == []
        counters = scope.to_dict()["counters"]
        assert not [name for name in counters if name.startswith("cache.")]
        serial = ExperimentRunner(ENGINE_CONFIG).run(
            RunSpec(**spec_args)
        ).summary(TS_ASV)
        assert serial.results == parallel.results

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


#: 6 chips x 2 cores: 12 units per cell, enough for several capped blocks.
BLOCK_CONFIG = RunnerConfig(
    n_chips=6,
    cores_per_chip=2,
    n_instructions=3000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


class TestBlockCap:
    """``MAX_BLOCK_UNITS`` bounds a block's units without moving a row."""

    def test_blocks_respect_the_cap(self, monkeypatch):
        from repro.exps import engine

        runner = ExperimentRunner(BLOCK_CONFIG)
        pending = [(TS, AdaptationMode.EXH_DYN, None)]
        cell_units = [(chip, core) for chip in range(6) for core in range(2)]
        for cap, n_blocks, sizes in (
            (32, 1, [12]),
            (32, 2, [6, 6]),
            (5, 1, [4, 4, 4]),
            (5, 2, [4, 4, 4]),
            (5, 4, [3, 3, 3, 3]),
            (1, 2, [1] * 12),
        ):
            monkeypatch.setattr(engine, "MAX_BLOCK_UNITS", cap)
            blocks = engine._cell_blocks(runner, pending, n_blocks)
            assert [len(units) for _, _, units in blocks] == sizes
            assert [u for _, _, units in blocks for u in units] == cell_units

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_capped_rows_match_uncapped(
        self, two_workloads, monkeypatch, parallelism
    ):
        from repro.exps import engine

        spec = RunSpec(
            environments=(TS_ASV,),
            modes=(AdaptationMode.EXH_DYN, AdaptationMode.FUZZY_DYN),
            workloads=two_workloads,
            parallelism=parallelism,
        )
        runner = ExperimentRunner(BLOCK_CONFIG)

        def rows():
            result = runner.run(spec)
            return {
                mode: result.summary(TS_ASV, mode).results
                for mode in spec.modes
            }

        monkeypatch.setattr(engine, "MAX_BLOCK_UNITS", 12)
        uncapped = rows()
        for cap in (1, 5):
            monkeypatch.setattr(engine, "MAX_BLOCK_UNITS", cap)
            assert rows() == uncapped


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

    def test_campaigns_share_the_runners_cache(
        self, tmp_path, two_workloads, monkeypatch
    ):
        """A campaign whose cache_dir is the runner's own cache directory
        reads through the runner's cache, so a later campaign is served
        from its in-process summary memo and its stats count the hits."""
        from repro.config import Settings
        from repro.exps.runner import SuiteSummary

        parses = []
        real_from_json = SuiteSummary.from_json.__func__

        def counting_from_json(cls, text):
            parses.append(1)
            return real_from_json(cls, text)

        monkeypatch.setattr(
            SuiteSummary, "from_json", classmethod(counting_from_json)
        )
        settings = Settings(cache_dir=str(tmp_path))
        runner = ExperimentRunner.from_settings(settings, config=ENGINE_CONFIG)

        def campaign():
            return runner.run(RunSpec.from_settings(
                settings,
                environments=(TS,),
                modes=(AdaptationMode.STATIC, AdaptationMode.EXH_DYN),
                workloads=two_workloads,
            ))

        cold = campaign()
        assert runner.cache.stats.misses["summary"] == 2
        campaign()
        parsed_after_second = len(parses)
        assert parsed_after_second == 2
        warm = campaign()
        assert len(parses) == parsed_after_second
        assert runner.cache.stats.hits["summary"] == 4
        for mode in (AdaptationMode.STATIC, AdaptationMode.EXH_DYN):
            assert warm.summary(TS, mode).results == cold.summary(
                TS, mode
            ).results

    def test_engine_written_artifacts_carry_completion_marker(
        self, tmp_path, two_workloads
    ):
        from repro import obs
        from repro.config import Settings

        runner = ExperimentRunner(ENGINE_CONFIG)
        runner.run(RunSpec(environments=(TS,), workloads=two_workloads,
                           cache_dir=str(tmp_path)))
        summaries = sorted((tmp_path / "summaries").glob("*.json"))
        assert summaries
        for path in summaries:
            assert path.with_name(path.name + ".done").exists()
        key = summary_key(runner.calib, runner.config, runner.core_config,
                          TS, AdaptationMode.EXH_DYN, two_workloads)
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            cache = Settings(cache_dir=str(tmp_path)).build_cache()
            assert cache.load_summary(key) is not None
        assert "cache.pending_writes" not in scope.to_dict()["counters"]
        assert cache.stats.hits["summary"] == 1

    def test_no_cache_flag_bypasses_disk(self, tmp_path, two_workloads):
        cache = ExperimentCache(tmp_path)
        runner = ExperimentRunner(ENGINE_CONFIG, cache=cache)
        runner.run(RunSpec(environments=(TS,), workloads=two_workloads,
                           use_cache=False))
        assert not list((tmp_path / "summaries").iterdir())

    def test_cache_dir_gets_the_same_artifacts_at_any_parallelism(
        self, tmp_path, two_workloads
    ):
        """A cache-less runner measures and trains through RunSpec.cache_dir
        on the serial path as the pool does."""
        listings = {}
        for parallelism in (1, 2):
            root = tmp_path / f"jobs{parallelism}"
            ExperimentRunner(ENGINE_CONFIG).run(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN, AdaptationMode.FUZZY_DYN),
                workloads=two_workloads,
                parallelism=parallelism,
                cache_dir=str(root),
            ))
            listings[parallelism] = {
                kind: sorted(path.name for path in (root / kind).iterdir())
                for kind in ("measurements", "banks")
            }
        assert listings[1] == listings[2]
        assert listings[1]["measurements"] and listings[1]["banks"]

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

    def test_bank_follows_the_calibration(self):
        """A recalibrated runner trains its own bank, never another's."""
        from repro.ml import train_controller_bank
        from tests.golden import bank_digest

        default = ExperimentRunner(ENGINE_CONFIG).bank_for(TS_ASV)
        calib = Calibration(
            rth_coefficient=1.5 * DEFAULT_CALIBRATION.rth_coefficient
        )
        runner = ExperimentRunner(ENGINE_CONFIG, calib=calib)
        bank = runner.bank_for(TS_ASV)
        assert bank is not default
        core = runner.core(0, 0)
        fresh = train_controller_bank(
            core,
            TS_ASV.optimization_spec(core.n_subsystems, calib),
            n_examples=ENGINE_CONFIG.fuzzy_examples,
            epochs=ENGINE_CONFIG.fuzzy_epochs,
            seed=ENGINE_CONFIG.seed,
        )
        assert bank_digest(bank) == bank_digest(fresh)
        assert bank_digest(bank) != bank_digest(default)

    def test_bank_key_tracks_training_knobs(self, asv_spec):
        base = bank_key(DEFAULT_CALIBRATION, asv_spec, 300, 1, 7)
        assert base == bank_key(DEFAULT_CALIBRATION, asv_spec, 300, 1, 7)
        assert base != bank_key(DEFAULT_CALIBRATION, asv_spec, 600, 1, 7)
        assert base != bank_key(Calibration(z_free=6.0), asv_spec, 300, 1, 7)


class TestArtifactStores:
    def test_local_roundtrip(self, tmp_path):
        store = DirStore(tmp_path)
        assert not store.exists("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") is None
        store.put("summaries", "k", ".json", b"{}")
        assert store.exists("summaries", "k", ".json")
        assert store.is_complete("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") == b"{}"
        assert store.delete("summaries", "k", ".json") is True
        assert store.delete("summaries", "k", ".json") is False

    def test_local_put_leaves_no_temp_files(self, tmp_path):
        store = DirStore(tmp_path)
        store.put("measurements", "m1", ".npz", b"data")
        files = sorted(p.name for p in (tmp_path / "measurements").iterdir())
        assert "m1.npz" in files and "m1.npz.done" in files
        assert not [name for name in files if name.startswith(".tmp-")]

    def test_local_layout_matches_legacy_cache(self, tmp_path):
        # Same kind dirs, same names as every earlier ExperimentCache.
        store = DirStore(tmp_path)
        assert store.path_for("summaries", "abc", ".json") == (
            tmp_path / "summaries" / "abc.json"
        )
        assert store.path_for("banks", "b", ".npz") == (
            tmp_path / "banks" / "b.npz"
        )

    def test_shared_incomplete_write_is_invisible(self, tmp_path):
        store = DirStore(tmp_path)
        # Simulate a peer mid-write: data file present, no .done marker.
        path = store.path_for("summaries", "k", ".json")
        path.write_bytes(b"partial")
        assert store.exists("summaries", "k", ".json")
        assert not store.is_complete("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") is None

    def test_shared_marker_roundtrip(self, tmp_path):
        store = DirStore(tmp_path)
        store.put("summaries", "k", ".json", b"{}")
        assert store.is_complete("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") == b"{}"
        assert store.delete("summaries", "k", ".json") is True
        assert store.get("summaries", "k", ".json") is None
        assert not store.exists("summaries", "k", ".json")

    def test_factor_store_accepts_bare_artifact_store(self, tmp_path):
        import numpy as np

        store = FactorStore(ExperimentCache(tmp_path))
        key_data = ("grid", 8, 0.5)
        assert store.load(key_data) is None
        factor = np.eye(3)
        store.save(key_data, factor)
        loaded = store.load(key_data)
        assert loaded is not None and (loaded == factor).all()


class TestLoadGuardedSharedSafety:
    """Only *completed* corrupt artifacts are deleted."""

    def test_completed_corrupt_artifact_heals(self, tmp_path, metrics):
        cache = ExperimentCache(tmp_path)
        cache.store.put("summaries", "k", ".json", b"not json at all")
        assert cache.load_summary("k") is None
        assert not cache.store.exists("summaries", "k", ".json")
        counters = metrics.to_dict()["counters"]
        assert counters["cache.corrupt"] == 1.0

    def test_inflight_write_is_not_clobbered(self, tmp_path, metrics):
        cache = ExperimentCache(tmp_path)
        path = cache.store.path_for("summaries", "k", ".json")
        path.write_bytes(b"partial garbage from a peer mid-write")
        assert cache.load_summary("k") is None
        # Crucially: the peer's in-flight bytes are still there.
        assert path.exists()
        counters = metrics.to_dict()["counters"]
        assert counters.get("cache.corrupt", 0.0) == 0.0
        assert counters["cache.pending_writes"] >= 1.0

    def test_local_corrupt_artifact_still_heals(self, tmp_path, metrics):
        # A completed artifact torn after the fact (a truncated copy, a
        # full disk) is dropped and its slot heals.
        cache = ExperimentCache(tmp_path)
        cache.save_factor("k", [[1.0, 0.0], [0.0, 1.0]])
        path = cache.store.path_for("factors", "k", ".npz")
        path.write_bytes(path.read_bytes()[:20])
        assert cache.load_factor("k") is None
        assert not path.exists()
        assert metrics.to_dict()["counters"]["cache.corrupt"] == 1.0


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
        cache.store.put("summaries", "k", ".json", b"{not json at all")
        path = tmp_path / "summaries" / "k.json"
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            assert cache.load_summary("k") is None
        assert not path.exists()
        assert scope.to_dict()["counters"]["cache.corrupt"] == 1.0

    def test_corrupt_bank_is_a_miss_and_is_deleted(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        cache.store.put("banks", "k", ".npz", b"PK\x03\x04 definitely not a bank")
        path = tmp_path / "banks" / "k.npz"
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
        from repro.exps.engine import UnitExecutionError, run_units_guarded

        runner = ExperimentRunner(ENGINE_CONFIG, workloads=two_workloads)

        def broken(*args, **kwargs):
            raise ValueError("thermal solver diverged")

        runner.run_units_batched = broken
        (error,) = run_units_guarded(
            runner, TS, AdaptationMode.EXH_DYN, [(1, 0)], two_workloads
        )
        assert isinstance(error, UnitExecutionError)
        message = str(error)
        assert "env=TS" in message and "mode=Exh-Dyn" in message
        assert "chip=1" in message and "core=0" in message
        assert "thermal solver diverged" in message
        assert error.unit == ("TS", "Exh-Dyn", 1, 0)
        assert isinstance(error.__cause__, ValueError)

    def test_does_not_double_wrap(self, two_workloads):
        from repro.exps.engine import UnitExecutionError, run_units_guarded

        runner = ExperimentRunner(ENGINE_CONFIG, workloads=two_workloads)
        inner = UnitExecutionError("TS", "Exh-Dyn", 0, 0)

        def raising(*args, **kwargs):
            raise inner

        runner.run_units_batched = raising
        (error,) = run_units_guarded(
            runner, TS, AdaptationMode.EXH_DYN, [(0, 0)], two_workloads
        )
        assert error is inner

    def test_failing_one_unit_block_runs_once(self, two_workloads):
        """Only a block of two or more units falls back to per-unit runs:
        a failing one-unit block (every service-thread unit) is one
        attempt, not two."""
        from repro.exps.engine import UnitExecutionError, run_units_guarded

        runner = ExperimentRunner(ENGINE_CONFIG, workloads=two_workloads)
        calls = []

        def broken(env, mode, units, *args, **kwargs):
            calls.append(list(units))
            raise ValueError("thermal solver diverged")

        runner.run_units_batched = broken
        (error,) = run_units_guarded(
            runner, TS, AdaptationMode.EXH_DYN, [(1, 0)], two_workloads
        )
        assert isinstance(error, UnitExecutionError)
        assert calls == [[(1, 0)]]
        # A two-unit block: one batched try, then one try per unit.
        calls.clear()
        outcomes = run_units_guarded(
            runner, TS, AdaptationMode.EXH_DYN, [(0, 0), (1, 0)],
            two_workloads,
        )
        assert [error.unit[2] for error in outcomes] == [0, 1]
        assert calls == [[(0, 0), (1, 0)], [(0, 0)], [(1, 0)]]

    def test_pool_blames_the_exact_failing_unit(
        self, two_workloads, monkeypatch
    ):
        """A parallel run names the same broken unit as the serial run."""
        import dataclasses

        from repro.exps.engine import UnitExecutionError

        batched = ExperimentRunner.run_units_batched

        def run_units_batched(self, env, mode, units, *args, **kwargs):
            if (3, 0) in units:
                raise ValueError("chip 3 is broken")
            return batched(self, env, mode, units, *args, **kwargs)

        # A class-level patch: fork-started pool workers inherit it.
        monkeypatch.setattr(
            ExperimentRunner, "run_units_batched", run_units_batched
        )
        config = dataclasses.replace(ENGINE_CONFIG, n_chips=4)
        for parallelism in (1, 2):
            with pytest.raises(UnitExecutionError) as excinfo:
                ExperimentRunner(config).run(RunSpec(
                    environments=(TS,),
                    workloads=two_workloads,
                    parallelism=parallelism,
                ))
            assert excinfo.value.unit == ("TS", "Exh-Dyn", 3, 0)
            assert "chip 3 is broken" in str(excinfo.value)

    def test_pickle_roundtrip_keeps_unit_and_message(self):
        import pickle

        from repro.exps.engine import UnitExecutionError

        error = UnitExecutionError(
            "TS", "Exh-Dyn", 3, 0, cause=ValueError("thermal solver diverged")
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, UnitExecutionError)
        assert clone.unit == ("TS", "Exh-Dyn", 3, 0)
        assert str(clone) == str(error)
        assert "thermal solver diverged" in str(clone)

    def test_unit_key_derivation(self):
        from repro.exps.cache import unit_key

        assert unit_key("abc", 3, 1) == "abc-3-1"
        assert unit_key("abc", 3, 1) != unit_key("abc", 1, 3)
