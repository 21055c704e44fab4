"""The repro.config.Settings runtime-knob bundle."""

import argparse

import pytest

from repro.config import Settings


class TestDefaults:
    def test_dataclass_defaults(self):
        cfg = Settings()
        assert cfg.jobs == 1
        assert cfg.cache_dir is None and cfg.cache_enabled
        assert cfg.chips == 12 and cfg.cores == 1
        assert cfg.fc_examples == 4000 and cfg.seed == 7
        assert cfg.log_level == "WARNING" and not cfg.log_json
        assert cfg.metrics_out is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Settings(jobs=0)
        with pytest.raises(ValueError):
            Settings(log_level="LOUD")

    def test_replace(self):
        assert Settings().replace(jobs=4).jobs == 4


class TestFromEnv:
    def test_reads_every_variable(self):
        cfg = Settings.from_env({
            "EVAL_REPRO_JOBS": "3",
            "EVAL_REPRO_CACHE": "/tmp/c",
            "EVAL_REPRO_CHIPS": "20",
            "EVAL_REPRO_CORES": "2",
            "EVAL_REPRO_FC_EXAMPLES": "500",
            "EVAL_REPRO_SEED": "11",
            "EVAL_REPRO_LOG_LEVEL": "info",
            "EVAL_REPRO_LOG_JSON": "1",
            "EVAL_REPRO_METRICS_OUT": "/tmp/m.json",
        })
        assert cfg.jobs == 3 and cfg.cache_dir == "/tmp/c"
        assert cfg.chips == 20 and cfg.cores == 2
        assert cfg.fc_examples == 500 and cfg.seed == 11
        assert cfg.log_level == "INFO" and cfg.log_json
        assert cfg.metrics_out == "/tmp/m.json"

    def test_empty_env_keeps_defaults(self):
        assert Settings.from_env({}) == Settings()

    def test_no_cache_variable(self):
        assert not Settings.from_env({"EVAL_REPRO_NO_CACHE": "1"}).cache_enabled
        assert Settings.from_env({}).cache_enabled

    def test_shared_mem_variable(self):
        assert Settings.from_env({}).shared_mem
        for raw in ("0", "false", "no", "off", "False", " OFF "):
            assert not Settings.from_env(
                {"EVAL_REPRO_SHARED_MEM": raw}
            ).shared_mem
        assert Settings.from_env({"EVAL_REPRO_SHARED_MEM": "1"}).shared_mem

    def test_custom_defaults(self):
        bench = Settings(chips=8)
        assert Settings.from_env({}, defaults=bench).chips == 8
        assert Settings.from_env(
            {"EVAL_REPRO_CHIPS": "100"}, defaults=bench
        ).chips == 100


class TestFromArgs:
    def _parse(self, argv, env=None):
        base = Settings.from_env(env or {})
        parser = argparse.ArgumentParser()
        Settings.add_cli_arguments(parser, base)
        return Settings.from_args(parser.parse_args(argv), base=base)

    def test_flag_beats_env_beats_default(self):
        env = {"EVAL_REPRO_JOBS": "2"}
        assert self._parse([], env).jobs == 2          # env beats default
        assert self._parse(["--jobs", "5"], env).jobs == 5  # flag beats env
        assert self._parse([]).jobs == 1               # default

    def test_no_cache_flag(self):
        assert not self._parse(["--no-cache"]).cache_enabled
        assert self._parse([]).cache_enabled

    def test_shared_mem_flag_beats_env_beats_default(self):
        assert self._parse([]).shared_mem  # default on
        assert not self._parse(["--no-shared-mem"]).shared_mem
        env = {"EVAL_REPRO_SHARED_MEM": "0"}
        assert not self._parse([], env).shared_mem
        assert self._parse(["--shared-mem"], env).shared_mem  # flag wins

    def test_log_level_case_insensitive(self):
        assert self._parse(["--log-level", "debug"]).log_level == "DEBUG"

    def test_metrics_out_flag(self):
        assert self._parse(["--metrics-out", "m.json"]).metrics_out == "m.json"


class TestApplication:
    def test_effective_cache_dir(self, tmp_path):
        on = Settings(cache_dir=str(tmp_path))
        off = on.replace(cache_enabled=False)
        assert on.effective_cache_dir == str(tmp_path)
        assert off.effective_cache_dir is None

    def test_build_cache(self, tmp_path):
        from repro.exps.cache import ExperimentCache

        cache = Settings(cache_dir=str(tmp_path)).build_cache()
        assert isinstance(cache, ExperimentCache)
        assert Settings().build_cache() is None
        assert Settings(
            cache_dir=str(tmp_path), cache_enabled=False
        ).build_cache() is None

    def test_configure_sets_logger_level(self):
        import logging

        Settings(log_level="DEBUG").configure()
        try:
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            Settings().configure()  # restore the WARNING default


class TestServiceKnobs:
    def test_defaults(self):
        cfg = Settings()
        assert cfg.service_addr is None
        assert cfg.service_max_jobs == 8
        assert cfg.service_retries == 1
        assert cfg.service_cell_timeout is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Settings(service_max_jobs=0)
        with pytest.raises(ValueError):
            Settings(service_retries=-1)
        with pytest.raises(ValueError):
            Settings(service_cell_timeout=0.0)
        assert Settings(service_retries=0).service_retries == 0

    def test_from_env(self):
        cfg = Settings.from_env({
            "EVAL_REPRO_SERVICE": "127.0.0.1:9000",
            "EVAL_REPRO_SERVICE_MAX_JOBS": "3",
            "EVAL_REPRO_SERVICE_RETRIES": "5",
            "EVAL_REPRO_SERVICE_TIMEOUT": "2.5",
        })
        assert cfg.service_addr == "127.0.0.1:9000"
        assert cfg.service_max_jobs == 3
        assert cfg.service_retries == 5
        assert cfg.service_cell_timeout == 2.5

    def test_empty_env_keeps_service_defaults(self):
        cfg = Settings.from_env({"EVAL_REPRO_SERVICE_TIMEOUT": ""})
        assert cfg.service_cell_timeout is None
        assert cfg.service_addr is None

    def _parse(self, argv, env=None):
        base = Settings.from_env(env or {})
        parser = argparse.ArgumentParser()
        # Mirrors the CLIs: clients register --service themselves, the
        # shared policy flags come from add_service_arguments.
        parser.add_argument("--service", default=base.service_addr)
        Settings.add_cli_arguments(parser, base)
        Settings.add_service_arguments(parser, base)
        return Settings.from_args(parser.parse_args(argv), base=base)

    def test_flag_beats_env_beats_default(self):
        env = {"EVAL_REPRO_SERVICE_RETRIES": "4"}
        assert self._parse([], env).service_retries == 4
        assert self._parse(
            ["--service-retries", "9"], env
        ).service_retries == 9
        assert self._parse([]).service_retries == 1

    def test_service_address_flag(self):
        env = {"EVAL_REPRO_SERVICE": "env-host:1"}
        assert self._parse([], env).service_addr == "env-host:1"
        assert self._parse(
            ["--service", "flag-host:2"], env
        ).service_addr == "flag-host:2"

    def test_timeout_and_max_jobs_flags(self):
        cfg = self._parse(
            ["--service-timeout", "1.5", "--service-max-jobs", "2"]
        )
        assert cfg.service_cell_timeout == 1.5
        assert cfg.service_max_jobs == 2
