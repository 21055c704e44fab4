"""Runtime settings: the single source of truth for engine + obs knobs.

Every consumer of the execution engine — the ``python -m repro.exps``
CLI, the Figures 10-13 drivers, and the benchmark harness — used to read
``EVAL_REPRO_*`` environment variables on its own.  :class:`Settings`
centralises that: :meth:`Settings.from_env` parses the environment once,
:meth:`Settings.from_args` layers parsed CLI arguments on top (explicit
flags beat environment variables beat defaults), and
:meth:`Settings.add_cli_arguments` registers the shared flags on an
``argparse`` parser so every entry point exposes the same surface.

Recognised environment variables::

    EVAL_REPRO_JOBS         worker processes (``--jobs``)
    EVAL_REPRO_CACHE        artifact cache directory (``--cache-dir``)
    EVAL_REPRO_NO_CACHE     any non-empty value disables the disk cache
    EVAL_REPRO_CHIPS        Monte-Carlo population size (``--chips``)
    EVAL_REPRO_CORES        cores per chip (``--cores``)
    EVAL_REPRO_FC_EXAMPLES  fuzzy-training examples (``--fc-examples``)
    EVAL_REPRO_SEED         base RNG seed (``--seed``)
    EVAL_REPRO_LOG_LEVEL    repro logger threshold (``--log-level``)
    EVAL_REPRO_LOG_JSON     any non-empty value selects JSON log lines
    EVAL_REPRO_METRICS_OUT  metrics JSON path (``--metrics-out``)

Campaign-service knobs (see :mod:`repro.serve`)::

    EVAL_REPRO_SERVICE           daemon address, ``host:port`` (``--service``)
    EVAL_REPRO_SERVICE_MAX_JOBS  admission limit on live jobs
    EVAL_REPRO_SERVICE_RETRIES   per-unit retry budget of the daemon's
                                 threads
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from dataclasses import dataclass
from typing import Mapping, Optional

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


@dataclass(frozen=True)
class Settings:
    """Engine, cache, scale and observability knobs for one run."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    cache_enabled: bool = True
    chips: int = 12
    cores: int = 1
    fc_examples: int = 4000
    seed: int = 7
    log_level: str = "WARNING"
    log_json: bool = False
    metrics_out: Optional[str] = None
    service_addr: Optional[str] = None
    service_max_jobs: int = 8
    service_retries: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.log_level.upper() not in _LOG_LEVELS:
            raise ValueError(f"log_level must be one of {_LOG_LEVELS}")
        if self.service_max_jobs < 1:
            raise ValueError("service_max_jobs must be >= 1")
        if self.service_retries < 0:
            raise ValueError("service_retries must be >= 0")

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        defaults: Optional["Settings"] = None,
    ) -> "Settings":
        """Parse ``EVAL_REPRO_*`` variables over ``defaults``.

        Unset (or empty) variables keep the default; the benchmark
        harness passes its own ``defaults`` (8 chips) while the CLI uses
        the dataclass defaults.
        """
        env = os.environ if environ is None else environ
        base = defaults if defaults is not None else cls()

        def text(name: str, fallback: Optional[str]) -> Optional[str]:
            return env.get(name) or fallback

        def integer(name: str, fallback: int) -> int:
            raw = env.get(name)
            if raw in (None, ""):
                return fallback
            try:
                return int(raw)
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {raw!r}") from None

        def flag(name: str, fallback: bool) -> bool:
            raw = env.get(name)
            return bool(raw) if raw is not None else fallback

        return cls(
            jobs=integer("EVAL_REPRO_JOBS", base.jobs),
            cache_dir=text("EVAL_REPRO_CACHE", base.cache_dir),
            cache_enabled=not flag("EVAL_REPRO_NO_CACHE", not base.cache_enabled),
            chips=integer("EVAL_REPRO_CHIPS", base.chips),
            cores=integer("EVAL_REPRO_CORES", base.cores),
            fc_examples=integer("EVAL_REPRO_FC_EXAMPLES", base.fc_examples),
            seed=integer("EVAL_REPRO_SEED", base.seed),
            log_level=text("EVAL_REPRO_LOG_LEVEL", base.log_level).upper(),
            log_json=flag("EVAL_REPRO_LOG_JSON", base.log_json),
            metrics_out=text("EVAL_REPRO_METRICS_OUT", base.metrics_out),
            service_addr=text("EVAL_REPRO_SERVICE", base.service_addr),
            service_max_jobs=integer(
                "EVAL_REPRO_SERVICE_MAX_JOBS", base.service_max_jobs
            ),
            service_retries=integer(
                "EVAL_REPRO_SERVICE_RETRIES", base.service_retries
            ),
        )

    @classmethod
    def from_args(
        cls,
        args: argparse.Namespace,
        base: Optional["Settings"] = None,
    ) -> "Settings":
        """Layer parsed CLI arguments over ``base`` (default: the env).

        Only attributes present on the namespace override; a parser that
        registered its flags through :meth:`add_cli_arguments` with
        env-derived defaults therefore yields the full precedence chain
        *flag > environment variable > default* in one call.
        """
        base = base if base is not None else cls.from_env()

        def take(name: str, fallback):
            value = getattr(args, name, None)
            return value if value is not None else fallback

        return cls(
            jobs=take("jobs", base.jobs),
            cache_dir=take("cache_dir", base.cache_dir),
            cache_enabled=base.cache_enabled and not getattr(args, "no_cache", False),
            chips=take("chips", base.chips),
            cores=take("cores", base.cores),
            fc_examples=take("fc_examples", base.fc_examples),
            seed=take("seed", base.seed),
            log_level=str(take("log_level", base.log_level)).upper(),
            log_json=bool(take("log_json", base.log_json)),
            metrics_out=take("metrics_out", base.metrics_out),
            service_addr=take("service", base.service_addr),
            service_max_jobs=take("service_max_jobs", base.service_max_jobs),
            service_retries=take("service_retries", base.service_retries),
        )

    @staticmethod
    def add_cli_arguments(
        parser: argparse.ArgumentParser, defaults: "Settings"
    ) -> None:
        """Register the shared engine/obs flags with env-derived defaults."""
        parser.add_argument(
            "--jobs",
            type=int,
            default=defaults.jobs,
            help="worker processes for Monte-Carlo targets "
                 "(default: $EVAL_REPRO_JOBS or 1)",
        )
        parser.add_argument(
            "--cache-dir",
            default=defaults.cache_dir,
            help="persist measurements/banks/summaries here "
                 "(default: $EVAL_REPRO_CACHE)",
        )
        parser.add_argument(
            "--no-cache",
            action="store_true",
            default=not defaults.cache_enabled,
            help="disable the on-disk artifact cache",
        )
        parser.add_argument(
            "--log-level",
            choices=[level for case in _LOG_LEVELS for level in (case, case.lower())],
            default=defaults.log_level,
            help="repro logger threshold (default: $EVAL_REPRO_LOG_LEVEL "
                 "or WARNING)",
        )
        parser.add_argument(
            "--log-json",
            action="store_true",
            default=defaults.log_json,
            help="emit log records as JSON lines",
        )
        parser.add_argument(
            "--metrics-out",
            default=defaults.metrics_out,
            help="write the metrics registry, merged across --jobs "
                 "workers, to this JSON file at exit",
        )

    @staticmethod
    def add_service_arguments(
        parser: argparse.ArgumentParser, defaults: "Settings"
    ) -> None:
        """Register the campaign-service policy flags (:mod:`repro.serve`).

        The daemon *address* is deliberately not here: daemons bind it as
        ``--addr`` and clients reach it as ``--service``, both defaulting
        to :attr:`service_addr` ($EVAL_REPRO_SERVICE).
        """
        parser.add_argument(
            "--service-max-jobs",
            type=int,
            default=defaults.service_max_jobs,
            help="reject submissions beyond this many live jobs "
                 "(default: $EVAL_REPRO_SERVICE_MAX_JOBS or 8)",
        )
        parser.add_argument(
            "--service-retries",
            type=int,
            default=defaults.service_retries,
            help="failed attempts a unit may retry before "
                 "its cell is declared poisoned "
                 "(default: $EVAL_REPRO_SERVICE_RETRIES or 1)",
        )

    # ------------------------------------------------------------------
    # Application.
    # ------------------------------------------------------------------
    @property
    def effective_cache_dir(self) -> Optional[str]:
        """The cache directory, or ``None`` when caching is disabled."""
        return self.cache_dir if self.cache_enabled else None

    def build_cache(self):
        """An :class:`~repro.exps.cache.ExperimentCache` at
        :attr:`effective_cache_dir`, or ``None``."""
        root = self.effective_cache_dir
        if root is None:
            return None
        from .exps.cache import ExperimentCache  # lazy: avoids an import cycle

        return ExperimentCache(root)

    def configure(self) -> "Settings":
        """Apply the logging settings; returns self for chaining."""
        from .obs import configure_logging

        configure_logging(self.log_level, json_lines=self.log_json)
        return self

    def replace(self, **changes) -> "Settings":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)
