"""Shared state for the benchmark harness.

The Figures 10-12 benchmarks share one ladder computation; fuzzy banks and
measurements are cached inside the shared runner.  All knobs come from the
``EVAL_REPRO_*`` environment variables through
:meth:`repro.config.Settings.from_env` (default 8 chips x 1 core; the
paper uses 100 x 4 — set ``EVAL_REPRO_CHIPS=100 EVAL_REPRO_CORES=4`` to
match it exactly).

Engine knobs: ``EVAL_REPRO_JOBS=N`` shards the Monte-Carlo population
across N worker processes (bit-identical results), and
``EVAL_REPRO_CACHE=DIR`` persists measurements, trained fuzzy banks, and
whole suite summaries across benchmark sessions — a warm-cache re-run of
e.g. ``bench_fig10`` skips the Monte-Carlo work entirely.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Any, Dict

from repro import __version__, obs
from repro.config import Settings
from repro.exps.ladder import run_ladder
from repro.exps.runner import ExperimentRunner, RunnerConfig

#: Benchmark-harness defaults: a smaller population than the CLI's.
BENCH_DEFAULTS = Settings(chips=8, cores=1)


@lru_cache(maxsize=1)
def settings() -> Settings:
    return Settings.from_env(defaults=BENCH_DEFAULTS)


def scale() -> "tuple[int, int]":
    cfg = settings()
    return cfg.chips, cfg.cores


def jobs() -> int:
    return settings().jobs


def cache_dir() -> "str | None":
    return settings().effective_cache_dir


@lru_cache(maxsize=1)
def shared_runner() -> ExperimentRunner:
    cfg = settings()
    return ExperimentRunner.from_settings(
        cfg, config=RunnerConfig.from_settings(cfg, fuzzy_epochs=2, seed=7)
    )


@lru_cache(maxsize=1)
def shared_ladder():
    return run_ladder(shared_runner(), settings=settings())


#: Extra machine-readable blocks benchmarks attach to the baseline file
#: (e.g. the per-kernel breakdown of ``bench_kernels``).
_BENCH_SECTIONS: Dict[str, Any] = {}

#: Metric-name prefixes worth keeping in the perf-baseline file.
_BASELINE_PREFIXES = (
    "optimizer.", "thermal.", "ml.", "engine.", "runner.", "kernel.",
)


def record_bench_section(name: str, payload: Dict[str, Any]) -> None:
    """Attach a JSON-safe block to this session's ``BENCH_phase.json``."""
    _BENCH_SECTIONS[name] = payload


def write_phase_baseline(path: "str | None" = None) -> str:
    """Write the machine-readable perf baseline (``BENCH_phase.json``).

    Captures the session's per-stage wall clock (the ``span.*`` duration
    histograms), the optimizer work counters, and the per-lane
    iterations-to-converge histogram — enough to diff optimizer perf
    between commits without re-parsing pytest-benchmark output.  Raw
    histogram reservoirs are dropped; only the summary stats are kept.
    """
    path = path or os.environ.get("EVAL_REPRO_BENCH_OUT", "BENCH_phase.json")
    document = obs.metrics_registry().to_dict()

    def keep(name: str) -> bool:
        stage = name[len("span."):] if name.startswith("span.") else name
        return stage.startswith(_BASELINE_PREFIXES)

    histograms = {
        name: {k: v for k, v in stats.items() if k != "values"}
        for name, stats in document["histograms"].items()
        if keep(name)
    }
    cfg = settings()
    payload = {
        "version": __version__,
        "scale": {"chips": cfg.chips, "cores": cfg.cores, "jobs": cfg.jobs},
        "counters": {
            name: value
            for name, value in document["counters"].items()
            if keep(name)
        },
        "histograms": histograms,
        "sections": dict(_BENCH_SECTIONS),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
