"""Perf smoke: the compute-once, share-everywhere variation front-end.

Two comparisons, both asserting bit-identical physics:

* **population**: warm-factor batched sampling (one wide GEMM through
  the process-wide factor memo) vs the seed path (every
  ``VariationModel`` re-factorises, then samples chips one at a time).
  This is the per-worker, per-scheduler-cell cost the memo amortises.
* **factor cache**: a cold process with the content-addressed disk
  artifact (load ``factors/<key>.npz``) vs re-running the Cholesky.

Results land in ``BENCH_variation.json`` (``$EVAL_REPRO_BENCH_VARIATION_OUT``)
for CI to upload next to ``BENCH_phase.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np

from repro import __version__
from repro.exps.cache import ExperimentCache, FactorStore
from repro.variation import (
    DEFAULT_VARIATION_PARAMS,
    DieGrid,
    VariationModel,
    clear_factor_memo,
    get_factor,
    set_store,
)

#: The paper's population size; the memo/GEMM win is what makes the
#: 100-chip Monte-Carlo front-end disappear from campaign wall-clock.
N_CHIPS = int(os.environ.get("EVAL_REPRO_BENCH_POP", "100"))
SEED = 7


def _chips_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.vt_sys, y.vt_sys)
        and np.array_equal(x.leff_sys, y.leff_sys)
        for x, y in zip(a, b)
    )


def _seed_path_population():
    """The pre-memo cost model: factorise from scratch, sample serially."""
    clear_factor_memo()
    return VariationModel().population(N_CHIPS, seed=SEED, batch=False)


def _write_baseline(sections) -> str:
    path = os.environ.get(
        "EVAL_REPRO_BENCH_VARIATION_OUT", "BENCH_variation.json"
    )
    payload = {
        "version": __version__,
        "n_chips": N_CHIPS,
        "grid": {"nx": DieGrid().nx, "ny": DieGrid().ny},
        "sections": sections,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_variation_front_end(benchmark):
    set_store(None)
    sections = {}

    # -- population: cold seed path vs warm-factor batched GEMM ---------
    cold_start = time.perf_counter()
    cold_chips = _seed_path_population()
    cold_s = time.perf_counter() - cold_start
    # The memo is warm now (the cold pass populated it); the batched draw
    # pays one flat RNG call + one (n, 2*N_CHIPS) GEMM.
    model = VariationModel()
    warm_chips = benchmark.pedantic(
        lambda: model.population(N_CHIPS, seed=SEED), rounds=1, iterations=1
    )
    warm_s = max(benchmark.stats.stats.min, 1e-9)

    assert _chips_equal(cold_chips, warm_chips)  # bit-identical physics
    population_speedup = cold_s / warm_s
    sections["population"] = {
        "cold_seed_path_seconds": cold_s,
        "warm_batched_seconds": warm_s,
        "speedup": population_speedup,
    }
    print(
        f"\npopulation ({N_CHIPS} chips): seed path {cold_s:.3f}s, "
        f"warm batched {warm_s:.3f}s -> {population_speedup:.1f}x"
    )

    # -- factor: disk artifact vs fresh Cholesky ------------------------
    grid, phi = DieGrid(), DEFAULT_VARIATION_PARAMS.phi
    with tempfile.TemporaryDirectory(prefix="eval-bench-factors-") as root:
        store = FactorStore(ExperimentCache(root))
        set_store(store)
        try:
            clear_factor_memo()
            cholesky_start = time.perf_counter()
            factor = get_factor(grid, phi)  # store miss: factorises + saves
            cholesky_s = time.perf_counter() - cholesky_start

            clear_factor_memo()  # cold process, warm artifact
            load_start = time.perf_counter()
            loaded = get_factor(grid, phi)
            load_s = time.perf_counter() - load_start
        finally:
            set_store(None)
    assert np.array_equal(factor, loaded)
    sections["factor_artifact"] = {
        "cholesky_seconds": cholesky_s,
        "disk_load_seconds": load_s,
        "speedup": cholesky_s / max(load_s, 1e-9),
    }
    print(
        f"factor: cholesky {cholesky_s:.3f}s, "
        f"disk artifact {load_s:.3f}s -> {cholesky_s / max(load_s, 1e-9):.1f}x"
    )

    path = _write_baseline(sections)
    print(f"variation baseline written to {path}")

    # The warm front-end must never lose to the seed path it replaces.
    assert population_speedup >= 1.0
