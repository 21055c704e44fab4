"""Per-layer metrics of one traced run.

Times come from the spans of :mod:`tracing` (host seconds inside the
wrapped public calls, each group counted once when its calls nest, the
set-up phase included: that is where the population is drawn and the
factor loaded); counts come from the program's own ``obs`` registry.
Layer self times, shares and coverage are taken over the timed part.
"""

from __future__ import annotations

from typing import Dict

from tracing import LAYERS


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(task, analysis, registry, out, queue_depth_max=0) -> Dict[str, float]:
    counters = registry["counters"]
    histograms = registry["histograms"]
    inclusive = analysis["inclusive"]
    setup = analysis["setup_by_group"]
    calls = analysis["calls"]
    work = analysis["work"]
    wall = analysis["wall_s"]

    def count(name):
        return float(counters.get(name, 0.0))

    def seconds(group):
        return float(inclusive.get(group, 0.0) + setup.get(group, 0.0))

    metrics: Dict[str, float] = {
        "variation.population_s": seconds("variation.population"),
        "variation.factor_s": seconds("variation.factor"),
    }
    metrics["variation.factor_hits"] = count("variation.factor.hits")
    metrics["variation.factor_misses"] = count("variation.factor.misses")

    measure_s = seconds("microarch.measure")
    lru_hits = count("microarch.cache.hits")
    lru_misses = count("microarch.cache.misses")
    sim_minst = lru_misses * task["scale"]["n_instructions"] / 1e6
    metrics.update({
        "microarch.measure_s": measure_s,
        "microarch.requests": float(work.get("microarch.requests", 0.0)),
        "microarch.sim_minst": sim_minst,
        "microarch.minst_per_s": _ratio(sim_minst, measure_s),
        "microarch.memo_hit_ratio": _ratio(lru_hits, lru_hits + lru_misses),
    })

    metrics.update({
        "ml.label_s": seconds("ml.label"),
        "ml.train_s": float(analysis["self_by_group"].get("ml.bank", 0.0)),
        "ml.fcs_trained": count("ml.fcs_trained"),
        "ml.examples": float(work.get("ml.examples", 0.0)),
        "ml.infer_s": seconds("ml.infer"),
        "ml.infer_calls": float(calls.get("ml.infer", 0)),
    })

    candidates = count("optimizer.candidates")
    metrics.update({
        "core.units_batched_s": seconds("core.units_batched"),
        "core.unit_s": seconds("core.unit"),
        "core.optimize_s": seconds("core.optimize"),
        "core.freq_s": seconds("core.freq"),
        "core.power_s": seconds("core.power"),
        "core.candidates": candidates,
        "core.reject_ratio": _ratio(count("optimizer.constraint_rejections"),
                                    candidates),
        "core.lanes_per_call": _ratio(count("optimizer.freq_lanes"),
                                      count("optimizer.freq_calls")),
    })

    iterations = histograms.get("thermal.iterations", {})
    metrics["thermal.solve_s"] = seconds("thermal.solve")
    metrics["thermal.solves"] = count("thermal.solves")
    for kernel in ("thermal_step", "vt_and_static_power", "timing_error_cdf"):
        for field in ("calls", "ns"):
            metrics[f"kernels.{kernel}.{field}"] = count(f"kernel.{kernel}.{field}")
    metrics["kernels.iters_per_solve"] = _ratio(
        float(iterations.get("total", 0.0)), float(iterations.get("count", 0))
    )

    metrics.update({
        "engine.execute_s": seconds("engine.execute"),
        "engine.units": float(work.get("engine.units", 0.0)),
        "engine.batched_units": count("engine.batched_units"),
        "engine.cells": float(work.get("engine.cells", 0.0)),
    })

    hits = misses = 0.0
    for kind in ("summary", "measurement", "bank", "factor"):
        for op in ("load", "save"):
            metrics[f"cache.{kind}.{op}_s"] = seconds(f"cache.{kind}.{op}")
        metrics[f"cache.{kind}.hits"] = count(f"cache.{kind}.hits")
        metrics[f"cache.{kind}.misses"] = count(f"cache.{kind}.misses")
        hits += metrics[f"cache.{kind}.hits"]
        misses += metrics[f"cache.{kind}.misses"]
    metrics["cache.bytes_written"] = count("cache.bytes_written")
    metrics["cache.hit_ratio"] = _ratio(hits, hits + misses)

    metrics.update({
        "serve.submit_s": seconds("serve.submit"),
        "serve.wait_s": seconds("serve.result"),
        "serve.cells_cached": count("serve.cells_cached"),
        "serve.cells_coalesced": count("serve.cells_coalesced"),
        "serve.units_done": count("serve.units_done"),
        "serve.dedup_ratio": _ratio(count("serve.units_done"),
                                    out["units_demanded"])
        if calls.get("serve.submit") else 0.0,
        "serve.queue_depth_max": float(queue_depth_max),
    })

    for layer in LAYERS:
        own = analysis["self_by_layer"][layer]
        metrics[f"layer.{layer}.self_s"] = own
        metrics[f"layer.{layer}.share"] = _ratio(own, wall)
    metrics.update({
        "trace.coverage": analysis["coverage"],
        "trace.wall_s": wall,
        "trace.spans": float(analysis["spans"]),
    })
    return metrics
