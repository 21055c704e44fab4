"""Perf smoke: fused physics kernels vs the unfused seed compositions.

Times each fused kernel of :mod:`repro.kernels` (``vt_and_static_power``,
``thermal_step``, ``timing_error_cdf``) against its oracle in
``tests/kernel_reference.py`` — the plain chain of leaf ufuncs — on an
optimiser-shaped grid, plus the
full thermal fixed point (the hottest loop in the phase optimiser).
Every timed pair is asserted bitwise identical first; the wall-clock
breakdown and the ``kernel.*`` observability counters are written to
``BENCH_kernels.json`` (and into the shared baseline's ``kernels``
section).

It also times the native trace walk (``repro/microarch/walk.c``) against
the Python reference walk over the suite, and fails when the native walk
did not load: a silent fall-back to Python cannot pass.

Last, it times the oracle labelling of a TS+ASV+ABB fuzzy bank (Freq,
then Power) with the optimiser's sweep helper thread in use against the
same calls forced serial: results and ``optimizer.*`` counters must be
equal, and with two or more usable CPUs the helper must win by 1.3x, so
a helper that silently stops sharing the work cannot pass.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from _shared import record_bench_section

from repro import kernels, obs
from repro.chip import build_core
from repro.circuits.knobs import DEFAULT_VT_SENSITIVITIES
from repro.core import TS_ASV_ABB, optimizer
from repro.core.optimizer import SubsystemArrays, freq_algorithm, power_algorithm
from repro.microarch import generate_trace, native, spec2000_like_suite
from repro.microarch.pipeline import DEFAULT_CORE_CONFIG, simulate_batch
from repro.mitigation import (
    BASE, FU_LOWSLOPE, FU_NORMAL, QUEUE_FULL, QUEUE_RESIZED,
)
from repro.ml.bank import _variant_kwargs
from repro.ml.dataset import TrainingRequest, _draw_request
from repro.obs import MetricsRegistry
from repro.variation import DieGrid, VariationModel
from tests import kernel_reference

SENS = DEFAULT_VT_SENSITIVITIES

#: Population-scale operand grid: (n_vdd, n_vbb, lanes, subsystems) —
#: the optimiser's voltage sweep stacked over a 200-lane population.
#: Each full-rank temporary is ~4.5 MB (567 K doubles), above glibc's
#: default 128 KiB mmap threshold, so a fresh temporary can cost an mmap
#: plus first-touch page faults; the fused fixed point allocates its
#: scratch once per solve and pays neither per iteration.
GRID = (9, 21, 200, 15)

#: Fixed-point iterations to time (the solver typically needs 6-12).
FP_ITERS = 8

#: Best-of repeats per timed section (first call warms the caches).
REPEATS = 3


def _operands(seed=0):
    n_vdd, n_vbb, lanes, n = GRID
    rng = np.random.default_rng(seed)
    return {
        "vt0": rng.uniform(0.10, 0.20, (lanes, n)),
        "ksta": rng.uniform(0.5, 2.0, (lanes, n)),
        "rth": rng.uniform(0.5, 2.5, (lanes, n)),
        "vdd": np.linspace(0.8, 1.2, n_vdd)[:, None, None, None],
        "vbb": np.linspace(-0.5, 0.5, n_vbb)[None, :, None, None],
        "temp": rng.uniform(330.0, 420.0, GRID),
        "p_dyn": rng.uniform(0.1, 3.0, GRID),
        "freq": rng.uniform(2.0e9, 5.0e9, (n_vdd * n_vbb * lanes, 1)),
        "mean": rng.uniform(1.8e-10, 2.4e-10, (n_vdd * n_vbb * lanes, n)),
        "sigma": rng.uniform(1e-12, 8e-12, (n_vdd * n_vbb * lanes, n)),
        "rho": rng.uniform(0.0, 1.0, (n_vdd * n_vbb * lanes, n)),
    }


def _best_of(fn, repeats=REPEATS):
    """Min wall clock over ``repeats`` calls (first call is a warm-up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_bitwise(a, b):
    assert np.asarray(a).shape == np.asarray(b).shape
    assert (np.asarray(a) == np.asarray(b)).all()


def _fixed_point(thermal_step, ops, *, ping_pong):
    """Run FP_ITERS thermal iterations; returns the final temperatures.

    ``ping_pong=True`` is the fused solver pattern (two temperature
    buffers and one ``work`` scratch array, allocated once per solve);
    ``False`` re-allocates every iteration the way the seed loop did.
    """
    temp = ops["temp"].copy()
    scratch = np.empty(temp.shape) if ping_pong else None
    work = np.empty((3, *temp.shape)) if ping_pong else None
    for _ in range(FP_ITERS):
        temp, scratch = (
            thermal_step(
                ops["vt0"], ops["vdd"], ops["vbb"], temp, ops["ksta"],
                ops["rth"], ops["p_dyn"], 318.0, SENS, out=scratch,
                work=work,
            )[0],
            temp,
        )
    return temp


def _time_kernel_pair(name, call):
    """Time ``call(fn)`` on the oracle and on the fused kernel."""
    reference = getattr(kernel_reference, name)
    fused = getattr(kernels, name)
    _assert_bitwise(call(reference), call(fused))
    return {
        "reference_seconds": _best_of(lambda: call(reference)),
        "fused_seconds": _best_of(lambda: call(fused)),
    }


def _speedup(section):
    fused = section["fused_seconds"]
    return section["reference_seconds"] / fused if fused > 0 else float("inf")


def test_kernel_breakdown(benchmark):
    ops = _operands()

    sections = {}

    # --- the tentpole number: the thermal fixed point ----------------
    reference_step = kernel_reference.thermal_step
    fused_step = kernels.thermal_step
    _assert_bitwise(
        _fixed_point(reference_step, ops, ping_pong=False),
        _fixed_point(fused_step, ops, ping_pong=True),
    )
    sections["thermal_fixed_point"] = {
        "iterations": FP_ITERS,
        "reference_seconds": _best_of(
            lambda: _fixed_point(reference_step, ops, ping_pong=False)
        ),
        "fused_seconds": benchmark.pedantic(
            lambda: _best_of(
                lambda: _fixed_point(fused_step, ops, ping_pong=True)
            ),
            rounds=1,
            iterations=1,
        ),
    }

    # --- single-shot kernels -----------------------------------------
    sections["vt_and_static_power"] = _time_kernel_pair(
        "vt_and_static_power",
        lambda fn: fn(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS
        )[1],
    )
    sections["thermal_step"] = _time_kernel_pair(
        "thermal_step",
        lambda fn: fn(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS, compute_delta=True,
        )[0],
    )
    sections["timing_error_cdf"] = _time_kernel_pair(
        "timing_error_cdf",
        lambda fn: fn(ops["freq"], ops["mean"], ops["sigma"], ops["rho"]),
    )

    # --- per-kernel observability counters ---------------------------
    registry = MetricsRegistry()
    with obs.scoped(registry):
        fused_step(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS,
        )
        kernels.vt_and_static_power(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS
        )
        kernels.timing_error_cdf(
            ops["freq"], ops["mean"], ops["sigma"], ops["rho"]
        )
    counters = {
        name: value
        for name, value in registry.to_dict()["counters"].items()
        if name.startswith("kernel.")
    }
    assert counters["kernel.thermal_step.calls"] == 1

    for section in sections.values():
        section["speedup"] = _speedup(section)

    payload = {
        "grid": list(GRID),
        "kernels": sections,
        "counters": counters,
    }
    record_bench_section("kernels", payload)
    out = os.environ.get("EVAL_REPRO_BENCH_KERNELS_OUT", "BENCH_kernels.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lines = [
        f"  {name:24s} reference {section['reference_seconds'] * 1e3:8.2f}ms"
        f"  fused {section['fused_seconds'] * 1e3:8.2f}ms"
        f"  -> {section['speedup']:.2f}x"
        for name, section in sections.items()
    ]
    print("\nfused kernels (grid {}x{}x{}x{}):".format(*GRID))
    print("\n".join(lines))

    # Floors: fused paths must never lose to the seed compositions.
    # The fixed point is the headline (ISSUE target: >= 1.5x).
    assert sections["thermal_fixed_point"]["speedup"] >= 1.0
    for name in ("vt_and_static_power", "thermal_step", "timing_error_cdf"):
        assert sections[name]["speedup"] >= 1.0, name


#: Trace length of the walk entry: the campaign's measurement length.
WALK_INSTRUCTIONS = 12000


def test_trace_walk(benchmark):
    """Native vs Python trace walk: 10 suite profiles x default / resized
    int queue / FU replication x L2 suppression, at 12k instructions."""
    assert native.library() is not None, (
        "the native trace walk did not build or load; walks would run in "
        "Python"
    )
    configs = (
        DEFAULT_CORE_CONFIG,
        DEFAULT_CORE_CONFIG.with_resized_queue("int"),
        DEFAULT_CORE_CONFIG.with_fu_replication(),
    )
    variants = [(config, suppress) for config in configs
                for suppress in (False, True)]
    traces = [generate_trace(profile, WALK_INSTRUCTIONS, 0)
              for profile in spec2000_like_suite()]

    def walk_all():
        return [simulate_batch(trace, variants) for trace in traces]

    def python_walk_all():
        saved = native._loaded[:]
        native._loaded[:] = [None]
        try:
            return walk_all()
        finally:
            native._loaded[:] = saved

    registry = MetricsRegistry()
    with obs.scoped(registry):
        assert walk_all() == python_walk_all()
    counters = registry.to_dict()["counters"]
    walks = len(traces) * len(variants)
    assert counters["microarch.native_walks"] == walks
    assert counters["microarch.python_walks"] == walks

    section = {
        "walks": walks,
        "instructions": WALK_INSTRUCTIONS,
        "reference_seconds": _best_of(python_walk_all),
        "fused_seconds": benchmark.pedantic(
            lambda: _best_of(walk_all), rounds=1, iterations=1
        ),
    }
    section["speedup"] = _speedup(section)
    record_bench_section("trace_walk", section)
    print(
        f"\ntrace walk ({walks} walks x {WALK_INSTRUCTIONS} instructions):"
        f" python {section['reference_seconds'] * 1e3:8.1f}ms"
        f"  native {section['fused_seconds'] * 1e3:8.1f}ms"
        f"  -> {section['speedup']:.1f}x"
    )
    assert section["speedup"] >= 5.0


#: Samples per labelling request: the ``ladder_cold`` bank scale.
SWEEP_EXAMPLES = 500
#: The floor the helper must reach with two or more usable CPUs.
SWEEP_FLOOR = 1.3


def _labelling_stack():
    """The TS+ASV+ABB bank's labelling stack: one 500-sample lane per
    (subsystem, variant) request, as ``train_controller_bank`` draws it."""
    chip = VariationModel(grid=DieGrid(nx=24, ny=24)).population(1, seed=7)[0]
    core = build_core(chip, 0)
    spec = TS_ASV_ABB.optimization_spec(core.n_subsystems, core.calib)
    requests = []
    for index, sub in enumerate(core.floorplan.subsystems):
        variants = (
            (QUEUE_FULL, QUEUE_RESIZED) if sub.resizable
            else (FU_NORMAL, FU_LOWSLOPE) if sub.replicable else (BASE,)
        )
        requests.extend(
            TrainingRequest(index=index, seed=1000 * index + k,
                            n_examples=SWEEP_EXAMPLES,
                            **_variant_kwargs(core, variant))
            for k, variant in enumerate(variants)
        )
    chunks = [part for request in requests
              for part in _draw_request(core, request, SWEEP_EXAMPLES)]
    stack = SubsystemArrays.stack([arrays for _, arrays, _ in chunks])
    return stack, np.stack([u for _, _, u in chunks]), spec


def test_sweep_helper(benchmark, monkeypatch):
    stack, f_core_u, spec = _labelling_stack()
    f_min = spec.knob_ranges.f_min

    def label():
        freq = freq_algorithm(stack, spec)
        f_core = np.maximum(f_min + f_core_u * (freq.f_max - f_min), f_min)
        power = power_algorithm(stack, f_core, spec)
        return [freq.f_max, freq.vdd, freq.vbb, power.vdd, power.vbb,
                power.temperature, power.p_dynamic, power.p_static]

    def labelled(cpus):
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: cpus)
        registry = MetricsRegistry()
        with obs.scoped(registry):
            arrays = label()
        doc = registry.to_dict()
        counters = {name: value for name, value in doc["counters"].items()
                    if name.startswith("optimizer.")}
        iterations = doc["histograms"]["optimizer.freq_iterations"]["values"]
        return arrays, counters, iterations

    helper, serial = labelled(2), labelled(1)
    for shared, alone in zip(helper[0], serial[0]):
        _assert_bitwise(shared, alone)
    assert helper[1:] == serial[1:]

    monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 1)
    reference = _best_of(label, repeats=2)
    monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
    section = {
        "lanes": stack.batch_size,
        "samples": stack.n_subsystems,
        "reference_seconds": reference,
        "fused_seconds": benchmark.pedantic(
            lambda: _best_of(label, repeats=2), rounds=1, iterations=1
        ),
    }
    section["speedup"] = _speedup(section)
    record_bench_section("sweep_helper", section)
    print(
        f"\nlabelling sweeps ({stack.batch_size} lanes x "
        f"{stack.n_subsystems} samples, TS+ASV+ABB):"
        f" serial {reference * 1e3:8.1f}ms"
        f"  helper {section['fused_seconds'] * 1e3:8.1f}ms"
        f"  -> {section['speedup']:.2f}x"
    )
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        print(f"  {SWEEP_FLOOR}x floor skipped: {cpus} usable CPU")
        return
    assert section["speedup"] >= SWEEP_FLOOR
