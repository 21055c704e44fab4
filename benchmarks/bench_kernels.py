"""Perf smoke: fused physics kernels vs the unfused seed compositions.

Times each fused kernel of :mod:`repro.kernels` (``vt_and_static_power``,
``thermal_step``, ``timing_error_cdf``) against its oracle in
``tests/kernel_reference.py`` — the plain chain of leaf ufuncs — on an
optimiser-shaped grid, plus the
full thermal fixed point (the hottest loop in the phase optimiser) and
the all-scalar fast path of :func:`repro.circuits.leakage.static_power`.
Every timed pair is asserted bitwise identical first; the wall-clock
breakdown and the ``kernel.*`` observability counters are written to
``BENCH_kernels.json`` (and into the shared baseline's ``kernels``
section).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from _shared import record_bench_section

from repro import kernels, obs
from repro.circuits.knobs import DEFAULT_VT_SENSITIVITIES
from repro.circuits.leakage import static_power
from repro.obs import MetricsRegistry
from tests import kernel_reference

SENS = DEFAULT_VT_SENSITIVITIES

#: Population-scale operand grid: (n_vdd, n_vbb, lanes, subsystems) —
#: the optimiser's voltage sweep stacked over a 200-lane population.
#: Each full-rank temporary is ~45 MB, past glibc's 32 MB mmap-threshold
#: cap, so every temporary the unfused path allocates costs an mmap plus
#: first-touch page faults; the fused path reuses pooled workspaces and
#: pays neither.
GRID = (9, 21, 200, 15)

#: Fixed-point iterations to time (the solver typically needs 6-12).
FP_ITERS = 8

#: Best-of repeats per timed section (first call warms the pool/caches).
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

    ``ping_pong=True`` is the fused solver pattern (two buffers, zero
    steady-state allocation); ``False`` re-allocates every iteration the
    way the seed loop did.
    """
    temp = ops["temp"].copy()
    scratch = np.empty(temp.shape) if ping_pong else None
    for _ in range(FP_ITERS):
        temp, scratch = (
            thermal_step(
                ops["vt0"], ops["vdd"], ops["vbb"], temp, ops["ksta"],
                ops["rth"], ops["p_dyn"], 318.0, SENS, out=scratch,
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

    # --- the all-scalar fast path in the leaf function ---------------
    # 0-d ndarray operands are not Python floats, so they force the
    # seed's asarray path; plain floats take the new scalar path.
    scalars = (1.7, 1.05, 381.5, 0.143)
    boxed = tuple(np.asarray(value)[...] for value in scalars)
    assert float(static_power(*scalars)) == float(static_power(*boxed))
    calls = 200
    sections["scalar_static_power"] = {
        "calls": calls,
        "fused_seconds": _best_of(
            lambda: [static_power(*scalars) for _ in range(calls)]
        ),
        "reference_seconds": _best_of(
            lambda: [static_power(*boxed) for _ in range(calls)]
        ),
    }

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
        "workspace_cached_bytes": kernels.workspace_pool().cached_bytes(),
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
    for name in ("vt_and_static_power", "thermal_step", "timing_error_cdf",
                 "scalar_static_power"):
        assert sections[name]["speedup"] >= 1.0, name
