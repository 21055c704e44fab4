"""Fused physics kernels (DESIGN.md §15).

The batched optimizer/thermal profile is dominated by chains of small
elementwise ufuncs — ``threshold_voltage`` (Eq 9), ``static_power``
(Eq 8) and the Eq 6-9 thermal fixed point — each allocating fresh
temporaries on every call inside the (vdd, vbb, B, n) sweeps.  This
module collapses those chains into three kernels that every call site
imports directly:

``vt_and_static_power``
    Eq 9 + Eq 8 in one pass: effective threshold voltage and the
    leakage power it implies (optionally scaled by a power factor).
``thermal_step``
    One fixed-point iteration of Eq 6-9: both power terms, the clamped
    temperature update, and (optionally) the per-lane convergence
    delta.  Accepts an ``out=`` buffer and a ``work=`` scratch array so
    a fixed-point loop can ping-pong two temperature buffers through one
    scratch allocation and allocate nothing per iteration.
``timing_error_cdf``
    Eq 4's per-stage error rate ``rho * Q((1/f - m) / s)`` via scipy's
    ``ndtr``.

Each kernel is hand-fused: every intermediate is written through
``out=`` parameters into scratch arrays, so a kernel makes no hidden
temporaries.  Scratch belongs to the loop that reuses it: the module
holds no buffers between calls.  A fixed-point loop allocates its
``work`` and temperature buffers once per solve and passes them in; a
one-off call allocates its own scratch and drops it on return.

The bit-identity contract: every kernel performs the same IEEE double
operations in the same association order as the composition of the
leaf functions it replaces, so results are *bitwise* equal, not merely
close.  That unfused composition lives in ``tests/kernel_reference.py``
as the parity oracle and the benchmark baseline.

Each kernel records per-kernel observability: ``kernel.<name>.calls`` /
``kernel.<name>.ns`` counters feed the ``benchmarks/bench_kernels.py``
breakdown and the campaign benchmark, and cost one boolean check when
metrics are disabled.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

import numpy as np
from scipy.special import ndtr as _scipy_ndtr

from . import obs
from .circuits.knobs import VtSensitivities
from .circuits.leakage import IDEALITY_FACTOR
from .units import Q_OVER_K

#: Temperature cap applied by every thermal iteration; reaching it flags
#: thermal runaway.
T_RUNAWAY: float = 500.0


def _instrumented(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Count ``kernel.<name>.calls`` / ``kernel.<name>.ns`` for ``fn``."""
    calls_metric = f"kernel.{fn.__name__}.calls"
    ns_metric = f"kernel.{fn.__name__}.ns"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not obs.enabled():
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            obs.inc(calls_metric)
            obs.inc(ns_metric, float(time.perf_counter_ns() - start))

    return wrapper


# ----------------------------------------------------------------------
# The kernels: same ops as the leaf functions, same order, no hidden
# temporaries.  Bitwise equalities relied on here (all
# asserted by tests/test_kernels.py): ``x**2 == x*x``, scalar
# multiplication commutes (``k*a == a*k``), and ufunc ``out=`` writes
# are exact.  Operands of any broadcastable shape go to the ufuncs as
# they are: the ufunc broadcasts them into the full-shape ``out=``.
# ----------------------------------------------------------------------
def _fill_vt(vt0, vdd, vbb, temp, sens, vt):
    """Eq 9 into ``vt``, preserving the seed's association order."""
    np.subtract(temp, sens.t_ref, out=vt)
    np.multiply(vt, sens.k1, out=vt)
    np.add(vt0, vt, out=vt)
    np.add(vt, sens.k2 * (vdd - sens.vdd_ref), out=vt)
    np.add(vt, sens.k3 * vbb, out=vt)


def _fill_psta(vt, vdd, temp, ksta, ideality, power_factor, p, ws, ws2):
    """Eq 8 (optionally * power_factor) into ``p``.

    ``p`` may alias ``vt``: the first operation consumes ``vt`` into
    ``ws`` and nothing reads it afterwards.
    """
    np.multiply(vt, -Q_OVER_K, out=ws)
    np.multiply(temp, ideality, out=ws2)
    np.divide(ws, ws2, out=ws)
    np.exp(ws, out=ws)
    np.multiply(temp, temp, out=ws2)
    np.multiply(ksta * vdd, ws2, out=p)
    np.multiply(p, ws, out=p)
    if power_factor is not None:
        np.multiply(p, power_factor, out=p)


@_instrumented
def vt_and_static_power(
    vt0,
    vdd,
    vbb,
    temp,
    ksta,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
):
    vt0 = np.asarray(vt0, dtype=float)
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    temp = np.asarray(temp, dtype=float)
    ksta = np.asarray(ksta, dtype=float)
    shapes = [vt0.shape, vdd.shape, vbb.shape, temp.shape, ksta.shape]
    if power_factor is not None:
        power_factor = np.asarray(power_factor, dtype=float)
        shapes.append(power_factor.shape)
    shape = np.broadcast_shapes(*shapes)
    vt = np.empty(shape)
    p_sta = np.empty(shape)
    _fill_vt(vt0, vdd, vbb, temp, sens, vt)
    _fill_psta(
        vt, vdd, temp, ksta, ideality, power_factor, p_sta,
        np.empty(shape), np.empty(shape),
    )
    return vt, p_sta


@_instrumented
def thermal_step(
    vt0_leak,
    vdd,
    vbb,
    temp,
    ksta,
    rth,
    p_dyn,
    t_heatsink,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
    t_runaway: float = T_RUNAWAY,
    compute_delta: bool = False,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
):
    """One Eq 6-9 iteration; returns ``(new_temp, delta or None)``.

    ``work`` is caller-owned scratch of shape ``(3, *shape)`` (its
    planes may be strided views, e.g. ``work[:, :k]``); one of any other
    shape is ignored and fresh scratch is allocated instead.
    """
    vt0_leak = np.asarray(vt0_leak, dtype=float)
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    temp = np.asarray(temp, dtype=float)
    ksta = np.asarray(ksta, dtype=float)
    rth = np.asarray(rth, dtype=float)
    p_dyn = np.asarray(p_dyn, dtype=float)
    shapes = [
        vt0_leak.shape, vdd.shape, vbb.shape, temp.shape,
        ksta.shape, rth.shape, p_dyn.shape,
    ]
    if power_factor is not None:
        power_factor = np.asarray(power_factor, dtype=float)
        shapes.append(power_factor.shape)
    shape = np.broadcast_shapes(*shapes)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(
            f"thermal_step out buffer has shape {out.shape}, expected {shape}"
        )
    if work is None or work.shape != (3, *shape):
        work = np.empty((3, *shape))
    p, ws, ws2 = work
    _fill_vt(vt0_leak, vdd, vbb, temp, sens, p)
    _fill_psta(p, vdd, temp, ksta, ideality, power_factor, p, ws, ws2)
    np.add(p_dyn, p, out=p)
    np.multiply(rth, p, out=p)
    np.add(p, t_heatsink, out=p)
    np.minimum(p, t_runaway, out=out)
    delta = None
    if compute_delta:
        np.subtract(out, temp, out=ws)
        np.abs(ws, out=ws)
        delta = ws.max(axis=-1)
    return out, delta


@_instrumented
def timing_error_cdf(freq, mean, sigma, rho):
    freq = np.asarray(freq, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    shape = np.broadcast_shapes(
        freq.shape, mean.shape, sigma.shape, rho.shape
    )
    pe = np.empty(shape)
    np.divide(1.0, freq, out=pe)
    np.subtract(pe, mean, out=pe)
    np.divide(pe, sigma, out=pe)
    np.negative(pe, out=pe)
    _scipy_ndtr(pe, out=pe)
    np.multiply(rho, pe, out=pe)
    return pe
