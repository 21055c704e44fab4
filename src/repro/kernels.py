"""Fused physics kernels behind the backend registry (DESIGN.md §15).

The batched optimizer/thermal profile is dominated by chains of small
elementwise ufuncs — ``threshold_voltage`` (Eq 9), ``static_power``
(Eq 8) and the Eq 6-9 thermal fixed point — each allocating fresh
temporaries on every call inside the (vdd, vbb, B, n) sweeps.  This
module collapses those chains into three named kernels resolved through
:meth:`repro.backend.ArrayBackend.kernel`:

``vt_and_static_power``
    Eq 9 + Eq 8 in one pass: effective threshold voltage and the
    leakage power it implies (optionally scaled by a power factor).
``thermal_step``
    One fixed-point iteration of Eq 6-9: both power terms, the clamped
    temperature update, and (optionally) the per-lane convergence
    delta.  Accepts an ``out=`` buffer so callers can ping-pong two
    temperature buffers and allocate nothing in steady state.
``timing_error_cdf``
    Eq 4's per-stage error rate ``rho * Q((1/f - m) / s)`` via the
    backend's ``ndtr``.

Every kernel ships multiple *implementations*:

``reference``
    The exact seed composition of the leaf functions — the parity
    oracle and the benchmark baseline.
``numpy``
    Hand-fused: identical operations in the identical order, but
    written through ``out=`` parameters into buffers borrowed from a
    per-thread :class:`WorkspacePool`, so the only steady-state
    allocations are the results themselves.

The bit-identity contract: every implementation performs the same IEEE
double operations in the same association order as the seed leaf
functions, so results are *bitwise* equal, not merely close.  Selection
is ``EVAL_REPRO_KERNELS`` ∈ {``auto`` (default: numpy), ``reference``,
``numpy``}; :func:`use_impl`
forces one for a scope (tests and benchmarks), and
:func:`repro.backend.reset_backend` re-reads the environment.

Each resolved kernel is wrapped with per-kernel observability:
``kernel.<name>.calls`` / ``kernel.<name>.ns`` counters feed the
``benchmarks/bench_kernels.py`` breakdown and cost one boolean check
when metrics are disabled.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np
from scipy.special import ndtr as _scipy_ndtr

from . import obs
from .circuits.knobs import VtSensitivities, threshold_voltage
from .circuits.leakage import IDEALITY_FACTOR, static_power
from .numerics import norm_sf
from .units import Q_OVER_K

_ENV_VAR = "EVAL_REPRO_KERNELS"

#: Temperature cap flagging thermal runaway (mirrors the solver's).
_T_RUNAWAY_DEFAULT = 500.0


# ----------------------------------------------------------------------
# Workspace pool: per-thread scratch buffers keyed on (shape, dtype).
# ----------------------------------------------------------------------
class WorkspacePool:
    """A per-thread free list of preallocated scratch arrays.

    The fused numpy kernels write every intermediate into a borrowed
    buffer instead of allocating it, which is where most of their win
    comes from: grid-sized temporaries exceed the allocator's mmap
    threshold, so a fresh one costs a kernel round-trip plus first-touch
    page faults on every ufunc of the chain.  Buffers are keyed on
    ``(shape, dtype)`` and the free list per key is bounded, so the pool
    cannot grow past ``max_per_key`` grid-sized buffers per shape.

    Buffers come back uninitialised (``np.empty`` semantics); borrowers
    must fully overwrite them.  The pool is thread-local — concurrent
    kernel calls from different threads never share scratch space — and
    re-entrant: nested borrows of the same key pop distinct buffers.
    """

    def __init__(self, max_per_key: int = 8):
        self.max_per_key = max_per_key
        self._local = threading.local()

    def _free_lists(self) -> Dict[Tuple[tuple, str], list]:
        free = getattr(self._local, "free", None)
        if free is None:
            free = {}
            self._local.free = free
        return free

    @contextmanager
    def borrow(
        self, shape, count: int = 1, dtype=np.float64
    ) -> Iterator[Tuple[np.ndarray, ...]]:
        """Borrow ``count`` uninitialised ``shape``-shaped scratch arrays."""
        key = (tuple(shape), np.dtype(dtype).str)
        stack = self._free_lists().setdefault(key, [])
        buffers = tuple(
            stack.pop() if stack else np.empty(shape, dtype=dtype)
            for _ in range(count)
        )
        try:
            yield buffers
        finally:
            stack = self._free_lists().setdefault(key, [])
            for buffer in buffers:
                if len(stack) < self.max_per_key:
                    stack.append(buffer)

    def clear(self) -> None:
        """Drop this thread's cached buffers."""
        self._local.free = {}

    def cached_bytes(self) -> int:
        """Bytes currently cached for this thread (introspection/tests)."""
        return sum(
            buffer.nbytes
            for stack in self._free_lists().values()
            for buffer in stack
        )


_POOL = WorkspacePool()


def workspace_pool() -> WorkspacePool:
    """The process-wide (per-thread) scratch pool the fused kernels use."""
    return _POOL


# ----------------------------------------------------------------------
# Reference implementations: the exact seed leaf-function compositions.
# ----------------------------------------------------------------------
def _reference_vt_and_static_power(
    vt0,
    vdd,
    vbb,
    temp,
    ksta,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
):
    vt = threshold_voltage(vt0, temp, vdd, vbb, sens)
    p_sta = static_power(ksta, vdd, temp, vt, ideality)
    if power_factor is not None:
        p_sta = p_sta * power_factor
    return vt, p_sta


def _reference_thermal_step(
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
    t_runaway: float = _T_RUNAWAY_DEFAULT,
    compute_delta: bool = False,
    out: Optional[np.ndarray] = None,
):
    _, p_sta = _reference_vt_and_static_power(
        vt0_leak, vdd, vbb, temp, ksta, sens, ideality, power_factor
    )
    new_temp = np.minimum(t_heatsink + rth * (p_dyn + p_sta), t_runaway)
    delta = None
    if compute_delta:
        delta = np.max(
            np.abs(new_temp - np.asarray(temp, dtype=float)), axis=-1
        )
    if out is not None:
        np.copyto(out, new_temp)
        new_temp = out
    return new_temp, delta


def _reference_timing_error_cdf(freq, mean, sigma, rho):
    freq = np.asarray(freq, dtype=float)
    period = 1.0 / freq
    z = (period - np.asarray(mean, dtype=float)) / np.asarray(
        sigma, dtype=float
    )
    return np.asarray(rho, dtype=float) * norm_sf(z)


# ----------------------------------------------------------------------
# Hand-fused numpy implementations: same ops, same order, zero
# steady-state temporaries.  Bitwise equalities relied on here (all
# asserted by tests/test_kernels.py): ``x**2 == x*x``, scalar
# multiplication commutes (``k*a == a*k``), and ufunc ``out=`` writes
# are exact.
# ----------------------------------------------------------------------
def _fill_vt(vt0, vdd, vbb, temp_b, sens, shape, vt):
    """Eq 9 into ``vt``, preserving the seed's association order."""
    np.subtract(temp_b, sens.t_ref, out=vt)
    np.multiply(vt, sens.k1, out=vt)
    np.add(np.broadcast_to(vt0, shape), vt, out=vt)
    np.add(vt, np.broadcast_to(sens.k2 * (vdd - sens.vdd_ref), shape), out=vt)
    np.add(vt, np.broadcast_to(sens.k3 * vbb, shape), out=vt)


def _fill_psta(vt, vdd, temp_b, ksta, ideality, power_factor, shape, p, ws, ws2):
    """Eq 8 (optionally * power_factor) into ``p``.

    ``p`` may alias ``vt``: the first operation consumes ``vt`` into
    ``ws`` and nothing reads it afterwards.
    """
    np.multiply(vt, -Q_OVER_K, out=ws)
    np.multiply(temp_b, ideality, out=ws2)
    np.divide(ws, ws2, out=ws)
    np.exp(ws, out=ws)
    np.multiply(temp_b, temp_b, out=ws2)
    np.multiply(np.broadcast_to(ksta * vdd, shape), ws2, out=p)
    np.multiply(p, ws, out=p)
    if power_factor is not None:
        np.multiply(p, np.broadcast_to(power_factor, shape), out=p)


def _numpy_vt_and_static_power(
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
    temp_b = np.broadcast_to(temp, shape)
    vt = np.empty(shape)
    p_sta = np.empty(shape)
    _fill_vt(vt0, vdd, vbb, temp_b, sens, shape, vt)
    with _POOL.borrow(shape, 2) as (ws, ws2):
        _fill_psta(
            vt, vdd, temp_b, ksta, ideality, power_factor, shape, p_sta, ws, ws2
        )
    return vt, p_sta


def _numpy_thermal_step(
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
    t_runaway: float = _T_RUNAWAY_DEFAULT,
    compute_delta: bool = False,
    out: Optional[np.ndarray] = None,
):
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
    temp_b = np.broadcast_to(temp, shape)
    delta = None
    with _POOL.borrow(shape, 3) as (p, ws, ws2):
        _fill_vt(vt0_leak, vdd, vbb, temp_b, sens, shape, p)
        _fill_psta(p, vdd, temp_b, ksta, ideality, power_factor, shape, p, ws, ws2)
        np.add(np.broadcast_to(p_dyn, shape), p, out=p)
        np.multiply(np.broadcast_to(rth, shape), p, out=p)
        np.add(p, t_heatsink, out=p)
        np.minimum(p, t_runaway, out=out)
        if compute_delta:
            np.subtract(out, temp_b, out=ws)
            np.abs(ws, out=ws)
            delta = ws.max(axis=-1)
    return out, delta


def _numpy_timing_error_cdf(freq, mean, sigma, rho):
    freq = np.asarray(freq, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    shape = np.broadcast_shapes(
        freq.shape, mean.shape, sigma.shape, rho.shape
    )
    pe = np.empty(shape)
    np.divide(1.0, np.broadcast_to(freq, shape), out=pe)
    np.subtract(pe, np.broadcast_to(mean, shape), out=pe)
    np.divide(pe, np.broadcast_to(sigma, shape), out=pe)
    np.negative(pe, out=pe)
    _scipy_ndtr(pe, out=pe)
    np.multiply(np.broadcast_to(rho, shape), pe, out=pe)
    return pe


# ----------------------------------------------------------------------
# Registry, selection and per-kernel instrumentation.
# ----------------------------------------------------------------------
_IMPLS: Dict[str, Dict[str, Callable[..., Any]]] = {}
_CACHE: Dict[Tuple[str, str, str], Callable[..., Any]] = {}
_FORCED: Optional[str] = None


def register_kernel_impl(
    kernel: str, impl: str, fn: Callable[..., Any]
) -> None:
    """Register implementation ``impl`` of ``kernel`` (used at import)."""
    _IMPLS.setdefault(kernel, {})[impl] = fn
    _CACHE.clear()


def available_kernels() -> tuple:
    """Kernel names resolvable through ``ArrayBackend.kernel``."""
    return tuple(sorted(_IMPLS))


def available_impls(kernel: str) -> tuple:
    """Implementation names registered for ``kernel``."""
    if kernel not in _IMPLS:
        raise ValueError(
            f"unknown kernel {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        )
    return tuple(sorted(_IMPLS[kernel]))


def _selector() -> str:
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(_ENV_VAR, "auto").lower()


def _pick_impl(kernel: str, backend: str, choice: str) -> str:
    impls = _IMPLS.get(kernel)
    if impls is None:
        raise ValueError(
            f"unknown kernel {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        )
    if choice == "auto":
        # The fused implementations are numpy/scipy programs; any other
        # array backend falls back to the reference composition, which
        # routes its special functions through the active backend.
        if backend != "numpy":
            return "reference"
        if "numpy" in impls:
            return "numpy"
        return "reference"
    if choice not in impls:
        raise ValueError(
            f"unknown kernel impl {choice!r} for {kernel!r}; "
            f"available: {', '.join(available_impls(kernel))}"
        )
    return choice


def active_impl(kernel: str, backend: str = "numpy") -> str:
    """The implementation name :func:`resolve` would pick right now."""
    return _pick_impl(kernel, backend, _selector())


def _instrument(
    kernel: str, impl: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    calls_metric = f"kernel.{kernel}.calls"
    ns_metric = f"kernel.{kernel}.ns"

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

    wrapper.kernel_name = kernel  # type: ignore[attr-defined]
    wrapper.impl_name = impl  # type: ignore[attr-defined]
    return wrapper


def resolve(kernel: str, backend: str = "numpy") -> Callable[..., Any]:
    """The instrumented callable for ``kernel`` under the current policy.

    Callers normally go through ``get_backend().kernel(name)``; the
    cache key includes the selection policy, so forcing or re-reading
    ``EVAL_REPRO_KERNELS`` never serves a stale resolution.
    """
    choice = _selector()
    key = (kernel, backend, choice)
    fn = _CACHE.get(key)
    if fn is None:
        impl = _pick_impl(kernel, backend, choice)
        fn = _instrument(kernel, impl, _IMPLS[kernel][impl])
        _CACHE[key] = fn
    return fn


@contextmanager
def use_impl(impl: str) -> Iterator[None]:
    """Force one implementation for a scope (tests and benchmarks)."""
    global _FORCED
    previous = _FORCED
    _FORCED = impl
    try:
        yield
    finally:
        _FORCED = previous


def reset() -> None:
    """Drop forced/cached selections; the next resolve re-reads the env."""
    global _FORCED
    _FORCED = None
    _CACHE.clear()


register_kernel_impl(
    "vt_and_static_power", "reference", _reference_vt_and_static_power
)
register_kernel_impl("vt_and_static_power", "numpy", _numpy_vt_and_static_power)
register_kernel_impl("thermal_step", "reference", _reference_thermal_step)
register_kernel_impl("thermal_step", "numpy", _numpy_thermal_step)
register_kernel_impl("timing_error_cdf", "reference", _reference_timing_error_cdf)
register_kernel_impl("timing_error_cdf", "numpy", _numpy_timing_error_cdf)
