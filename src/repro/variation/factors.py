"""Process-wide memo for correlation factors.

The correlation factor ``L`` (``L @ L.T == correlation_matrix``) depends
only on the die geometry, the correlation range ``phi`` and the diagonal
jitter — not on the chip population, the seed, or any campaign knob.  Yet
the seed code recomputed the O(n^3) Cholesky (n = 1600 at the default
40x40 grid) once per :class:`~repro.variation.population.VariationModel`
instance, which in practice meant once per pool worker and once per
service scheduler cell.

This module makes the factor compute-once, share-everywhere:

* a thread-safe, process-wide memo keyed by ``(grid, phi, jitter)``;
* an optional pluggable *store* (installed via :func:`set_store`, backed
  by ``repro.exps.cache.FactorStore``) so cold processes load a
  content-addressed on-disk artifact in milliseconds instead of
  re-factorising;
* paired obs counters ``variation.factor.hits`` / ``.misses`` and a
  ``variation.cholesky_seconds`` counter (plus a ``variation.cholesky``
  span) so campaigns can see exactly how often the expensive path ran.

The memo deliberately lives here, below :mod:`repro.exps`, and knows
nothing about the cache implementation — the store is an injected object
with ``load(key_data)`` / ``save(key_data, factor)`` — which keeps the
dependency arrow pointing from the engine down into the physics layer.

Cached factors are returned with ``writeable=False`` so one consumer
cannot corrupt every other consumer's view.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from .. import obs
from .correlation import correlated_normal_factor
from .grid import DieGrid

DEFAULT_JITTER = 1e-9

FactorKey = Tuple[int, int, float, float, float, float]


class FactorStoreProtocol(Protocol):
    """Durable factor storage, pluggable via :func:`set_store`."""

    def load(self, key_data: FactorKey) -> Optional[np.ndarray]:
        """Return the stored factor for ``key_data``, or ``None``."""

    def save(self, key_data: FactorKey, factor: np.ndarray) -> None:
        """Persist ``factor`` under ``key_data``."""


_lock = threading.Lock()
_memo: Dict[FactorKey, np.ndarray] = {}
_store: Optional[FactorStoreProtocol] = None


def factor_key_data(
    grid: DieGrid, phi: float, jitter: float = DEFAULT_JITTER
) -> FactorKey:
    """Return the memo/store key for a factor.

    The key captures everything the factor depends on: the grid geometry
    (``nx``/``ny``/``width``/``height`` fully determine the cell-centre
    coordinates) plus ``phi`` and ``jitter``.
    """
    return (
        grid.nx,
        grid.ny,
        float(grid.width),
        float(grid.height),
        float(phi),
        float(jitter),
    )


def set_store(store: Optional[FactorStoreProtocol]) -> None:
    """Install (or clear, with ``None``) the durable factor store."""
    global _store
    with _lock:
        _store = store


def get_store() -> Optional[FactorStoreProtocol]:
    """Return the currently installed factor store, if any."""
    return _store


def clear_factor_memo() -> None:
    """Drop every memoised factor (the durable store is untouched)."""
    with _lock:
        _memo.clear()


def memo_size() -> int:
    """Return the number of factors currently held in the memo."""
    return len(_memo)


def get_factor(
    grid: DieGrid, phi: float, jitter: float = DEFAULT_JITTER
) -> np.ndarray:
    """Return the (read-only) correlation factor for ``(grid, phi, jitter)``.

    Resolution order: process memo, then the installed store (a store hit
    also populates the memo), then a fresh Cholesky factorisation — which
    is written back to both.  Counters follow the repo's paired-counter
    idiom: every call touches both ``variation.factor.hits`` and
    ``.misses`` so serial and parallel runs stay structurally comparable.
    """
    key = factor_key_data(grid, phi, jitter)
    factor = _memo.get(key)
    if factor is not None:
        obs.inc("variation.factor.hits")
        obs.inc("variation.factor.misses", 0)
        return factor
    with _lock:
        factor = _memo.get(key)
        if factor is not None:
            obs.inc("variation.factor.hits")
            obs.inc("variation.factor.misses", 0)
            return factor
        obs.inc("variation.factor.hits", 0)
        obs.inc("variation.factor.misses")
        factor = _load_from_store(key)
        if factor is None:
            started = time.perf_counter()
            with obs.span("variation.cholesky"):
                factor = correlated_normal_factor(
                    grid.cell_centers(), phi, jitter=jitter
                )
            obs.inc(
                "variation.cholesky_seconds", time.perf_counter() - started
            )
            _save_to_store(key, factor)
        factor = np.ascontiguousarray(factor, dtype=float)
        factor.setflags(write=False)
        _memo[key] = factor
        return factor


def _load_from_store(key: FactorKey) -> Optional[np.ndarray]:
    if _store is None:
        return None
    try:
        return _store.load(key)
    except Exception:  # pragma: no cover - defensive: store I/O only
        return None


def _save_to_store(key: FactorKey, factor: np.ndarray) -> None:
    if _store is None:
        return
    try:
        _store.save(key, factor)
    except Exception:  # pragma: no cover - defensive: store I/O only
        pass
