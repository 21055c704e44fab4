"""Swappable array backend for the population-tier kernels.

Every tensor kernel in the repo — the lane-stacked optimizer, the
thermal fixed point and the lane-masked retuner — routes its array math
through one :class:`ArrayBackend`.  The only registered backend is numpy
(plus the two scipy normal-CDF primitives the timing model needs); the
shim is written ``xp``-style, so another array namespace is one
:func:`register_backend` call away.

Selection is lazy and environment-driven::

    EVAL_REPRO_BACKEND=numpy  python -m repro ...   # explicit default
    set_backend("numpy")                            # programmatic

An unknown name raises ``ValueError`` listing the registered backends.

Besides the ``xp`` namespace, a backend resolves named *fused kernels*
(:meth:`ArrayBackend.kernel`) for the hot physics chains — see
:mod:`repro.kernels` for the registry, the implementation tiers
(reference / hand-fused numpy) and the bit-identity contract.
:func:`reset_backend` also resets the kernel selection, so the pair of
``EVAL_REPRO_BACKEND`` / ``EVAL_REPRO_KERNELS`` is re-read together.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

_ENV_VAR = "EVAL_REPRO_BACKEND"
_DEFAULT = "numpy"


@dataclass(frozen=True)
class ArrayBackend:
    """One array namespace plus the special functions the physics needs.

    ``xp`` is the numpy-compatible module; ``ndtr``/``ndtri`` are the
    standard normal CDF and its inverse, which live outside the array
    API proper and therefore ride explicitly.
    """

    name: str
    xp: Any
    ndtr: Callable[..., Any]
    ndtri: Callable[..., Any]
    meta: Dict[str, Any] = field(default_factory=dict)

    def asarray(self, value: Any, **kwargs: Any) -> Any:
        return self.xp.asarray(value, **kwargs)

    def kernel(self, name: str) -> Callable[..., Any]:
        """Resolve the named fused physics kernel for this backend.

        Resolution honours ``EVAL_REPRO_KERNELS`` (or a
        :func:`repro.kernels.use_impl` override) and returns an
        instrumented callable that records ``kernel.<name>.calls`` /
        ``kernel.<name>.ns``.  Unknown names raise ``ValueError``
        listing the registered kernels.
        """
        from . import kernels

        return kernels.resolve(name, backend=self.name)


_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_ACTIVE: Optional[ArrayBackend] = None


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a lazily-constructed backend under ``name``.

    The factory runs at first :func:`get_backend` resolution, so a
    backend whose package is missing costs nothing until selected.
    """
    _FACTORIES[name.lower()] = factory


def available_backends() -> tuple:
    """Names accepted by :func:`set_backend` / ``EVAL_REPRO_BACKEND``."""
    return tuple(sorted(_FACTORIES))


def _build_numpy() -> ArrayBackend:
    import numpy
    from scipy.special import ndtr, ndtri

    return ArrayBackend(name="numpy", xp=numpy, ndtr=ndtr, ndtri=ndtri)


register_backend("numpy", _build_numpy)


def set_backend(name: str) -> ArrayBackend:
    """Select the active backend by name (raises on unknown names)."""
    global _ACTIVE
    key = name.lower()
    if key not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    _ACTIVE = _FACTORIES[key]()
    return _ACTIVE


def get_backend() -> ArrayBackend:
    """The active backend, resolving ``EVAL_REPRO_BACKEND`` on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = set_backend(os.environ.get(_ENV_VAR, _DEFAULT))
    return _ACTIVE


def reset_backend() -> None:
    """Forget the active backend so the next call re-reads the env.

    Also resets the fused-kernel selection (``EVAL_REPRO_KERNELS``) so
    both environment knobs are re-read together.
    """
    global _ACTIVE
    _ACTIVE = None
    kernels = sys.modules.get(__package__ + ".kernels")
    if kernels is not None:
        kernels.reset()
