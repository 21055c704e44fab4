"""Shared special functions, routed through the array-backend shim.

The Gaussian inverse survival function ``Qinv(p) = ndtri(1 - p)`` appears
in three places — the timing-error model (:mod:`repro.timing.errors`),
the optimiser's error-budget inversion (:mod:`repro.core.optimizer`) and
the fuzzy bank's demand feature (:mod:`repro.ml.bank`) — and the forward
survival function ``Q(z)`` sits in the innermost loop of the error-rate
evaluation.  Defining them once here, on top of
:func:`repro.backend.get_backend`, keeps the SciPy dependency surface
small and makes swapping the array backend a no-op for every
caller: they keep importing ``ndtri``/``norm_sf`` from this module.
"""

from __future__ import annotations

from .backend import get_backend

__all__ = ["ndtri", "norm_sf"]


def ndtri(q):
    """Inverse standard normal CDF via the active array backend."""
    return get_backend().ndtri(q)


def norm_sf(z):
    """Standard normal survival function ``Q(z) = P(X > z)``.

    Bit-identical to ``scipy.stats.norm.sf`` — which bottoms out in the
    same Cephes ``ndtr`` (an erf/erfc evaluation, switching to the
    complementary branch for large ``|x|``) via ``sf(z) = ndtr(-z)`` —
    but without the distribution layer's argument-munging overhead, which
    dominates for the small arrays the optimiser sweeps (about an order
    of magnitude per call at the sizes ``stage_error_rates`` sees).
    """
    backend = get_backend()
    return backend.ndtr(backend.xp.negative(z))
