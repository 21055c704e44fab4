"""Within-die process-variation model (VARIUS-style, paper Section 2.1)."""

from .correlation import correlated_normal_factor, correlation_matrix
from .factors import (
    DEFAULT_JITTER,
    clear_factor_memo,
    factor_key_data,
    get_factor,
    get_store,
    memo_size,
    set_store,
)
from .grid import DieGrid
from .maps import (
    DEFAULT_VARIATION_PARAMS,
    ChipSample,
    VariationParams,
)
from .population import VariationModel

__all__ = [
    "ChipSample",
    "DEFAULT_JITTER",
    "DEFAULT_VARIATION_PARAMS",
    "DieGrid",
    "VariationModel",
    "VariationParams",
    "clear_factor_memo",
    "correlated_normal_factor",
    "correlation_matrix",
    "factor_key_data",
    "get_factor",
    "get_store",
    "memo_size",
    "set_store",
]
