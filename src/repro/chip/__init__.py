"""Chip model: floorplan, subsystems, per-core parameters (Figure 7)."""

from .chip import CORE_QUADRANTS, Core, build_core, build_novar_core
from .floorplan import Floorplan, L2Spec, default_floorplan
from .subsystem import (
    FP_DOMAIN,
    INT_DOMAIN,
    LOGIC,
    MEMORY,
    MIXED,
    SHARED_DOMAIN,
    Rect,
    SubsystemSpec,
)

__all__ = [
    "CORE_QUADRANTS",
    "Core",
    "FP_DOMAIN",
    "Floorplan",
    "INT_DOMAIN",
    "L2Spec",
    "LOGIC",
    "MEMORY",
    "MIXED",
    "Rect",
    "SHARED_DOMAIN",
    "SubsystemSpec",
    "build_core",
    "build_novar_core",
    "default_floorplan",
]
