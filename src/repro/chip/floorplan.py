"""The per-core floorplan of Figure 7(b): 15 subsystems + power-only L2.

The modelled chip is a 4-core CMP; each core occupies one quadrant of the
die, and the 15-subsystem floorplan below is scaled into that quadrant when
sampling the variation maps (see :mod:`repro.chip.chip`).

Area fractions follow the paper where published (IntALU 0.55% of processor
area, FP adder+multiplier 1.90% — Figure 7(a)); the rest are Athlon-64-like
estimates.  Dynamic-power budgets are normalised at build time so the core
totals match :class:`repro.calibration.Calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .subsystem import (
    FP_DOMAIN,
    INT_DOMAIN,
    LOGIC,
    MEMORY,
    MIXED,
    Rect,
    SubsystemSpec,
)


def _specs() -> List[SubsystemSpec]:
    """Build the 15 subsystem specs of Figure 7(b)."""
    return [
        SubsystemSpec(
            "Icache", MEMORY, Rect(0.00, 0.75, 0.45, 1.00), 0.110, 1.8, 0.60, 1.05,
            criticality=0.89,
        ),
        SubsystemSpec(
            "ITLB", MEMORY, Rect(0.45, 0.85, 0.55, 1.00), 0.015, 0.25, 0.60, 1.05,
            criticality=0.88,
        ),
        SubsystemSpec(
            "BranchPred", MIXED, Rect(0.55, 0.80, 0.75, 1.00), 0.040, 0.9, 0.24, 0.8,
            criticality=0.89,
        ),
        SubsystemSpec(
            "Decode", LOGIC, Rect(0.75, 0.75, 1.00, 1.00), 0.050, 1.6, 0.60, 1.0,
            criticality=0.88,
        ),
        SubsystemSpec(
            "IntMap",
            MEMORY,
            Rect(0.00, 0.55, 0.15, 0.75),
            0.025,
            0.9,
            0.60,
            0.9,
            domain=INT_DOMAIN,
            criticality=0.89,
        ),
        SubsystemSpec(
            "IntQ",
            MIXED,
            Rect(0.15, 0.55, 0.35, 0.75),
            0.022,
            1.8,
            0.55,
            1.0,
            domain=INT_DOMAIN,
            resizable=True,
            rth_factor=1.55,
        ),
        SubsystemSpec(
            "IntReg",
            MEMORY,
            Rect(0.35, 0.55, 0.50, 0.75),
            0.030,
            1.2,
            0.85,
            1.3,
            domain=INT_DOMAIN,
            criticality=0.90,
        ),
        SubsystemSpec(
            "IntALU",
            LOGIC,
            Rect(0.50, 0.58, 0.60, 0.72),
            0.0055,  # paper Figure 7(a): 0.55% of processor area
            0.9,
            0.45,
            1.1,
            domain=INT_DOMAIN,
            replicable=True,
            rth_factor=0.55,
        ),
        SubsystemSpec(
            "FPMap",
            MEMORY,
            Rect(0.60, 0.55, 0.72, 0.75),
            0.020,
            0.5,
            0.18,
            0.3,
            domain=FP_DOMAIN,
            criticality=0.89,
        ),
        SubsystemSpec(
            "FPQ",
            MEMORY,
            Rect(0.72, 0.55, 0.85, 0.75),
            0.018,
            1.0,
            0.18,
            0.35,
            domain=FP_DOMAIN,
            resizable=True,
            rth_factor=1.55,
        ),
        SubsystemSpec(
            "FPReg",
            MEMORY,
            Rect(0.85, 0.55, 1.00, 0.75),
            0.025,
            0.8,
            0.33,
            0.45,
            domain=FP_DOMAIN,
            criticality=0.90,
        ),
        SubsystemSpec(
            "FPUnit",
            LOGIC,
            Rect(0.60, 0.35, 0.80, 0.55),
            0.019,  # paper Figure 7(a): 1 FPadd + 1 FPmult = 1.90%
            1.2,
            0.18,
            0.35,
            domain=FP_DOMAIN,
            replicable=True,
            rth_factor=0.70,
        ),
        SubsystemSpec(
            "LdStQ", MIXED, Rect(0.00, 0.35, 0.20, 0.55), 0.035, 1.1, 0.21, 0.45,
            criticality=0.90,
        ),
        SubsystemSpec(
            "DTLB", MEMORY, Rect(0.20, 0.35, 0.35, 0.55), 0.015, 0.35, 0.21, 0.45,
            criticality=0.88,
        ),
        SubsystemSpec(
            "Dcache", MEMORY, Rect(0.00, 0.00, 0.45, 0.35), 0.110, 2.0, 0.22, 0.5,
            criticality=0.89,
        ),
    ]


@dataclass(frozen=True)
class L2Spec:
    """The private per-core L2: included in power (Fig 12), not in timing.

    The paper's 15 adapted subsystems exclude the L2; it contributes to the
    core power budget (core + L1 + L2) and nothing else.
    """

    pdyn_budget: float = 1.0  # W at nominal f/Vdd, typical miss traffic
    psta_budget: float = 2.0  # W at t_design: 1 MB SRAM leaks heavily
    area_frac: float = 0.35


@dataclass(frozen=True)
class Floorplan:
    """A core floorplan: ordered subsystem specs plus the L2 descriptor."""

    subsystems: Tuple[SubsystemSpec, ...]
    l2: L2Spec = L2Spec()

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.subsystems]
        if len(set(names)) != len(names):
            raise ValueError("subsystem names must be unique")

    def __len__(self) -> int:
        return len(self.subsystems)

    @property
    def names(self) -> List[str]:
        """Subsystem names, in canonical order."""
        return [spec.name for spec in self.subsystems]

    def index_of(self, name: str) -> int:
        """Return the canonical index of subsystem ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no subsystem named {name!r}") from None

    def by_name(self, name: str) -> SubsystemSpec:
        """Return the spec of subsystem ``name``."""
        return self.subsystems[self.index_of(name)]


def default_floorplan() -> Floorplan:
    """Return the Figure 7(b) floorplan (15 subsystems + L2)."""
    return Floorplan(subsystems=tuple(_specs()))
