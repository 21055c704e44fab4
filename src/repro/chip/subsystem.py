"""Subsystem descriptors (paper Figure 7(b)).

A *subsystem* is the unit of sensing and actuation in EVAL: it has its own
ASV/ABB domain, its own thermal node, its own PE-vs-f curve, and its own
set of manufacturer-measured constants (``Rth``, ``Kdyn``, ``Ksta``,
``Vt0`` — Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Subsystem categories (determine the shape of the PE-vs-f curve).
MEMORY = "memory"
MIXED = "mixed"
LOGIC = "logic"
VALID_KINDS = (MEMORY, MIXED, LOGIC)

#: Domains a subsystem belongs to (used to pick which issue queue / FU the
#: micro-architectural techniques act on, per application type).
INT_DOMAIN = "int"
FP_DOMAIN = "fp"
SHARED_DOMAIN = "shared"


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in core-relative coordinates ([0,1]^2)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x0 < self.x1 <= 1.0 and 0.0 <= self.y0 < self.y1 <= 1.0):
            raise ValueError(f"invalid rectangle {self}")


@dataclass(frozen=True)
class SubsystemSpec:
    """Static description of one of the 15 per-core subsystems.

    Attributes:
        name: Subsystem name as in Figure 7(b) (e.g. ``"IntALU"``).
        kind: One of ``memory`` / ``mixed`` / ``logic``.
        rect: Footprint within the core, in core-relative coordinates.
        area_frac: Fraction of processor area (drives ``Rth`` and leakage).
        pdyn_budget: Dynamic power (W) at nominal f/Vdd and reference
            activity — the Wattch/CACTI-style extraction the paper uses.
        alpha_ref: Reference activity factor (accesses per cycle) at which
            ``pdyn_budget`` is quoted.
        rho_ref: Reference exercises-per-instruction (Eq 4's ``rho_i``).
        domain: ``int`` / ``fp`` / ``shared`` — which application type
            stresses this subsystem.
        resizable: True for the issue queues (Shift technique).
        replicable: True for the FUs that get a low-slope replica (Tilt).
        criticality: How close the stage sits to the cycle-time wall in
            the no-variation design (1.0 = defines the clock; < 1.0 = has
            that much slack).  Real designs' tightest loops are the
            scheduler (issue queues) and execute stages; other stages
            retain a few percent of slack.
        rth_factor: Multiplier on the area-derived thermal resistance.
            Dense CAM structures (issue queues) cool worse than their
            footprint suggests; datapath blocks sitting next to large
            spreading regions cool better.
    """

    name: str
    kind: str
    rect: Rect
    area_frac: float
    pdyn_budget: float
    alpha_ref: float
    rho_ref: float
    domain: str = SHARED_DOMAIN
    resizable: bool = False
    replicable: bool = False
    criticality: float = 1.0
    rth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if self.domain not in (INT_DOMAIN, FP_DOMAIN, SHARED_DOMAIN):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.area_frac <= 0.0 or self.area_frac >= 1.0:
            raise ValueError("area_frac must be in (0, 1)")
        if self.pdyn_budget <= 0.0:
            raise ValueError("pdyn_budget must be positive")
        if self.alpha_ref <= 0.0:
            raise ValueError("alpha_ref must be positive")
        if self.rho_ref < 0.0:
            raise ValueError("rho_ref cannot be negative")
        if not 0.0 < self.criticality <= 1.0:
            raise ValueError("criticality must be in (0, 1]")
        if self.rth_factor <= 0.0:
            raise ValueError("rth_factor must be positive")
