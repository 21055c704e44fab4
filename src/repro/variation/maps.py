"""Per-chip variation maps: systematic ``Vt`` / ``Leff`` surfaces.

Following VARIUS [26] and the paper's Section 2.1 / Figure 7(a):

* ``Vt``'s mean is 150 mV (quoted at 100 C); total ``sigma/mu`` is 0.09,
  split equally between systematic and random components, so
  ``sigma_sys/mu = sigma_ran/mu = sqrt(0.09^2 / 2) = 0.064``.
* ``Leff`` uses the same correlation range ``phi`` and half of ``Vt``'s
  relative sigma: ``sigma/mu = 0.045``, again split equally.
* The systematic component lives on a die grid, sampled from a
  multivariate normal whose correlation decays to zero at range
  ``phi = 0.5`` (die-width units).
* The random component acts at individual-transistor granularity and is
  handled *analytically* downstream (see :mod:`repro.timing.paths`), not
  spatially.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import DieGrid


@dataclass(frozen=True)
class VariationParams:
    """Statistical parameters of the process-variation model.

    Defaults reproduce Figure 7(a).  ``vt_mean`` is quoted at the reference
    temperature of :class:`repro.circuits.VtSensitivities` (100 C).
    ``Leff`` values are relative to nominal (mean 1.0).
    """

    vt_mean: float = 0.150  # volts at the Vt reference temperature
    vt_sigma_rel: float = 0.09  # total sigma/mu for Vt
    leff_sigma_rel: float = 0.045  # total sigma/mu for Leff (0.5 x Vt's)
    systematic_fraction: float = 0.5  # fraction of variance that is systematic
    phi: float = 0.5  # correlation range, die-width units
    #: Die-to-die component: a single normal offset per chip, added on top
    #: of the within-die systematic surface.  The paper studies WID
    #: variation (d2d = 0); VARIUS supports both, and the sensitivity
    #: experiments use this knob.
    d2d_sigma_rel: float = 0.0
    # Correlation between the Vt and Leff systematic surfaces.  VARIUS
    # generates them with separate sigmas but notes they share lithographic
    # causes; 0 keeps them independent, which is the paper's usage.
    vt_leff_correlation: float = 0.0

    def __post_init__(self) -> None:
        if self.vt_mean <= 0.0:
            raise ValueError("vt_mean must be positive")
        if not 0.0 <= self.systematic_fraction <= 1.0:
            raise ValueError("systematic_fraction must be in [0, 1]")
        if self.vt_sigma_rel < 0.0 or self.leff_sigma_rel < 0.0:
            raise ValueError("sigma/mu values cannot be negative")
        if self.phi <= 0.0:
            raise ValueError("phi must be positive")
        if not -1.0 <= self.vt_leff_correlation <= 1.0:
            raise ValueError("vt_leff_correlation must be in [-1, 1]")
        if self.d2d_sigma_rel < 0.0:
            raise ValueError("d2d_sigma_rel cannot be negative")

    @property
    def vt_sigma_sys(self) -> float:
        """Systematic sigma of ``Vt`` in volts."""
        return self.vt_mean * self.vt_sigma_rel * np.sqrt(self.systematic_fraction)

    @property
    def vt_sigma_ran(self) -> float:
        """Random (per-transistor) sigma of ``Vt`` in volts."""
        return self.vt_mean * self.vt_sigma_rel * np.sqrt(
            1.0 - self.systematic_fraction
        )

    @property
    def leff_sigma_sys(self) -> float:
        """Systematic sigma of relative ``Leff`` (dimensionless)."""
        return self.leff_sigma_rel * np.sqrt(self.systematic_fraction)

    @property
    def leff_sigma_ran(self) -> float:
        """Random sigma of relative ``Leff`` (dimensionless)."""
        return self.leff_sigma_rel * np.sqrt(1.0 - self.systematic_fraction)


DEFAULT_VARIATION_PARAMS = VariationParams()


@dataclass(frozen=True)
class ChipSample:
    """One manufactured chip: systematic variation surfaces on a die grid.

    Attributes:
        grid: The die grid the surfaces are sampled on.
        params: The statistical parameters used to generate the sample.
        vt_sys: Flat array (length ``grid.cell_count``) of systematic
            ``Vt`` offsets in volts (zero-mean across the process).
        leff_sys: Flat array of systematic relative-``Leff`` offsets
            (zero-mean; cell Leff is ``1 + leff_sys``).
        chip_id: Index of the chip within its population (for reporting).
    """

    grid: DieGrid
    params: VariationParams
    vt_sys: np.ndarray = field(repr=False)
    leff_sys: np.ndarray = field(repr=False)
    chip_id: int = 0

    def __post_init__(self) -> None:
        expected = self.grid.cell_count
        if self.vt_sys.shape != (expected,) or self.leff_sys.shape != (expected,):
            raise ValueError(
                "variation surfaces must be flat arrays of length "
                f"{expected}; got {self.vt_sys.shape} and {self.leff_sys.shape}"
            )
        if np.any(1.0 + self.leff_sys <= 0.0):
            raise ValueError("sampled Leff must remain positive")
