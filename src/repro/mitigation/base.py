"""Micro-architectural technique state and its effect on the stage model.

The two techniques of Sections 3.3.1-3.3.2 each have two configurations
per domain (int / fp):

* FU replication: *normal* (power-efficient) or *low-slope* (tilted PE
  curve, +30% power on that FU).
* Issue-queue size: *full* or *3/4* (shifted PE curve, slightly worse
  CPI).

:class:`TechniqueState` captures one concrete choice; it translates into
(a) :class:`~repro.timing.paths.StageModifiers` for the timing model,
(b) a per-subsystem power multiplier, and (c) the
:class:`~repro.microarch.pipeline.CoreConfig` the pipeline model should
use to measure CPI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..calibration import Calibration
from ..chip.chip import Core
from ..chip.subsystem import FP_DOMAIN, INT_DOMAIN
from ..microarch.pipeline import CoreConfig
from ..timing.paths import StageModifiers

#: Configuration-variant names shared by the technique state and the
#: fuzzy-controller banks (one trained FC per variant).
BASE = "base"
QUEUE_FULL = "full"
QUEUE_RESIZED = "resized"
FU_NORMAL = "normal"
FU_LOWSLOPE = "lowslope"


@dataclass(frozen=True)
class TechniqueState:
    """One concrete configuration of the two micro-arch techniques.

    ``None`` semantics do not exist here: a core *without* the FU
    replication hardware is expressed by ``lowslope_available=False`` on
    the owning environment, which always passes ``lowslope=False``.
    """

    queue_full: bool = True  # False = 3/4-capacity issue queue
    lowslope: bool = False  # True = low-slope FU replica enabled
    domain: str = INT_DOMAIN  # which cluster the techniques act on

    def __post_init__(self) -> None:
        if self.domain not in (INT_DOMAIN, FP_DOMAIN):
            raise ValueError("domain must be 'int' or 'fp'")

    @property
    def queue_name(self) -> str:
        """Name of the issue-queue subsystem this state resizes."""
        return "IntQ" if self.domain == INT_DOMAIN else "FPQ"

    @property
    def fu_name(self) -> str:
        """Name of the FU subsystem this state replicates."""
        return "IntALU" if self.domain == INT_DOMAIN else "FPUnit"

    def stage_modifiers(self, core: Core) -> StageModifiers:
        """Build the timing-model modifiers for this technique state."""
        calib: Calibration = core.calib
        n = core.n_subsystems
        delay_scale = np.ones(n)
        sigma_scale = np.ones(n)
        if not self.queue_full:
            delay_scale[core.floorplan.index_of(self.queue_name)] = (
                calib.queue_resize_delay_factor
            )
        if self.lowslope:
            sigma_scale[core.floorplan.index_of(self.fu_name)] = (
                calib.lowslope_sigma_factor
            )
        return StageModifiers(delay_scale=delay_scale, sigma_scale=sigma_scale)

    def power_factors(self, core: Core) -> np.ndarray:
        """Per-subsystem power multipliers.

        The low-slope FU burns +30%; a 3/4-sized issue queue saves the
        disabled quarter's switching and leakage.
        """
        factors = np.ones(core.n_subsystems)
        if self.lowslope:
            factors[core.floorplan.index_of(self.fu_name)] = (
                core.calib.lowslope_power_factor
            )
        if not self.queue_full:
            factors[core.floorplan.index_of(self.queue_name)] = (
                core.calib.queue_resize_power_factor
            )
        return factors

    def core_config(
        self, base: CoreConfig, *, replication_built: bool
    ) -> CoreConfig:
        """Return the pipeline configuration matching this state.

        ``replication_built`` is a property of the *hardware* (not of the
        dynamic choice): once the replica exists, the extra pipeline stage
        of Section 3.3.1 is always present, whichever FU copy is enabled.
        """
        config = base
        if replication_built:
            config = config.with_fu_replication()
        if not self.queue_full:
            config = config.with_resized_queue(self.domain)
        return config
