"""Error-mitigation techniques of paper Section 3.3: tilt (FU replication),
shift (queue resizing), retiming, and their area cost."""

from .area import (
    ABB_AREA_FRACTION,
    PHASE_DETECTOR_AREA_FRACTION,
    SENSOR_AREA_FRACTION,
    AreaBudget,
    area_budget,
)
from .base import (
    BASE,
    FU_LOWSLOPE,
    FU_NORMAL,
    QUEUE_FULL,
    QUEUE_RESIZED,
    TechniqueState,
)
from .fu_replication import ReplicaDecision, choose_fu_implementation
from .queue_resize import QueueDecision, choose_queue_size
from .retiming import DEFAULT_LOOPS, RetimingResult, retime

__all__ = [
    "ABB_AREA_FRACTION",
    "BASE",
    "FU_LOWSLOPE",
    "FU_NORMAL",
    "QUEUE_FULL",
    "QUEUE_RESIZED",
    "AreaBudget",
    "PHASE_DETECTOR_AREA_FRACTION",
    "QueueDecision",
    "ReplicaDecision",
    "RetimingResult",
    "DEFAULT_LOOPS",
    "SENSOR_AREA_FRACTION",
    "TechniqueState",
    "area_budget",
    "choose_fu_implementation",
    "choose_queue_size",
    "retime",
]
