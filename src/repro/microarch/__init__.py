"""Micro-architecture substrate: OoO core model, workloads, phases."""

from .activity import accesses_per_instruction, activity_factors, rho_vector
from .isa import BASE_LATENCY, Uop
from .phases import (
    COUNTER_MAX,
    N_BUCKETS,
    DetectedPhase,
    PhaseDetector,
)
from .pipeline import DEFAULT_CORE_CONFIG, CoreConfig, SimResult
from .simulator import (
    WorkloadMeasurement,
    clear_measurement_cache,
    measure_workload,
)
from .trace import SyntheticTrace, generate_trace
from .workloads import FP, INT, PhaseSpec, WorkloadProfile, by_name, spec2000_like_suite

__all__ = [
    "BASE_LATENCY",
    "COUNTER_MAX",
    "CoreConfig",
    "DEFAULT_CORE_CONFIG",
    "DetectedPhase",
    "FP",
    "INT",
    "N_BUCKETS",
    "PhaseDetector",
    "PhaseSpec",
    "SimResult",
    "SyntheticTrace",
    "Uop",
    "WorkloadMeasurement",
    "WorkloadProfile",
    "accesses_per_instruction",
    "activity_factors",
    "by_name",
    "clear_measurement_cache",
    "generate_trace",
    "measure_workload",
    "rho_vector",
    "spec2000_like_suite",
]
