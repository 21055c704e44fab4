"""``repro.workloads`` — where workload profiles come from.

The microarchitectural stack consumes :class:`~repro.microarch.
workloads.WorkloadProfile` objects; until now the only source was the
hand-written SPEC-2000-like suite.  This package adds three more fronts,
all emitting the same validated, content-hashed profile type so every
downstream layer (runner, cache, service, DSE) works unchanged:

* **Ingestion** (:mod:`.ingest`) — parse real instruction traces
  (JSONL/CSV, or any format via :func:`register_trace_adapter`) and
  measure a profile out of them: instruction mix, dependency distances,
  miss rates, and Sherwood-style BBV phase structure.
* **Generation** (:mod:`.families`) — seeded parameterized families
  (:class:`WorkloadFamily`) emitting deterministic datacenter-style
  populations: ``bursty``, ``phase-heavy``, ``memory-bound``.
* **Adversarial search** (:mod:`.evolve`) — a genetic loop that evolves
  profiles against an objective (error fraction, power, perf loss),
  using the campaign service as its fitness oracle so the
  content-addressed cache dedupes repeated evaluations.

CLI: ``python -m repro.workloads ingest|generate|evolve``.
"""

from .evolve import (
    OBJECTIVES,
    EvolutionResult,
    EvolveConfig,
    crossover_profiles,
    evolve,
    mutate_profile,
)
from .families import (
    DEFAULT_SEED,
    DEFAULT_SIZE,
    Range,
    WorkloadFamily,
    canonical_family_ref,
    family_by_name,
    family_names,
    generate_family_ref,
    parse_family_ref,
    register_family,
)
from .ingest import (
    DEFAULT_WINDOW,
    TraceRecord,
    ingest_trace,
    iter_trace,
    load_profiles,
    read_csv_trace,
    read_jsonl_trace,
    register_trace_adapter,
    save_profiles,
    trace_adapters,
    trace_records,
    write_jsonl_trace,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_SIZE",
    "DEFAULT_WINDOW",
    "EvolutionResult",
    "EvolveConfig",
    "OBJECTIVES",
    "Range",
    "TraceRecord",
    "WorkloadFamily",
    "canonical_family_ref",
    "crossover_profiles",
    "evolve",
    "family_by_name",
    "family_names",
    "generate_family_ref",
    "ingest_trace",
    "iter_trace",
    "load_profiles",
    "mutate_profile",
    "parse_family_ref",
    "read_csv_trace",
    "read_jsonl_trace",
    "register_family",
    "register_trace_adapter",
    "save_profiles",
    "trace_adapters",
    "trace_records",
    "write_jsonl_trace",
]
