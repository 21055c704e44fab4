"""``repro.workloads`` — where workload profiles come from.

The microarchitectural stack consumes :class:`~repro.microarch.
workloads.WorkloadProfile` objects; until now the only source was the
hand-written SPEC-2000-like suite.  This package adds two more fronts,
both emitting the same validated, content-hashed profile type so every
downstream layer (runner, cache, service, DSE) works unchanged:

* **Ingestion** (:mod:`.ingest`) — parse real instruction traces
  (JSONL/CSV, or any format via :func:`register_trace_adapter`) and
  measure a profile out of them: instruction mix, dependency distances,
  miss rates, and Sherwood-style BBV phase structure.
* **Generation** (:mod:`.families`) — seeded parameterized families
  (:class:`WorkloadFamily`) emitting deterministic datacenter-style
  populations: ``bursty``, ``phase-heavy``, ``memory-bound``.

CLI: ``python -m repro.workloads ingest|generate``.
"""

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
    "Range",
    "TraceRecord",
    "WorkloadFamily",
    "canonical_family_ref",
    "family_by_name",
    "family_names",
    "generate_family_ref",
    "ingest_trace",
    "iter_trace",
    "load_profiles",
    "parse_family_ref",
    "read_csv_trace",
    "read_jsonl_trace",
    "register_trace_adapter",
    "save_profiles",
    "trace_adapters",
    "trace_records",
    "write_jsonl_trace",
]
