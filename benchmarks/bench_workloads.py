"""Perf smoke: the workload subsystem's hot path.

Ingestion throughput: instructions/second through the streaming JSONL
reader + windowed phase detector (the cost of turning a real trace into
a profile), with a determinism check: ingesting the same trace twice
yields the same content hash.

Results land in ``BENCH_workloads.json``
(``$EVAL_REPRO_BENCH_WORKLOADS_OUT``) for CI to upload next to
``BENCH_phase.json`` and ``BENCH_variation.json``.
"""

from __future__ import annotations

import json
import os

from repro import __version__
from repro.microarch.trace import generate_trace
from repro.microarch.workloads import spec2000_like_suite
from repro.workloads import ingest_trace, trace_records, write_jsonl_trace

N_INSTRUCTIONS = int(os.environ.get("EVAL_REPRO_BENCH_TRACE", "60000"))


def _write_baseline(sections) -> str:
    path = os.environ.get(
        "EVAL_REPRO_BENCH_WORKLOADS_OUT", "BENCH_workloads.json"
    )
    payload = {
        "version": __version__,
        "trace_instructions": N_INSTRUCTIONS,
        "sections": sections,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_workloads_front_end(benchmark, tmp_path):
    sections = {}

    # -- ingestion throughput -------------------------------------------
    source = spec2000_like_suite()[0]
    trace_path = tmp_path / "bench.jsonl"
    write_jsonl_trace(
        trace_records(generate_trace(source, N_INSTRUCTIONS, seed=7)),
        str(trace_path),
    )
    profile = benchmark.pedantic(
        lambda: ingest_trace(str(trace_path), name="bench"),
        rounds=1,
        iterations=1,
    )
    ingest_s = max(benchmark.stats.stats.min, 1e-9)
    again = ingest_trace(str(trace_path), name="bench")
    assert again.content_hash() == profile.content_hash()  # deterministic
    throughput = N_INSTRUCTIONS / ingest_s
    sections["ingestion"] = {
        "instructions": N_INSTRUCTIONS,
        "seconds": ingest_s,
        "instructions_per_second": throughput,
    }
    print(
        f"\ningest ({N_INSTRUCTIONS} instr): {ingest_s:.3f}s "
        f"-> {throughput / 1e3:.0f}k instr/s"
    )

    path = _write_baseline(sections)
    print(f"workloads baseline written to {path}")
