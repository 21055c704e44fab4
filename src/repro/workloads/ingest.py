"""Trace ingestion: real instruction streams -> :class:`WorkloadProfile`.

The repro cannot ship SPEC traces, but it can *measure* yours.  A trace
is a stream of per-instruction records; the built-in readers parse the
simple JSONL and CSV formats below, and :func:`register_trace_adapter`
hooks any other producer (a SESC/gem5 converter, a Pin tool) into the
same pipeline.  One record::

    {"op": "LOAD", "dep1": 3, "dep2": 0, "branch_miss": false,
     "l1_miss": true, "l2_miss": false, "icache_miss": false, "block": 17}

``op`` is a :class:`~repro.microarch.isa.Uop` name; ``dep1``/``dep2`` are
register-dependence distances in instructions (0 = no source); the miss
flags are the outcomes the synthetic pipeline model pre-draws; ``block``
is an optional basic-block id used for Sherwood-style phase detection
(when absent, the op kind stands in for the block).  The CSV format is
the same fields as a header row.

:func:`ingest_trace` streams the records once, measuring

* the instruction **mix** over :class:`Uop` kinds,
* the mean **dependency distance** (ILP),
* the **miss rates** (branch per branch, L1-D per memory op, L2 per
  L1-D miss, I-cache per instruction), and
* the **phase structure**: fixed instruction windows are summarised as
  32-bucket basic-block vectors and fed to the
  :class:`~repro.microarch.phases.PhaseDetector`; each detected phase
  becomes a :class:`PhaseSpec` whose weight is its share of windows and
  whose scale factors are its per-window rates relative to the global
  means.

The result is a fully validated profile that flows through everything a
suite profile does — :func:`~repro.microarch.trace.generate_trace`, the
runner's content-addressed cache keys, and (inline, via
:func:`~repro.serve.protocol.workloads_to_wire`) the campaign daemon.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import obs
from ..microarch.isa import Uop
from ..microarch.phases import N_BUCKETS, PhaseDetector
from ..microarch.workloads import FP, INT, PhaseSpec, WorkloadProfile

#: Default phase-detection window, instructions.  Sherwood uses 10M on
#: real traces; synthetic/test traces are far shorter, so the default is
#: small enough that a few-thousand-instruction trace still has several
#: windows to cluster.
DEFAULT_WINDOW = 1000

_MEM_KINDS = (Uop.LOAD, Uop.STORE)
_FP_KINDS = (Uop.FP_ADD, Uop.FP_MUL)

_TRUE_STRINGS = frozenset(("1", "true", "yes", "t"))


@dataclass(frozen=True)
class TraceRecord:
    """One dynamic instruction of an ingested trace."""

    op: Uop
    dep1: int = 0
    dep2: int = 0
    branch_miss: bool = False
    l1_miss: bool = False
    l2_miss: bool = False
    icache_miss: bool = False
    block: Optional[int] = None


#: Registered trace adapters: format name -> (path -> record iterator).
_ADAPTERS: Dict[str, Callable[[str], Iterable[Any]]] = {}


def register_trace_adapter(
    name: str, reader: Callable[[str], Iterable[Any]]
) -> None:
    """Register a custom trace reader under ``--format name``.

    ``reader(path)`` may yield :class:`TraceRecord` objects or plain
    record dicts (the JSONL field names); both are accepted everywhere a
    built-in format is.
    """
    if not name or name in ("jsonl", "csv"):
        raise ValueError(f"adapter name {name!r} is reserved or empty")
    _ADAPTERS[name] = reader


def trace_adapters() -> Tuple[str, ...]:
    """The registered adapter names (built-ins excluded)."""
    return tuple(sorted(_ADAPTERS))


def _coerce_record(raw: Union[TraceRecord, Mapping[str, Any]]) -> TraceRecord:
    if isinstance(raw, TraceRecord):
        return raw
    try:
        op = raw["op"]
        kind = op if isinstance(op, Uop) else Uop[str(op)]
    except KeyError as exc:
        raise ValueError(f"trace record has no valid 'op': {raw!r}") from exc
    block = raw.get("block")
    return TraceRecord(
        op=kind,
        dep1=int(raw.get("dep1", 0) or 0),
        dep2=int(raw.get("dep2", 0) or 0),
        branch_miss=_flag(raw.get("branch_miss")),
        l1_miss=_flag(raw.get("l1_miss")),
        l2_miss=_flag(raw.get("l2_miss")),
        icache_miss=_flag(raw.get("icache_miss")),
        block=None if block in (None, "") else int(block),
    )


def _flag(value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in _TRUE_STRINGS
    return bool(value)


# ----------------------------------------------------------------------
# Readers.
# ----------------------------------------------------------------------
def read_jsonl_trace(path: str) -> Iterator[TraceRecord]:
    """Stream a JSON-lines trace file (one record object per line)."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: undecodable trace line: {exc}"
                ) from exc
            yield _coerce_record(doc)


def read_csv_trace(path: str) -> Iterator[TraceRecord]:
    """Stream a CSV trace file (header row names the JSONL fields)."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            yield _coerce_record(row)


def iter_trace(path: str, format: Optional[str] = None) -> Iterator[TraceRecord]:
    """Open a trace by path, dispatching on ``format`` or the extension."""
    if format is None:
        suffix = Path(path).suffix.lower().lstrip(".")
        format = {"jsonl": "jsonl", "ndjson": "jsonl", "csv": "csv"}.get(
            suffix, "jsonl"
        )
    if format == "jsonl":
        return read_jsonl_trace(path)
    if format == "csv":
        return read_csv_trace(path)
    if format in _ADAPTERS:
        return (_coerce_record(raw) for raw in _ADAPTERS[format](path))
    raise ValueError(
        f"unknown trace format {format!r} "
        f"(built-ins: jsonl, csv; adapters: {list(trace_adapters())})"
    )


def trace_records(trace) -> Iterator[TraceRecord]:
    """Adapt a :class:`~repro.microarch.trace.SyntheticTrace` to records.

    Useful for round-trip tests and for writing example trace files; the
    synthetic arrays carry no basic-block ids, so phase detection falls
    back to op-kind vectors.
    """
    for i in range(len(trace)):
        yield TraceRecord(
            op=Uop(int(trace.kinds[i])),
            dep1=int(trace.dep1[i]),
            dep2=int(trace.dep2[i]),
            branch_miss=bool(trace.branch_mispredict[i]),
            l1_miss=bool(trace.l1_miss[i]),
            l2_miss=bool(trace.l2_miss[i]),
            icache_miss=bool(trace.icache_miss[i]),
        )


def write_jsonl_trace(
    records: Iterable[Union[TraceRecord, Mapping[str, Any]]], path: str
) -> int:
    """Write records in the JSONL trace format; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for raw in records:
            record = _coerce_record(raw)
            doc: Dict[str, Any] = {
                "op": record.op.name,
                "dep1": record.dep1,
                "dep2": record.dep2,
                "branch_miss": record.branch_miss,
                "l1_miss": record.l1_miss,
                "l2_miss": record.l2_miss,
                "icache_miss": record.icache_miss,
            }
            if record.block is not None:
                doc["block"] = record.block
            handle.write(json.dumps(doc) + "\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# Streaming measurement.
# ----------------------------------------------------------------------
@dataclass
class _WindowStats:
    """Accumulators for one phase-detection window."""

    n: int = 0
    bbv: np.ndarray = field(
        default_factory=lambda: np.zeros(N_BUCKETS, dtype=np.int64)
    )
    dep_sum: float = 0.0
    dep_count: int = 0
    branches: int = 0
    branch_misses: int = 0
    mem_ops: int = 0
    l1_misses: int = 0
    l2_misses: int = 0

    def quantised_bbv(self) -> np.ndarray:
        total = self.bbv.sum()
        if total <= 0:
            return np.zeros(N_BUCKETS, dtype=np.int64)
        from ..microarch.phases import COUNTER_MAX

        return np.minimum(
            np.round(self.bbv / total * 4.0 * COUNTER_MAX), COUNTER_MAX
        ).astype(np.int64)


def _normalise_fractions(fractions: Dict[Any, float]) -> Dict[Any, float]:
    """Rescale so the values sum to exactly 1.0 within float arithmetic.

    The largest entry absorbs the rounding residual, so the result always
    passes the profile's ``SUM_TOLERANCE`` check bit-for-bit.
    """
    total = sum(fractions.values())
    if total <= 0.0:
        raise ValueError("cannot normalise all-zero fractions")
    scaled = {key: value / total for key, value in fractions.items()}
    residual = 1.0 - sum(scaled.values())
    biggest = max(scaled, key=lambda key: scaled[key])
    scaled[biggest] += residual
    return scaled


def _ratio(numer: float, denom: float, default: float = 0.0) -> float:
    return numer / denom if denom > 0 else default


def ingest_trace(
    source: Union[str, Iterable[Union[TraceRecord, Mapping[str, Any]]]],
    *,
    name: str,
    domain: Optional[str] = None,
    format: Optional[str] = None,
    window: int = DEFAULT_WINDOW,
    phase_threshold: float = 0.25,
    max_phases: int = 8,
) -> WorkloadProfile:
    """Measure a trace into a validated :class:`WorkloadProfile`.

    Args:
        source: A trace file path (dispatched by ``format``/extension)
            or any iterable of records.
        name: The resulting profile's name (part of its content hash).
        domain: ``int``/``fp``; default infers ``fp`` when FP ops are
            more than 10% of the mix.
        format: Reader selection for path sources (``jsonl``, ``csv``,
            or a registered adapter name).
        window: Instructions per phase-detection window.
        phase_threshold: BBV Manhattan-distance threshold for "same
            phase" (the detector's Figure 7(a) default).
        max_phases: Detected phases beyond this are folded into the
            dominant one (profiles stay compact).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    records: Iterable[Any] = (
        iter_trace(source, format=format) if isinstance(source, str) else source
    )

    started = time.perf_counter()
    kind_counts: Dict[Uop, int] = {kind: 0 for kind in Uop}
    dep_sum = 0.0
    dep_count = 0
    branches = branch_misses = 0
    mem_ops = l1_misses = l2_misses = 0
    icache_misses = 0
    total = 0

    windows: List[Tuple[np.ndarray, _WindowStats]] = []
    current = _WindowStats()

    for raw in records:
        record = _coerce_record(raw)
        total += 1
        kind_counts[record.op] += 1
        for distance in (record.dep1, record.dep2):
            if distance > 0:
                dep_sum += distance
                dep_count += 1
                current.dep_sum += distance
                current.dep_count += 1
        if record.op is Uop.BRANCH:
            branches += 1
            current.branches += 1
            if record.branch_miss:
                branch_misses += 1
                current.branch_misses += 1
        if record.op in _MEM_KINDS:
            mem_ops += 1
            current.mem_ops += 1
            if record.l1_miss:
                l1_misses += 1
                current.l1_misses += 1
                if record.l2_miss:
                    l2_misses += 1
                    current.l2_misses += 1
        if record.icache_miss:
            icache_misses += 1
        bucket = (record.block if record.block is not None
                  else int(record.op)) % N_BUCKETS
        current.bbv[bucket] += 1
        current.n += 1
        if current.n >= window:
            windows.append((current.quantised_bbv(), current))
            current = _WindowStats()
    if current.n > 0:
        windows.append((current.quantised_bbv(), current))

    if total == 0:
        raise ValueError(f"trace for {name!r} is empty")

    mix = _normalise_fractions(
        {kind: float(count) for kind, count in kind_counts.items() if count}
    )
    # Kinds absent from the trace stay absent from the mix.
    dep_mean = max(1.0, _ratio(dep_sum, dep_count, default=1.0))
    branch_rate = min(1.0, _ratio(branch_misses, branches))
    l1_rate = min(1.0, _ratio(l1_misses, mem_ops))
    l2_rate = min(1.0, _ratio(l2_misses, l1_misses))
    icache_rate = min(1.0, _ratio(icache_misses, total))

    phases = _detect_phases(
        windows,
        dep_mean=dep_mean,
        branch_rate=branch_rate,
        l2_rate=l2_rate,
        threshold=phase_threshold,
        max_phases=max_phases,
    )

    if domain is None:
        fp_fraction = sum(mix.get(kind, 0.0) for kind in _FP_KINDS)
        domain = FP if fp_fraction > 0.10 else INT

    profile = WorkloadProfile(
        name=name,
        domain=domain,
        mix=mix,
        dep_mean_distance=dep_mean,
        branch_misp_rate=branch_rate,
        l1d_miss_rate=l1_rate,
        l2_miss_rate=l2_rate,
        icache_miss_rate=icache_rate,
        phases=phases,
    )
    elapsed = time.perf_counter() - started
    obs.inc("workloads.traces_ingested")
    obs.inc("workloads.instructions_ingested", float(total))
    obs.emit_event(
        "workloads.ingest",
        name=name,
        instructions=total,
        windows=len(windows),
        phases=len(phases),
        seconds=elapsed,
        content_hash=profile.content_hash(),
    )
    return profile


def _detect_phases(
    windows: Sequence[Tuple[np.ndarray, _WindowStats]],
    *,
    dep_mean: float,
    branch_rate: float,
    l2_rate: float,
    threshold: float,
    max_phases: int,
) -> Tuple[PhaseSpec, ...]:
    """Cluster windows with the Sherwood detector; derive PhaseSpecs.

    Each detected phase's scale factors are its per-window rates relative
    to the trace-global means, so ``profile.phase_profile(spec)``
    reconstructs roughly the behaviour the phase's windows showed.
    """
    if len(windows) < 2:
        return (PhaseSpec("main", 1.0),)
    detector = PhaseDetector(threshold=threshold, max_table=max(2, max_phases))
    assignments: List[int] = []
    for bbv, _ in windows:
        assignments.append(detector.observe(bbv).phase_id)

    grouped: Dict[int, List[_WindowStats]] = {}
    for phase_id, (_, stats) in zip(assignments, windows):
        grouped.setdefault(phase_id, []).append(stats)
    if len(grouped) == 1:
        return (PhaseSpec("main", 1.0),)

    # Tiny phases (single stray window of many) fold into the dominant
    # one: a <2% weight would be noise, not structure.
    total_windows = len(windows)
    dominant = max(grouped, key=lambda pid: len(grouped[pid]))
    for phase_id in sorted(grouped):
        if phase_id != dominant and len(grouped[phase_id]) / total_windows < 0.02:
            grouped[dominant].extend(grouped.pop(phase_id))
    if len(grouped) == 1:
        return (PhaseSpec("main", 1.0),)

    weights = _normalise_fractions(
        {pid: float(len(stats)) for pid, stats in grouped.items()}
    )
    specs: List[PhaseSpec] = []
    for index, phase_id in enumerate(sorted(grouped)):
        stats = grouped[phase_id]
        phase_dep = _ratio(
            sum(s.dep_sum for s in stats),
            sum(s.dep_count for s in stats),
            default=dep_mean,
        )
        phase_branch = _ratio(
            sum(s.branch_misses for s in stats),
            sum(s.branches for s in stats),
            default=branch_rate,
        )
        phase_l2 = _ratio(
            sum(s.l2_misses for s in stats),
            sum(s.l1_misses for s in stats),
            default=l2_rate,
        )
        specs.append(
            PhaseSpec(
                name=f"phase-{index}",
                weight=weights[phase_id],
                l2_scale=_ratio(phase_l2, l2_rate, default=1.0),
                branch_scale=_ratio(phase_branch, branch_rate, default=1.0),
                ilp_scale=_ratio(phase_dep, dep_mean, default=1.0),
            )
        )
    return tuple(specs)


# ----------------------------------------------------------------------
# Profile files (the CLI's interchange format).
# ----------------------------------------------------------------------
def save_profiles(
    profiles: Sequence[WorkloadProfile], path: str
) -> str:
    """Write profiles as ``{"profiles": [to_wire...]}`` JSON; returns path.

    This is the file format the ``python -m repro.workloads`` CLI emits
    and ``python -m repro.serve submit --profiles`` consumes.
    """
    document = {
        "profiles": [profile.to_wire() for profile in profiles],
        "hashes": [profile.content_hash() for profile in profiles],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_profiles(path: str) -> Tuple[WorkloadProfile, ...]:
    """Read a :func:`save_profiles` file back (bit-identical floats)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    docs = document["profiles"] if isinstance(document, dict) else document
    return tuple(WorkloadProfile.from_wire(doc) for doc in docs)
