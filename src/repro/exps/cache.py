"""Content-addressed on-disk cache for hot Monte-Carlo artifacts.

The experiment engine reuses three expensive artifact classes across runs
and across worker processes:

* **Workload measurements** — the Eq 5 inputs produced by the trace-driven
  pipeline model, identical for every chip in the population.
* **Trained fuzzy-controller banks** — the manufacturer-site training of
  Appendix A, identical for every chip sharing a knob environment (stored
  through the :mod:`repro.ml.persistence` ``.npz`` round trip).
* **Suite summaries** — whole (environment, mode) cells of Figures 10-12,
  stored in the :meth:`repro.exps.runner.SuiteSummary.to_json` wire format.
* **Correlation factors** — the O(n^3) Cholesky factor of the VARIUS
  within-die correlation matrix, identical for every campaign sharing a
  die grid and ``phi`` (served into the process-wide memo of
  :mod:`repro.variation.factors` through :class:`FactorStore`).

Every artifact is addressed by a SHA-256 of its *inputs*: the calibration
constants, the runner scale knobs, the workload/phase fingerprint, and the
environment's capability set.  Changing any of them (e.g. a recalibrated
``systematic_delay_gain``) changes the key, so stale entries are never
served — invalidation is free.  A key hashes a small document of
per-object :func:`fingerprint` digests, each computed once per (frozen)
instance, so deriving a key does not re-serialise the calibration and
the workload suite.  Fingerprinted value types are changed only through
:func:`dataclasses.replace`, never mutated in place (that includes the
dict fields of :class:`~repro.calibration.Calibration`): a memoised
fingerprint would not see an in-place edit.

Suite summaries are immutable once stored, so
:meth:`ExperimentCache.load_summary` keeps the summaries it has parsed in
an in-process LRU memo bounded by the rows it holds
(:data:`SUMMARY_MEMO_ROWS`); a warm cell costs a dictionary lookup.

:class:`ExperimentCache` serialises artifacts and delegates the
byte-level ``get``/``put``/``exists``/``delete`` to one
:class:`DirStore`: temp file + fsync + atomic rename, a ``.done``
completed-write marker and an advisory lock per address, so one
directory can be shared by concurrent processes, pool workers and
daemons.

Layout under the cache root (each artifact with its ``.done`` marker
and ``.lock`` file beside it)::

    measurements/<key>.npz   arrays + JSON metadata
    banks/<key>.npz          repro.ml.persistence archives
    summaries/<key>.json     SuiteSummary wire format
    factors/<key>.npz        correlation factors (single array)
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Union

import numpy as np

try:  # advisory file locks: POSIX only, and optional even there
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .. import obs
from ..calibration import Calibration
from ..core.environments import AdaptationMode, Environment
from ..core.optimizer import OptimizationSpec
from ..microarch.pipeline import CoreConfig
from ..microarch.simulator import WorkloadMeasurement
from ..microarch.workloads import WorkloadProfile
from ..ml.bank import ControllerBank
from ..ml.persistence import load_bank, save_bank

#: Bump when the stored artifact layout changes; keys include it, so old
#: cache directories keep working (their entries just stop being hit).
#: Version 2: every artifact carries a ``.done`` completion marker.
#: Version 3: keys hash per-object fingerprints (:func:`fingerprint`).
CACHE_FORMAT_VERSION = 3

#: Upper bound on the :class:`PhaseResult` rows the in-process summary
#: memo of one :class:`ExperimentCache` holds (least recently used
#: summaries are evicted first).  A paper-scale cell (100 chips x 4
#: cores x 19 phases) is 7,600 rows, so this keeps about six of them;
#: a parsed row takes about 590 bytes, so the memo stays under 30 MiB.
SUMMARY_MEMO_ROWS = 50_000

log = logging.getLogger("repro.exps.cache")

_MEAS_META_FIELDS = (
    "name", "phase", "domain", "cpi_comp", "cpi_total",
    "l2_miss_rate", "overlap_factor", "ipc",
)


# ----------------------------------------------------------------------
# Stable fingerprinting.
# ----------------------------------------------------------------------
def jsonable(obj: Any) -> Any:
    """Convert nested dataclasses / enums / numpy values to JSON types.

    Dict keys are stringified (enum keys by their ``.name``) and sorted by
    :func:`json.dumps`, so equal objects always produce equal documents.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.name
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {
            (key.name if isinstance(key, Enum) else str(key)): jsonable(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    document = json.dumps(jsonable(obj), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


def fingerprint(obj: Any) -> str:
    """The :func:`stable_hash` of a frozen dataclass, memoised on it.

    A :class:`WorkloadProfile`'s fingerprint is its
    :meth:`~repro.microarch.workloads.WorkloadProfile.content_hash`.
    The digest is computed once per instance: frozen dataclasses change
    only through :func:`dataclasses.replace`, which builds a new
    instance (and so a new fingerprint).  Mutable dataclasses are
    refused, since an edit would leave the memoised digest stale.
    """
    if isinstance(obj, WorkloadProfile):
        return obj.content_hash()
    cached = obj.__dict__.get("_fingerprint")
    if cached is None:
        params = getattr(obj, "__dataclass_params__", None)
        if params is None or not params.frozen:
            raise TypeError(
                f"fingerprint needs a frozen dataclass, got {type(obj).__name__}"
            )
        cached = stable_hash(obj)
        object.__setattr__(obj, "_fingerprint", cached)
    return cached


def measurement_key(
    calib: Calibration,
    profile: WorkloadProfile,
    config: CoreConfig,
    n_instructions: int,
    seed: int,
) -> str:
    """Cache key for one (workload-phase, pipeline-config) measurement."""
    return stable_hash({
        "version": CACHE_FORMAT_VERSION,
        "kind": "measurement",
        "calib": fingerprint(calib),
        "profile": fingerprint(profile),
        "config": fingerprint(config),
        "n_instructions": n_instructions,
        "seed": seed,
    })


def bank_key(
    calib: Calibration,
    spec: OptimizationSpec,
    n_examples: int,
    epochs: int,
    seed: int,
) -> str:
    """Cache key for one environment's trained controller bank."""
    return stable_hash({
        "version": CACHE_FORMAT_VERSION,
        "kind": "bank",
        "calib": fingerprint(calib),
        "spec": spec,
        "n_examples": n_examples,
        "epochs": epochs,
        "seed": seed,
    })


def factor_key(key_data: Sequence[Any]) -> str:
    """Cache key for one correlation factor.

    ``key_data`` is the tuple produced by
    :func:`repro.variation.factors.factor_key_data` — the grid geometry
    plus ``phi`` and the diagonal jitter, i.e. everything the factor
    depends on.
    """
    return stable_hash({
        "version": CACHE_FORMAT_VERSION,
        "kind": "factor",
        "key_data": list(key_data),
    })


def unit_key(cell_key: str, chip_index: int, core_index: int) -> str:
    """Derive one (chip, core) unit's coalescing key from its cell's key.

    The campaign service decomposes a :class:`~repro.exps.engine.RunSpec`
    into (environment, mode, chip, core) units; two jobs whose cells share
    a :func:`summary_key` therefore share every unit key, which is what
    lets the in-flight registry compute each unit exactly once across
    concurrent submissions.
    """
    return f"{cell_key}-{chip_index}-{core_index}"


def summary_key(
    calib: Calibration,
    runner_config: Any,
    core_config: CoreConfig,
    env: Environment,
    mode: AdaptationMode,
    workloads: Sequence[WorkloadProfile],
) -> str:
    """Cache key for a whole (environment, mode) suite summary."""
    return stable_hash({
        "version": CACHE_FORMAT_VERSION,
        "kind": "summary",
        "calib": fingerprint(calib),
        "runner_config": fingerprint(runner_config),
        "core_config": fingerprint(core_config),
        "env": fingerprint(env),
        "mode": mode.name,
        "workloads": [fingerprint(workload) for workload in workloads],
    })


# ----------------------------------------------------------------------
# Byte storage: one directory, safe to share across processes and hosts.
# ----------------------------------------------------------------------
class DirStore:
    """The artifact directory behind :class:`ExperimentCache`.

    Artifacts are addressed by ``(kind, key, suffix)`` — ``kind`` is a
    short category name (``"summaries"``, ``"banks"``, ...), ``key`` a
    content-addressed hex digest, ``suffix`` the format extension — and
    live at ``<root>/<kind>/<key><suffix>``.  Keys are content-addressed,
    so a ``put`` for an existing address always carries semantically
    identical bytes: last-writer-wins is a safe conflict rule.

    One directory may be shared by concurrent processes and daemons
    (see DESIGN.md §12):

    * **Atomic writes** — data goes to a sibling temp file, is fsynced,
      and is renamed into place with ``os.replace``; a reader never sees
      a torn file.
    * **Completed-write markers** — after the rename, an empty
      ``<name>.done`` marker is created.  ``get`` only serves marked
      artifacts, and ``is_complete`` reports the marker, so a reader in
      another process never consumes (or deletes) a write that has not
      finished — rename atomicity and visibility ordering are weaker
      across network mounts than on a local disk.
    * **Advisory locks** — ``put`` and ``delete`` for one address are
      serialised through a ``flock`` on a sibling ``.lock`` file (a
      no-op where ``fcntl`` is unavailable), so a delete can never
      interleave with a half-finished rewrite of the same artifact.

    A crash between the data rename and the marker leaves an unmarked
    file: invisible to readers, and simply overwritten (marker included)
    by the next writer of that key — content addressing makes the retry
    byte-identical.
    """

    _MARKER = ".done"
    _LOCK = ".lock"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        for sub in ("measurements", "banks", "summaries", "factors"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.root)!r})"

    def path_for(self, kind: str, key: str, suffix: str) -> Path:
        """Where ``(kind, key, suffix)`` lives on disk."""
        return self.root / kind / f"{key}{suffix}"

    def _marker_for(self, final: Path) -> Path:
        return final.with_name(final.name + self._MARKER)

    @contextlib.contextmanager
    def _locked(self, final: Path) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = final.with_name(final.name + self._LOCK)
        with open(lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def get(self, kind: str, key: str, suffix: str) -> Optional[bytes]:
        """The artifact's bytes, or ``None`` if absent or incomplete."""
        if not self.is_complete(kind, key, suffix):
            return None
        try:
            return self.path_for(kind, key, suffix).read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            return None

    def put(self, kind: str, key: str, suffix: str, data: bytes) -> None:
        """Store ``data`` atomically under ``(kind, key, suffix)``."""
        final = self.path_for(kind, key, suffix)
        final.parent.mkdir(parents=True, exist_ok=True)
        with self._locked(final):
            fd, tmp = tempfile.mkstemp(
                dir=str(final.parent), prefix=".tmp-", suffix=suffix
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, final)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._marker_for(final).touch()

    def exists(self, kind: str, key: str, suffix: str) -> bool:
        """Whether any artifact (even an in-flight one) is present."""
        return self.path_for(kind, key, suffix).exists()

    def is_complete(self, kind: str, key: str, suffix: str) -> bool:
        """Whether the artifact's write has finished (its marker exists)."""
        return self._marker_for(self.path_for(kind, key, suffix)).exists()

    def delete(self, kind: str, key: str, suffix: str) -> bool:
        """Remove the artifact; ``False`` if nothing was there."""
        final = self.path_for(kind, key, suffix)
        with self._locked(final):
            # Marker first: the artifact disappears for readers before
            # the data file does, never the other way around.
            try:
                self._marker_for(final).unlink()
            except OSError:
                pass
            try:
                final.unlink()
                return True
            except OSError:
                return False


# ----------------------------------------------------------------------
# The cache itself.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters, per artifact kind."""

    hits: Dict[str, int] = dataclasses.field(
        default_factory=lambda: {
            "measurement": 0, "bank": 0, "summary": 0, "factor": 0,
        }
    )
    misses: Dict[str, int] = dataclasses.field(
        default_factory=lambda: {
            "measurement": 0, "bank": 0, "summary": 0, "factor": 0,
        }
    )

    def record(self, kind: str, hit: bool) -> None:
        (self.hits if hit else self.misses)[kind] += 1
        # Touch both counters (one with 0) so every run that accesses a
        # cache kind reports the same metric names — serial and parallel
        # runs must stay structurally identical even when one of them
        # never hits (or never misses).
        obs.inc(f"cache.{kind}.hits", 1.0 if hit else 0.0)
        obs.inc(f"cache.{kind}.misses", 0.0 if hit else 1.0)


#: stat kind -> (store kind, format suffix)
_ARTIFACT_KINDS = {
    "measurement": ("measurements", ".npz"),
    "bank": ("banks", ".npz"),
    "summary": ("summaries", ".json"),
    "factor": ("factors", ".npz"),
}


class ExperimentCache:
    """Artifact cache for measurements, banks, summaries and factors.

    Serialisation lives here; byte storage is delegated to the
    :class:`DirStore` at ``root``.  Parsed summaries are memoised
    in-process (see :meth:`load_summary`).
    """

    def __init__(self, root: Union[str, Path]):
        self.store = DirStore(root)
        #: Kept for callers that co-locate reports next to the cache.
        self.root = self.store.root
        self.stats = CacheStats()
        self._summaries: "OrderedDict[str, Any]" = OrderedDict()
        self._summary_rows = 0
        self._summaries_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentCache({self.store!r})"

    # -- plumbing --------------------------------------------------------
    def _note_write(self, kind: str, nbytes: int, existed: bool) -> None:
        """Account one artifact write (bytes; overwrites = invalidations)."""
        obs.inc("cache.invalidations", 1.0 if existed else 0.0)
        obs.inc("cache.bytes_written", float(nbytes))
        log.debug("wrote %s artifact (%d bytes)", kind, nbytes)

    def _save(self, kind: str, key: str, data: bytes) -> None:
        store_kind, suffix = _ARTIFACT_KINDS[kind]
        existed = self.store.exists(store_kind, key, suffix)
        self.store.put(store_kind, key, suffix, data)
        self._note_write(kind, len(data), existed)

    def _load_guarded(self, kind: str, key: str, parse):
        """Load one artifact; corrupt *completed* artifacts are dropped.

        Any parse failure is a miss, but deletion is conditional on the
        store's completed-write marker: a torn/garbage artifact whose
        write *finished* (disks fill, copies truncate, formats drift) is
        deleted and counted in ``cache.corrupt`` so the slot heals,
        while an artifact still being written by another worker sharing
        the store is left alone (counted in ``cache.pending_writes``) —
        deleting it would clobber the concurrent writer and lose its
        compute.
        """
        store_kind, suffix = _ARTIFACT_KINDS[kind]
        data = self.store.get(store_kind, key, suffix)
        if data is None:
            if self.store.exists(store_kind, key, suffix):
                # Present but not yet complete: another worker is mid-put.
                obs.inc("cache.pending_writes")
            self.stats.record(kind, hit=False)
            return None
        try:
            value = parse(data)
        except Exception as exc:
            if self.store.is_complete(store_kind, key, suffix):
                log.warning(
                    "corrupt %s artifact %s (%s); dropping it and recomputing",
                    kind, key, exc,
                )
                obs.inc("cache.corrupt")
                self.store.delete(store_kind, key, suffix)
            else:
                log.debug(
                    "%s artifact %s unreadable but write still in flight; "
                    "leaving it (%s)", kind, key, exc,
                )
                obs.inc("cache.pending_writes")
            self.stats.record(kind, hit=False)
            return None
        self.stats.record(kind, hit=True)
        return value

    # -- measurements ---------------------------------------------------
    def load_measurement(self, key: str) -> Optional[WorkloadMeasurement]:
        """Return a cached measurement, or ``None`` on a miss."""

        def parse(data: bytes) -> WorkloadMeasurement:
            with np.load(io.BytesIO(data)) as archive:
                meta = json.loads(bytes(archive["__meta__"]).decode())
                return WorkloadMeasurement(
                    activity=archive["activity"],
                    rho=archive["rho"],
                    **meta,
                )

        return self._load_guarded("measurement", key, parse)

    def save_measurement(self, key: str, meas: WorkloadMeasurement) -> None:
        """Store one measurement (arrays binary, scalars as JSON)."""
        meta = {name: getattr(meas, name) for name in _MEAS_META_FIELDS}
        buffer = io.BytesIO()
        np.savez(
            buffer,
            activity=meas.activity,
            rho=meas.rho,
            __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        self._save("measurement", key, buffer.getvalue())

    # -- controller banks -----------------------------------------------
    def load_bank(self, key: str) -> Optional[ControllerBank]:
        """Return a cached trained bank, or ``None`` on a miss."""
        return self._load_guarded(
            "bank", key, lambda data: load_bank(io.BytesIO(data))
        )

    def save_bank(self, key: str, bank: ControllerBank) -> None:
        """Store one trained bank through :mod:`repro.ml.persistence`."""
        buffer = io.BytesIO()
        save_bank(bank, buffer)
        self._save("bank", key, buffer.getvalue())

    # -- correlation factors ---------------------------------------------
    def load_factor(self, key: str) -> Optional[np.ndarray]:
        """Return a cached correlation factor, or ``None`` on a miss."""

        def parse(data: bytes) -> np.ndarray:
            with np.load(io.BytesIO(data)) as archive:
                return archive["factor"]

        return self._load_guarded("factor", key, parse)

    def save_factor(self, key: str, factor: np.ndarray) -> None:
        """Store one correlation factor as a single-array archive."""
        buffer = io.BytesIO()
        np.savez(buffer, factor=np.asarray(factor))
        self._save("factor", key, buffer.getvalue())

    # -- suite summaries -------------------------------------------------
    def load_summary(self, key: str):
        """Return a cached :class:`SuiteSummary`, or ``None`` on a miss.

        Read through an in-process LRU memo: a stored summary is
        immutable under its content-addressed key, so the object parsed
        on its first load is served (and counted as a hit) until it is
        evicted.  The memo is filled on load only, never on save: the
        engine attaches ``metrics`` to a computed summary after storing
        it, and a disk hit must not see them.  Callers treat the
        returned summary as read-only.
        """
        from .runner import SuiteSummary  # runner imports this module

        with self._summaries_lock:
            summary = self._summaries.get(key)
            if summary is not None:
                self._summaries.move_to_end(key)
        if summary is not None:
            self.stats.record("summary", hit=True)
            return summary
        summary = self._load_guarded(
            "summary", key, lambda data: SuiteSummary.from_json(data.decode())
        )
        if summary is not None:
            self._remember_summary(key, summary)
        return summary

    def _remember_summary(self, key: str, summary) -> None:
        """Memoise a parsed summary; evict the oldest past the row bound."""
        rows = len(summary.results)
        if rows > SUMMARY_MEMO_ROWS:
            return
        with self._summaries_lock:
            previous = self._summaries.pop(key, None)
            if previous is not None:
                self._summary_rows -= len(previous.results)
            self._summaries[key] = summary
            self._summary_rows += rows
            while self._summary_rows > SUMMARY_MEMO_ROWS:
                _, evicted = self._summaries.popitem(last=False)
                self._summary_rows -= len(evicted.results)

    def save_summary(self, key: str, summary) -> None:
        """Store one suite summary in the shared JSON wire format."""
        self._save("summary", key, summary.to_json().encode())


class FactorStore:
    """Adapter giving :mod:`repro.variation.factors` durable storage.

    The variation layer sits below the engine, so it cannot import this
    module; instead it accepts any object with ``load(key_data)`` /
    ``save(key_data, factor)``.  This adapter closes the loop: it turns
    the physics-level key tuple into a content-addressed cache key and
    delegates to an :class:`ExperimentCache`.  Install it with::

        from repro import variation
        variation.set_store(FactorStore(cache))
    """

    def __init__(self, cache: ExperimentCache):
        self.cache = cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FactorStore({self.cache!r})"

    def load(self, key_data: Sequence[Any]) -> Optional[np.ndarray]:
        """Return the stored factor for ``key_data``, or ``None``."""
        return self.cache.load_factor(factor_key(key_data))

    def save(self, key_data: Sequence[Any], factor: np.ndarray) -> None:
        """Persist ``factor`` under ``key_data``."""
        self.cache.save_factor(factor_key(key_data), factor)
