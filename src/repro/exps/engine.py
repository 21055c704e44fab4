"""Parallel Monte-Carlo execution engine behind ``ExperimentRunner.run``.

The paper's evaluation is embarrassingly parallel across the chip
population: every (chip, core) pair is adapted independently, sharing only
read-only inputs (workload measurements, trained controller banks).  The
engine shards the population across a :class:`~concurrent.futures.
ProcessPoolExecutor`.  Workers rebuild their cores locally from the
``(seed, chip_index)`` recipe — the Monte-Carlo population draw is
deterministic — so only light, picklable specs cross process boundaries:
a :class:`~repro.exps.runner.RunnerConfig`, a :class:`Calibration`,
:class:`Environment` values, and the :class:`~repro.exps.runner.
PhaseResult` record dicts coming back.

Heavy shared artifacts never ride the pipe.  Trained fuzzy banks are
written to the content-addressed disk cache (:mod:`repro.exps.cache`) by
the parent before dispatch and loaded by workers; when the caller did not
configure a cache, an ephemeral one is created for the duration of the
run.  Determinism is by construction: a worker executes exactly the same
per-(chip, core) unit function as the serial loop, and units are
reassembled in serial iteration order, so a parallel run is bit-identical
to the serial run at the same seed.
"""

from __future__ import annotations

import logging
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.environments import AdaptationMode, Environment
from ..microarch.workloads import WorkloadProfile
from .cache import ExperimentCache, summary_key

log = logging.getLogger("repro.exps.engine")


class UnitExecutionError(RuntimeError):
    """One (environment, mode, chip, core) unit of work failed.

    Raised instead of the worker's bare traceback so every consumer — the
    serial loop, the process-pool path, and the campaign service's
    supervised scheduler — sees *which* unit died.  The original
    exception rides along as ``__cause__``.
    """

    def __init__(
        self,
        env_name: str,
        mode_value: str,
        chip_index: int,
        core_index: int,
        cause: Optional[BaseException] = None,
    ):
        self.env_name = env_name
        self.mode_value = mode_value
        self.chip_index = chip_index
        self.core_index = core_index
        detail = f": {cause!r}" if cause is not None else ""
        super().__init__(
            f"unit (env={env_name}, mode={mode_value}, chip={chip_index}, "
            f"core={core_index}) failed{detail}"
        )

    @property
    def unit(self) -> Tuple[str, str, int, int]:
        """The failing unit's identity, as plain JSON-safe values."""
        return (self.env_name, self.mode_value, self.chip_index, self.core_index)


def iter_units(
    cells: Sequence[Tuple[Environment, AdaptationMode]],
    n_chips: int,
    cores_per_chip: int,
):
    """Yield the (env, mode, chip, core) units of a campaign, in order.

    This is the resumable decomposition shared by the process-pool path
    and the campaign service: summaries are reassembled by concatenating
    unit rows in exactly this order, which is what keeps parallel — and
    service-coalesced — results bit-identical to the serial loop.
    """
    for env, mode in cells:
        for chip_index in range(n_chips):
            for core_index in range(cores_per_chip):
                yield (env, mode, chip_index, core_index)


def run_unit_guarded(
    runner,
    env: Environment,
    mode: AdaptationMode,
    chip_index: int,
    core_index: int,
    workloads=None,
    bank=None,
):
    """``runner.run_unit`` with failures wrapped in :class:`UnitExecutionError`."""
    try:
        return runner.run_unit(
            env, mode, chip_index, core_index, workloads, bank=bank
        )
    except UnitExecutionError:
        raise
    except Exception as exc:
        raise UnitExecutionError(
            env.name, mode.value, chip_index, core_index, cause=exc
        ) from exc


def run_units_guarded(
    runner,
    env: Environment,
    mode: AdaptationMode,
    units: Sequence[Tuple[int, int]],
    workloads=None,
    bank=None,
):
    """Run a same-cell block of units, failures precisely attributed.

    The block runs as one program
    (:meth:`~repro.exps.runner.ExperimentRunner.run_units_batched`); a
    failure is retried one unit at a time — the same rows by
    construction — so the :class:`UnitExecutionError` finally raised
    names the exact (chip, core) unit that is broken, not the block.
    """
    units = list(units)
    if units:
        try:
            return runner.run_units_batched(
                env, mode, units, workloads, bank=bank
            )
        except Exception:
            log.warning(
                "batched unit block (env=%s, mode=%s, %d units) failed; "
                "retrying per unit",
                env.name, mode.value, len(units), exc_info=True,
            )
    return [
        run_unit_guarded(
            runner, env, mode, chip_index, core_index, workloads, bank=bank
        )
        for chip_index, core_index in units
    ]


def _chunk_units(
    units: Sequence[Tuple[int, int]], n_blocks: int
) -> List[List[Tuple[int, int]]]:
    """Split a cell's units into at most ``n_blocks`` contiguous blocks.

    Contiguity matters: concatenating block results in block order must
    reproduce the serial unit order exactly.
    """
    units = list(units)
    n_blocks = max(1, min(n_blocks, len(units)))
    size, extra = divmod(len(units), n_blocks)
    chunks = []
    start = 0
    for index in range(n_blocks):
        end = start + size + (1 if index < extra else 0)
        chunks.append(units[start:end])
        start = end
    return chunks


@dataclass(frozen=True)
class RunSpec:
    """One experiment campaign: a grid of (environment, mode) cells.

    Attributes:
        environments: Environments to run (a single one is accepted).
        modes: Adaptation modes; the grid is the cross product with
            ``environments``.  Non-variation environments (``NoVar``) are
            computed once and reported under every requested mode.
        workloads: Workload profiles (default: the runner's suite).
        parallelism: Worker processes; ``1`` runs in-process (serial).
        cache_dir: On-disk artifact cache root.  ``None`` falls back to
            the runner's configured cache (if any).
        use_cache: ``False`` disables the disk cache entirely (the
            ``--no-cache`` flag); in-memory memoisation still applies.
        shared_mem: Broadcast the sampled population and correlation
            factor to pool workers through one shared-memory segment
            (zero-copy) instead of having every worker rebuild them.
            Purely an execution knob — results are bit-identical either
            way, and any shared-memory failure silently falls back to
            the deterministic rebuild — so, like ``parallelism``, it
            stays outside the hashed cache keys.
    """

    environments: Tuple[Environment, ...]
    modes: Tuple[AdaptationMode, ...] = (AdaptationMode.EXH_DYN,)
    workloads: Optional[Tuple[WorkloadProfile, ...]] = None
    parallelism: int = 1
    cache_dir: Optional[str] = None
    use_cache: bool = True
    shared_mem: bool = True

    def __post_init__(self) -> None:
        envs = self.environments
        if isinstance(envs, Environment):
            envs = (envs,)
        object.__setattr__(self, "environments", tuple(envs))
        modes = self.modes
        if isinstance(modes, AdaptationMode):
            modes = (modes,)
        object.__setattr__(self, "modes", tuple(modes))
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if not self.environments or not self.modes:
            raise ValueError("RunSpec needs at least one environment and mode")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    @classmethod
    def from_settings(cls, settings, **overrides) -> "RunSpec":
        """Build a spec whose execution knobs come from a ``Settings``.

        This is the one sanctioned way to turn the runtime-knob bundle
        (:class:`repro.config.Settings`) into campaign execution fields —
        ``parallelism`` from ``jobs``, ``cache_dir``/``use_cache`` from the
        cache knobs, ``shared_mem`` — so call sites stop hand-rolling the
        mapping.  Campaign *content* (``environments``, ``modes``,
        ``workloads``) and any explicit execution override ride in through
        ``overrides``::

            spec = RunSpec.from_settings(settings, environments=(TS,))
        """
        fields = dict(
            parallelism=settings.jobs,
            cache_dir=settings.effective_cache_dir,
            use_cache=settings.cache_enabled,
            shared_mem=settings.shared_mem,
        )
        fields.update(overrides)
        return cls(**fields)

    def pairs(self) -> List[Tuple[Environment, AdaptationMode]]:
        """The (environment, mode) cells of the campaign, in grid order."""
        return [(env, mode) for env in self.environments for mode in self.modes]


@dataclass
class RunResult:
    """All suite summaries of one :class:`RunSpec` campaign."""

    spec: RunSpec
    summaries: Dict[Tuple[str, str], "SuiteSummary"] = field(default_factory=dict)

    def summary(
        self,
        env: Union[Environment, str],
        mode: Union[AdaptationMode, str, None] = None,
    ) -> "SuiteSummary":
        """Look up one cell; ``mode`` defaults to the spec's only mode."""
        env_name = env.name if isinstance(env, Environment) else env
        if mode is None:
            if len(self.spec.modes) != 1:
                raise ValueError("multiple modes in spec: pass mode explicitly")
            mode = self.spec.modes[0]
        mode_value = mode.value if isinstance(mode, AdaptationMode) else mode
        return self.summaries[(env_name, mode_value)]


# ----------------------------------------------------------------------
# Worker-side machinery.  Globals are per-process: the initializer runs
# once per worker and rebuilds the full runner from the light specs.
# ----------------------------------------------------------------------
_WORKER_RUNNER = None
_WORKER_BANK_CACHE = None
#: The attached shared-memory segment, if any.  The worker's population
#: arrays are views into its buffer, so the reference must stay alive for
#: the whole worker lifetime.
_WORKER_SHM = None


def _init_worker(
    config, calib, core_config, workloads, cache_root, bank_cache_root,
    obs_enabled, shm_handle=None,
) -> None:
    """Build this worker's private runner (population, cores, caches).

    ``cache_root`` is the user-facing artifact cache (``None`` when the
    caller disabled caching), while ``bank_cache_root`` is the bank
    transport — possibly an ephemeral directory — that heavy trained
    banks always travel through.  Keeping them separate means
    ``--no-cache`` runs really do skip the measurement/summary cache in
    workers, so serial and parallel runs produce the same cache counters.
    """
    global _WORKER_RUNNER, _WORKER_BANK_CACHE, _WORKER_SHM
    from ..variation import prime_factor
    from .runner import ExperimentRunner
    from .shm import attach

    # Fork-started workers inherit the parent's metric state; start from a
    # clean slate so drained deltas only ever contain this worker's work.
    obs.metrics_registry().clear()
    if obs_enabled:
        obs.enable()
    else:
        obs.disable()
    cache = ExperimentCache(cache_root) if cache_root else None
    _WORKER_BANK_CACHE = (
        ExperimentCache(bank_cache_root) if bank_cache_root else None
    )
    population = None
    if shm_handle is not None:
        try:
            population, factor, _WORKER_SHM = attach(shm_handle)
            if factor is not None:
                prime_factor(
                    factor, shm_handle.grid, shm_handle.params.phi
                )
        except Exception:
            # Any transport failure degrades to the deterministic
            # rebuild below — slower, never wrong.
            log.warning(
                "shared-memory attach failed; rebuilding population",
                exc_info=True,
            )
            population = None
    obs.inc("engine.shm.attached", 1.0 if population is not None else 0.0)
    obs.inc("engine.shm.rebuilt", 0.0 if population is not None else 1.0)
    _WORKER_RUNNER = ExperimentRunner(
        config,
        calib,
        workloads=workloads,
        core_config=core_config,
        cache=cache,
        population=population,
    )


def _run_unit_block(env, mode, units):
    """Run one contiguous block of same-cell units in a pool worker.

    A failure of the whole block is retried one unit at a time inside
    the worker, for error attribution (plain exceptions only — :class:`UnitExecutionError` never crosses the
    process boundary, the parent re-wraps).  Returns each unit's record
    dicts, in unit order, plus the worker's metric delta.
    """
    bank = None
    if mode is AdaptationMode.FUZZY_DYN and _WORKER_BANK_CACHE is not None:
        bank = _WORKER_RUNNER.bank_for(env, cache=_WORKER_BANK_CACHE)
    units = list(units)
    try:
        unit_rows = _WORKER_RUNNER.run_units_batched(env, mode, units, bank=bank)
    except Exception:
        log.warning(
            "batched unit block (env=%s, mode=%s, %d units) failed in "
            "worker; retrying per unit",
            env.name, mode.value, len(units), exc_info=True,
        )
        unit_rows = [
            _WORKER_RUNNER.run_unit(env, mode, chip_index, core_index, bank=bank)
            for chip_index, core_index in units
        ]
    return (
        [[row.to_dict() for row in rows] for rows in unit_rows],
        obs.metrics_registry().drain(),
    )


# ----------------------------------------------------------------------
# Parent-side orchestration.
# ----------------------------------------------------------------------
def _resolve_cache(runner, spec: RunSpec) -> Optional[ExperimentCache]:
    if not spec.use_cache:
        return None
    if spec.cache_dir is not None:
        return ExperimentCache(spec.cache_dir)
    return runner.cache


def execute(runner, spec: RunSpec) -> RunResult:
    """Run a campaign on a runner: cache lookups, shard, gather, store.

    All instrumentation of the campaign — cache hit/miss counters, span
    timings from the serial loop, merged worker deltas — accumulates in a
    campaign-local registry, whose snapshot is attached to every summary
    computed by this call (``SuiteSummary.metrics``) and then folded into
    the ambient process registry (what ``--metrics-out`` writes).
    """
    from .runner import PhaseResult, summarise

    workloads = (
        list(spec.workloads) if spec.workloads is not None else list(runner.workloads)
    )
    campaign = obs.MetricsRegistry()
    result = RunResult(spec=spec)
    computed_cells: List[Tuple[str, str]] = []
    with obs.scoped(campaign), obs.span("engine.execute"):
        cache = _resolve_cache(runner, spec)
        pending: List[Tuple[Environment, AdaptationMode, Optional[str]]] = []
        novar_memo: Dict[str, "SuiteSummary"] = {}
        obs.set_gauge("engine.jobs", spec.parallelism)
        obs.inc("engine.cells_requested", len(spec.pairs()))

        for env, mode in spec.pairs():
            cell = (env.name, mode.value)
            if cell in result.summaries:
                continue
            key = (
                summary_key(
                    runner.calib, runner.config, runner.core_config, env, mode,
                    workloads,
                )
                if cache is not None
                else None
            )
            if cache is not None:
                hit = cache.load_summary(key)
                if hit is not None:
                    result.summaries[cell] = hit
                    obs.emit_event("cell", env=cell[0], mode=cell[1],
                                   source="cache")
                    continue
            if not env.variation:
                # NoVar has no population dimension: compute once, serially.
                if env.name not in novar_memo:
                    novar_memo[env.name] = runner.novar_summary(workloads)
                result.summaries[cell] = novar_memo[env.name]
                computed_cells.append(cell)
                if cache is not None:
                    cache.save_summary(key, result.summaries[cell])
                continue
            pending.append((env, mode, key))

        if pending:
            n_units = (
                len(pending) * runner.config.n_chips * runner.config.cores_per_chip
            )
            obs.set_gauge("engine.units", n_units)
            obs.set_gauge("engine.workers", min(spec.parallelism, n_units))
            log.info(
                "running %d cells (%d units) with parallelism=%d",
                len(pending), n_units, spec.parallelism,
            )
            start = time.perf_counter()
            if spec.parallelism > 1:
                computed = _execute_parallel(
                    runner, spec, pending, workloads, cache, campaign
                )
            else:
                # Structural parity with the parallel path: the same
                # metric names exist in a serial run, zero-valued — no
                # segment is published and the factor memo is not
                # consulted when units run in-process.
                obs.set_gauge("engine.shm_bytes", 0.0)
                obs.inc("engine.shm.attached", 0.0)
                obs.inc("engine.shm.rebuilt", 0.0)
                obs.inc("variation.factor.hits", 0.0)
                obs.inc("variation.factor.misses", 0.0)
                per_cell: Dict[Tuple[str, str], List[PhaseResult]] = {}
                for env, mode, _ in pending:
                    # One block per cell: all of its (chip, core) units
                    # advance through one population-batched program.
                    cell_units = [
                        (chip_index, core_index)
                        for chip_index in range(runner.config.n_chips)
                        for core_index in range(runner.config.cores_per_chip)
                    ]
                    unit_rows = run_units_guarded(
                        runner, env, mode, cell_units, workloads
                    )
                    for rows in unit_rows:
                        per_cell.setdefault(
                            (env.name, mode.value), []
                        ).extend(rows)
                computed = {
                    cell: summarise(rows) for cell, rows in per_cell.items()
                }
            elapsed = time.perf_counter() - start
            obs.inc("engine.compute_seconds", elapsed)
            if elapsed > 0.0:
                obs.set_gauge("engine.units_per_second", n_units / elapsed)
            for env, mode, key in pending:
                cell = (env.name, mode.value)
                summary = computed[cell]
                result.summaries[cell] = summary
                computed_cells.append(cell)
                obs.emit_event("cell", env=cell[0], mode=cell[1],
                               source="computed")
                if cache is not None:
                    cache.save_summary(key, summary)

    # Attach the fleet-wide campaign snapshot to every summary this call
    # actually computed (cache hits keep whatever metrics they were saved
    # with), then fold the campaign into the ambient process registry.
    if obs.enabled():
        metrics_doc = campaign.to_dict()
        for cell in computed_cells:
            result.summaries[cell].metrics = metrics_doc
        obs.metrics_registry().merge(campaign)
    return result


class SupervisedExecutor:
    """A supervised process pool executing campaign units.

    Owns a :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
    are initialised from a runner's light specs (:func:`_init_worker`),
    submits ``_run_unit_block`` shards, and reassembles results in
    submission order.  A worker exception is re-raised as
    :class:`UnitExecutionError` carrying the failing unit's identity
    instead of a bare pool traceback; worker metric deltas are merged
    into the campaign registry so ``--jobs N`` totals stay fleet-wide.
    """

    def __init__(
        self,
        runner,
        workloads: Sequence[WorkloadProfile],
        cache: Optional[ExperimentCache],
        transport: ExperimentCache,
        max_workers: int,
        shm_handle=None,
    ):
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(
                runner.config,
                runner.calib,
                runner.core_config,
                tuple(workloads),
                str(cache.root) if cache is not None else None,
                str(transport.root),
                obs.enabled(),
                shm_handle,
            ),
        )

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        self._pool.shutdown()

    def run_unit_blocks(
        self,
        blocks: Sequence[
            Tuple[Environment, AdaptationMode, Sequence[Tuple[int, int]]]
        ],
        campaign: obs.MetricsRegistry,
    ) -> List[List[List["PhaseResult"]]]:
        """Execute unit blocks concurrently; per-unit rows, in order.

        A failing block is reported as a :class:`UnitExecutionError`
        naming the block's first unit (the worker already logged — and
        retried per unit — the precise unit before giving up).
        """
        from .runner import PhaseResult

        futures = {
            self._pool.submit(_run_unit_block, env, mode, tuple(units)): index
            for index, (env, mode, units) in enumerate(blocks)
        }
        block_rows: List[Optional[List[List[PhaseResult]]]] = (
            [None] * len(blocks)
        )
        for future, index in futures.items():
            env, mode, units = blocks[index]
            try:
                unit_records, metrics_delta = future.result()
            except Exception as exc:
                chip_index, core_index = units[0]
                raise UnitExecutionError(
                    env.name, mode.value, chip_index, core_index, cause=exc
                ) from exc
            block_rows[index] = [
                [PhaseResult.from_dict(record) for record in records]
                for records in unit_records
            ]
            campaign.merge_dict(metrics_delta)
        return block_rows


def _execute_parallel(
    runner,
    spec: RunSpec,
    pending: Sequence[Tuple[Environment, AdaptationMode, Optional[str]]],
    workloads: Sequence[WorkloadProfile],
    cache: Optional[ExperimentCache],
    campaign: obs.MetricsRegistry,
) -> Dict[Tuple[str, str], "SuiteSummary"]:
    """Shard pending cells over a supervised pool; reassemble in order."""
    from .runner import summarise

    # Banks must reach the workers; they are far too heavy for the pipe,
    # so they travel through the disk cache (an ephemeral one if needed).
    ephemeral = None
    transport = cache
    if transport is None:
        ephemeral = tempfile.TemporaryDirectory(prefix="eval-repro-cache-")
        transport = ExperimentCache(ephemeral.name)
    shared = _publish_population(runner) if spec.shared_mem else None
    obs.set_gauge(
        "engine.shm_bytes", float(shared.nbytes) if shared is not None else 0.0
    )
    try:
        for env, mode, _ in pending:
            if mode is AdaptationMode.FUZZY_DYN:
                runner.bank_for(env, cache=transport)

        units = list(iter_units(
            [(env, mode) for env, mode, _ in pending],
            runner.config.n_chips,
            runner.config.cores_per_chip,
        ))
        # Honour the requested parallelism (the caller knows the machine);
        # never spin up more workers than there are units to run.
        max_workers = min(spec.parallelism, len(units))
        # Each cell's unit list is cut into contiguous blocks, one per
        # worker, so every worker amortises its share of the population
        # into one batched program.  Blocks are generated (and their
        # results concatenated) in cell-then-unit order, which is what
        # keeps parallel results bit-identical to the serial loop.
        blocks: List[
            Tuple[Environment, AdaptationMode, List[Tuple[int, int]]]
        ] = []
        for env, mode, _ in pending:
            cell_units = [
                (chip_index, core_index)
                for chip_index in range(runner.config.n_chips)
                for core_index in range(runner.config.cores_per_chip)
            ]
            for chunk in _chunk_units(cell_units, max_workers):
                blocks.append((env, mode, chunk))
        log.debug(
            "sharding %d units (%d blocks) across %d workers",
            len(units), len(blocks), max_workers,
        )
        with SupervisedExecutor(
            runner, workloads, cache, transport, max_workers,
            shm_handle=shared.handle if shared is not None else None,
        ) as pool:
            block_rows = pool.run_unit_blocks(blocks, campaign)

        per_cell: Dict[Tuple[str, str], List["PhaseResult"]] = {}
        for (env, mode, _units), unit_rows in zip(blocks, block_rows):
            for rows in unit_rows:
                per_cell.setdefault((env.name, mode.value), []).extend(rows)
        return {cell: summarise(rows) for cell, rows in per_cell.items()}
    finally:
        if shared is not None:
            # The pool is down (SupervisedExecutor.__exit__ ran), so no
            # worker still maps the segment; release it.
            shared.close()
            shared.unlink()
        if ephemeral is not None:
            ephemeral.cleanup()


def _publish_population(runner):
    """Publish the runner's population (+factor) to shared memory.

    Returns the parent-side :class:`~repro.exps.shm.SharedPopulation`
    owner, or ``None`` if anything about the platform refuses (no
    ``/dev/shm``, size limits, heterogeneous chips): transport is an
    optimisation, and workers fall back to the deterministic rebuild.
    """
    from ..variation import get_factor
    from .shm import SharedPopulation

    try:
        population = runner.population
        chip = population[0]
        factor = get_factor(chip.grid, chip.params.phi)
        return SharedPopulation.publish(population, factor)
    except Exception:
        log.warning(
            "shared-memory publish failed; workers will rebuild",
            exc_info=True,
        )
        return None
