"""Parallel Monte-Carlo execution engine behind ``ExperimentRunner.run``.

The paper's evaluation is embarrassingly parallel across the chip
population: every (chip, core) pair is adapted independently, sharing only
read-only inputs (workload measurements, trained controller banks).  The
engine shards the population across a :class:`~concurrent.futures.
ProcessPoolExecutor`.  Workers receive the parent's objects through the
pool initializer: the sampled population, the Fuzzy-Dyn banks the parent
trained (or loaded) before the pool started, and the light specs — a
:class:`~repro.exps.runner.RunnerConfig`, a :class:`Calibration` and the
workloads.  :class:`Environment` values and unit lists go out per block,
and :class:`~repro.exps.runner.PhaseResult` record dicts come back.

Determinism is by construction: a worker executes exactly the same
per-(chip, core) unit function on the same chips and banks as the serial
loop, and units are reassembled in serial iteration order, so a parallel
run is bit-identical to the serial run at the same seed.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.environments import AdaptationMode, Environment
from ..core.optimizer import run_sweeps_serially
from ..microarch.workloads import WorkloadProfile
from .cache import ExperimentCache, summary_key

log = logging.getLogger("repro.exps.engine")


class UnitExecutionError(RuntimeError):
    """One (environment, mode, chip, core) unit of work failed.

    Raised (or returned by :func:`run_units_guarded`) instead of the
    worker's bare traceback so every consumer — the serial loop, the
    process-pool path and the campaign service's threads — sees *which*
    unit died.  The original exception rides along as ``__cause__`` in
    the raising process; across a process boundary the error travels by
    value (see :meth:`__reduce__`) with the cause's ``repr`` kept in the
    message.
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
        self.__cause__ = cause

    def __reduce__(self):
        # The default reduction re-calls __init__ with ``self.args`` (the
        # message alone), which does not fit this signature; rebuild from
        # the unit identity and restore the rendered message instead.
        return (type(self), self.unit, {"args": self.args})

    @property
    def unit(self) -> Tuple[str, str, int, int]:
        """The failing unit's identity, as plain JSON-safe values."""
        return (self.env_name, self.mode_value, self.chip_index, self.core_index)


def run_units_guarded(
    runner,
    env: Environment,
    mode: AdaptationMode,
    units: Sequence[Tuple[int, int]],
    workloads=None,
    bank=None,
    cache=None,
) -> List[Union[List["PhaseResult"], UnitExecutionError]]:
    """Run a same-cell block of units, failures precisely attributed.

    The one block runner of every executor (serial engine, pool worker,
    campaign service).  A block runs as one program
    (:meth:`~repro.exps.runner.ExperimentRunner.run_units_batched`; a
    one-unit block is its one-unit form,
    :meth:`~repro.exps.runner.ExperimentRunner.run_unit`).  If a block
    of two or more units fails, it is retried one unit at a time — the
    same rows by construction — so a failing one-unit block runs once.
    Returns, per unit in order, either its rows or the
    :class:`UnitExecutionError` naming exactly that (chip, core) unit;
    each caller decides what a failed unit means (:func:`_unit_rows`
    raises the first).  ``cache`` is where measurements and banks are
    read and written (``None``: the runner's own cache).
    """
    units = list(units)
    try:
        if len(units) == 1:
            return [runner.run_unit(
                env, mode, *units[0], workloads, bank=bank, cache=cache
            )]
        return runner.run_units_batched(
            env, mode, units, workloads, bank=bank, cache=cache
        )
    except Exception as exc:
        if len(units) == 1:
            if not isinstance(exc, UnitExecutionError):
                exc = UnitExecutionError(
                    env.name, mode.value, *units[0], cause=exc
                )
            return [exc]
        log.warning(
            "batched unit block (env=%s, mode=%s, %d units) failed; "
            "retrying per unit",
            env.name, mode.value, len(units), exc_info=True,
        )
    return [
        outcome
        for unit in units
        for outcome in run_units_guarded(
            runner, env, mode, [unit], workloads, bank=bank, cache=cache
        )
    ]


def _unit_rows(outcomes: Sequence) -> list:
    """The per-unit rows of a guarded block; raise its first unit error."""
    for outcome in outcomes:
        if isinstance(outcome, UnitExecutionError):
            raise outcome
    return list(outcomes)


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


#: Most (chip, core) units one block advances through one batched
#: program.  The optimizer's ``MAX_SWEEP_CELLS`` bounds every Freq and
#: Power sweep, but a block's per-lane state outside them (stacked inputs,
#: thermal lanes, retuning, rows) grows with its units, so a paper-scale
#: cell (100 chips x 4 cores) runs as several blocks.
MAX_BLOCK_UNITS = 32


def _cell_blocks(runner, pending, n_blocks: int):
    """Each pending cell's (chip, core) units in at least ``n_blocks`` blocks.

    A cell is cut into more blocks where needed to keep every block at
    no more than :data:`MAX_BLOCK_UNITS` units.  Blocks are generated
    (and their rows concatenated by :func:`_summarise_blocks`) in
    cell-then-unit order, which is what keeps every executor's rows
    bit-identical to one serial pass.
    """
    cell_units = [
        (chip_index, core_index)
        for chip_index in range(runner.config.n_chips)
        for core_index in range(runner.config.cores_per_chip)
    ]
    n_blocks = max(n_blocks, math.ceil(len(cell_units) / MAX_BLOCK_UNITS))
    return [
        (env, mode, chunk)
        for env, mode, _ in pending
        for chunk in _chunk_units(cell_units, n_blocks)
    ]


def _summarise_blocks(
    blocks, block_rows
) -> Dict[Tuple[str, str], "SuiteSummary"]:
    """Concatenate per-unit rows block by block into cell summaries."""
    from .runner import summarise

    per_cell: Dict[Tuple[str, str], List["PhaseResult"]] = {}
    for (env, mode, _units), rows_per_unit in zip(blocks, block_rows):
        for rows in rows_per_unit:
            per_cell.setdefault((env.name, mode.value), []).extend(rows)
    return {cell: summarise(rows) for cell, rows in per_cell.items()}


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
        cache_dir: On-disk artifact cache root.  The campaign's
            summaries, and the measurements and banks it reads or
            computes, go there on the serial path and in the pool alike.
            ``None``, or the runner's own cache directory, uses the
            runner's cache object (and so its in-process summary memo).
        use_cache: ``False`` (the ``--no-cache`` flag) serves and stores
            no summary and gives pool workers no cache.  A runner built
            with its own cache still reads and writes measurements and
            banks there on the serial path and in the pool parent;
            in-memory memoisation still applies.

    With ``parallelism > 1`` the pool workers receive the runner's
    population and Fuzzy-Dyn banks through the pool initializer, so a
    parallel run writes nothing the serial run would not.
    """

    environments: Tuple[Environment, ...]
    modes: Tuple[AdaptationMode, ...] = (AdaptationMode.EXH_DYN,)
    workloads: Optional[Tuple[WorkloadProfile, ...]] = None
    parallelism: int = 1
    cache_dir: Optional[str] = None
    use_cache: bool = True

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
        cache knobs — so call sites stop hand-rolling the mapping.
        Campaign *content* (``environments``, ``modes``, ``workloads``)
        and any explicit execution override ride in through
        ``overrides``::

            spec = RunSpec.from_settings(settings, environments=(TS,))
        """
        fields = dict(
            parallelism=settings.jobs,
            cache_dir=settings.effective_cache_dir,
            use_cache=settings.cache_enabled,
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
# once per worker and builds its runner from the parent's objects.
# ----------------------------------------------------------------------
_WORKER_RUNNER = None
_WORKER_BANKS: Dict[str, "ControllerBank"] = {}


def _init_worker(
    config, calib, core_config, workloads, cache_root, population, banks,
    obs_enabled,
) -> None:
    """Build this worker's private runner on the parent's population.

    ``banks`` maps environment names to the Fuzzy-Dyn banks the parent
    holds for this campaign; ``cache_root`` is the artifact cache
    (``None`` when the caller disabled caching), so ``--no-cache`` runs
    skip the measurement cache in workers too.
    """
    global _WORKER_RUNNER, _WORKER_BANKS
    from .runner import ExperimentRunner

    # Fork-started workers inherit the parent's metric state; start from a
    # clean slate so drained deltas only ever contain this worker's work.
    obs.metrics_registry().clear()
    # The workers already fill the cores: sweep without the helper thread.
    run_sweeps_serially()
    if obs_enabled:
        obs.enable()
    else:
        obs.disable()
    _WORKER_BANKS = banks
    _WORKER_RUNNER = ExperimentRunner(
        config,
        calib,
        workloads=workloads,
        core_config=core_config,
        cache=ExperimentCache(cache_root) if cache_root else None,
        population=population,
    )


def _worker_block(env, mode, units):
    """Run one contiguous block of same-cell units in a pool worker.

    Returns, per unit in order, its record dicts or its
    :class:`UnitExecutionError` (:func:`run_units_guarded`), plus the
    worker's metric delta.
    """
    outcomes = run_units_guarded(
        _WORKER_RUNNER, env, mode, units, bank=_WORKER_BANKS.get(env.name)
    )
    return (
        [
            outcome if isinstance(outcome, UnitExecutionError)
            else [row.to_dict() for row in outcome]
            for outcome in outcomes
        ],
        obs.metrics_registry().drain(),
    )


# ----------------------------------------------------------------------
# Parent-side orchestration.
# ----------------------------------------------------------------------
def _resolve_cache(runner, spec: RunSpec) -> Optional[ExperimentCache]:
    if not spec.use_cache:
        return None
    if spec.cache_dir is not None and (
        runner.cache is None
        or Path(spec.cache_dir).resolve() != runner.cache.root.resolve()
    ):
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
                # As few blocks per cell as MAX_BLOCK_UNITS allows: each
                # block's units advance through one population-batched
                # program.
                blocks = _cell_blocks(runner, pending, 1)
                computed = _summarise_blocks(blocks, [
                    _unit_rows(run_units_guarded(
                        runner, env, mode, units, workloads, cache=cache
                    ))
                    for env, mode, units in blocks
                ])
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

    # Attach the campaign snapshot, merged across the --jobs workers, to
    # every summary this call actually computed (cache hits keep whatever
    # metrics they were saved with), then fold the campaign into the
    # ambient process registry.
    if obs.enabled():
        metrics_doc = campaign.to_dict()
        for cell in computed_cells:
            result.summaries[cell].metrics = metrics_doc
        obs.metrics_registry().merge(campaign)
    return result


class SupervisedExecutor:
    """A supervised process pool executing campaign units.

    Owns a :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
    are initialised with a runner's specs, population and banks
    (:func:`_init_worker`), submits ``_worker_block`` shards, and
    reassembles results in submission order.  A unit failure comes back as the worker's own
    :class:`UnitExecutionError` and is re-raised as is; worker metric
    deltas are merged into the campaign registry so ``--jobs N`` totals
    cover every worker.
    """

    def __init__(
        self,
        runner,
        workloads: Sequence[WorkloadProfile],
        cache: Optional[ExperimentCache],
        banks: Dict[str, "ControllerBank"],
        max_workers: int,
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
                runner.population,
                banks,
                obs.enabled(),
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

        The first failed unit raises its own :class:`UnitExecutionError`.
        A block that fails outside any unit (the worker died) is blamed
        on the block's first unit.
        """
        from .runner import PhaseResult

        futures = {
            self._pool.submit(_worker_block, env, mode, tuple(units)): index
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
                for records in _unit_rows(unit_records)
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
    # Workers get the banks with the population, through the pool
    # initializer; bank_for persists them only where a cache is set.
    banks = {
        env.name: runner.bank_for(env, cache=cache)
        for env, mode, _ in pending
        if mode is AdaptationMode.FUZZY_DYN
    }
    n_units = len(pending) * runner.config.n_chips * runner.config.cores_per_chip
    # Honour the requested parallelism (the caller knows the machine);
    # never spin up more workers than there are units to run.
    max_workers = min(spec.parallelism, n_units)
    # Each cell's unit list is cut into contiguous blocks, one per
    # worker (more where MAX_BLOCK_UNITS requires), so every worker
    # amortises its share of the population into batched programs.
    blocks = _cell_blocks(runner, pending, max_workers)
    log.debug(
        "sharding %d units (%d blocks) across %d workers",
        n_units, len(blocks), max_workers,
    )
    with SupervisedExecutor(
        runner, workloads, cache, banks, max_workers
    ) as pool:
        block_rows = pool.run_unit_blocks(blocks, campaign)
    return _summarise_blocks(blocks, block_rows)
