"""Request coalescing: one in-flight cell per content-addressed key.

The unit of sharing is the *cell* — one (environment, mode) pair of a
:class:`~repro.exps.engine.RunSpec`, addressed by the same
:func:`~repro.exps.cache.summary_key` the artifact cache uses.  Two jobs
whose specs overlap resolve to the same key, so the second job *follows*
the first cell instead of enqueueing duplicate work; each (chip, core)
unit inside the cell is computed exactly once and the finished summary is
delivered to every follower (and written once to the summary cache).

The registry only tracks cells that are currently in flight.  Once a
cell completes — or is poisoned — it leaves the registry: completed cells
are served from the disk cache on the next submission, and poisoned ones
get a fresh chance rather than being failed forever.

:func:`run_block` is where a block of a cell's units meets the physics:
the service's threads execute every unit through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.environments import AdaptationMode, Environment
from ..exps.cache import unit_key
from ..exps.engine import UnitExecutionError, run_units_guarded
from ..exps.runner import PhaseResult, SuiteSummary
from ..microarch.workloads import WorkloadProfile
from .jobs import CellFailure, Job

#: Chip index of the pseudo-unit backing a NoVar cell (no population
#: dimension: the whole cell is one ``novar_summary`` call).
NOVAR_CHIP = -1


@dataclass
class UnitTask:
    """One (chip, core) shard of a cell."""

    chip_index: int
    core_index: int
    key: str
    rows: Optional[List[PhaseResult]] = None
    attempts: int = 0  # failed attempts charged against the retry budget


@dataclass
class CellTask:
    """One in-flight (environment, mode) cell, shared across jobs."""

    key: str
    env: Environment
    mode: AdaptationMode
    workloads: Tuple[WorkloadProfile, ...]
    units: List[UnitTask] = field(default_factory=list)
    followers: List[Job] = field(default_factory=list)
    pending_units: int = 0
    started: bool = False
    live: bool = True  # False once abandoned (no followers left) or poisoned
    summary: Optional[SuiteSummary] = None
    failure: Optional[CellFailure] = None

    @property
    def cell(self) -> Tuple[str, str]:
        return (self.env.name, self.mode.value)

    def rows_in_order(self) -> List[PhaseResult]:
        """Concatenate unit rows in decomposition order.

        Completion order is scheduler-dependent; reassembly order is not —
        which is what keeps service summaries bit-identical to a direct
        serial ``ExperimentRunner.run``.
        """
        rows: List[PhaseResult] = []
        for unit in self.units:
            rows.extend(unit.rows or [])
        return rows


def build_cell(
    key: str,
    env: Environment,
    mode: AdaptationMode,
    workloads: Sequence[WorkloadProfile],
    n_chips: int,
    cores_per_chip: int,
) -> CellTask:
    """Decompose one cell into its (chip, core) unit tasks.

    NoVar cells have no population dimension and get a single pseudo-unit
    (chip index :data:`NOVAR_CHIP`) that the executor maps to
    ``novar_summary``.
    """
    cell = CellTask(key=key, env=env, mode=mode, workloads=tuple(workloads))
    if not env.variation:
        cell.units = [UnitTask(NOVAR_CHIP, 0, unit_key(key, NOVAR_CHIP, 0))]
    else:
        cell.units = [
            UnitTask(chip, core, unit_key(key, chip, core))
            for chip in range(n_chips)
            for core in range(cores_per_chip)
        ]
    cell.pending_units = len(cell.units)
    return cell


def run_block(
    runner,
    env: Environment,
    mode: AdaptationMode,
    workloads: Sequence[WorkloadProfile],
    units: Sequence[Tuple[int, int]],
) -> List[Union[List[PhaseResult], UnitExecutionError]]:
    """Run one same-cell block of ``(chip, core)`` units.

    The executor of the service's threads.  The NoVar pseudo-unit (always
    alone in its block) is one ``novar_summary`` call; every other block
    goes through :func:`~repro.exps.engine.run_units_guarded`, which
    fetches the Fuzzy-Dyn bank inside its guard.  Returns, per unit in
    order, its rows or the :class:`~repro.exps.engine.UnitExecutionError`
    naming it — a failure is an outcome to report, never an escaping
    exception.
    """
    if units[0][0] == NOVAR_CHIP:
        try:
            return [runner.novar_summary(list(workloads)).results]
        except Exception as exc:
            return [UnitExecutionError(
                env.name, mode.value, NOVAR_CHIP, 0, cause=exc
            )]
    return run_units_guarded(runner, env, mode, units, list(workloads))


class InFlightRegistry:
    """The key -> live :class:`CellTask` map behind coalescing.

    Not internally locked: the service serialises every mutation under
    its own lock, and the registry is an implementation detail of it.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, CellTask] = {}

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, key: str) -> Optional[CellTask]:
        """The in-flight cell for a key, if any."""
        return self._cells.get(key)

    def add(self, cell: CellTask) -> None:
        self._cells[cell.key] = cell

    def finish(self, key: str) -> None:
        """Retire a completed/poisoned/abandoned cell from the registry."""
        self._cells.pop(key, None)
