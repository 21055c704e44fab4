"""Trace-driven out-of-order core timing model.

A one-pass timing simulation of a 3-issue out-of-order core in the style
of the paper's AMD-Athlon-64-like cores (Section 5): separate integer /
FP / memory issue queues (the int and FP queues are the resizable
structures of Section 3.3.2), a small set of functional units (the
replicable structures of Section 3.3.1), a ROB, and a non-blocking memory
hierarchy with the paper's 2/8/208-cycle round trips.

The model walks the trace once, computing for every instruction its
dispatch, issue, completion and retirement cycles under:

* fetch/issue/retire bandwidth,
* register dependences (from the trace's dependence distances),
* issue-queue / ROB occupancy (an instruction cannot dispatch while its
  queue is full — this is what makes CPI sensitive to queue downsizing),
* functional-unit structural hazards,
* branch-misprediction flushes (resolve-to-refetch loop), and
* cache misses (loads hold their dependents, not the pipeline).

This is the standard "interval" style of approximation: not
cycle-faithful to any RTL, but it reproduces the relative CPI effects the
paper's adaptation decisions depend on (queue size, extra execute stage,
memory-boundedness).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import obs
from .isa import Uop
from .trace import SyntheticTrace


@dataclass(frozen=True)
class CoreConfig:
    """Micro-architectural parameters of the simulated core."""

    fetch_width: int = 3
    issue_width: int = 3
    retire_width: int = 3
    int_queue_size: int = 68  # Figure 7(a): full-sized integer issue queue
    fp_queue_size: int = 32  # Figure 7(a): full-sized FP issue queue
    mem_queue_size: int = 48
    rob_size: int = 160
    n_int_alu: int = 3  # Figure 7(a): 3 add/shift
    n_int_mul: int = 1  # ... + 1 mult
    n_fp_add: int = 1
    n_fp_mul: int = 1
    n_mem_ports: int = 2
    frontend_depth: int = 8
    branch_penalty: int = 6  # redirect cycles after resolve
    extra_exec_stage: int = 0  # FU-replication pipeline stage (Sec 3.3.1)
    l1_latency: int = 3
    l2_latency: int = 12
    mem_latency: int = 208
    #: Fraction of L2 misses a (stride) prefetcher converts into L2 hits.
    #: 0 disables prefetching (the paper's configuration); the ablation
    #: benches use it to study memory-boundedness sensitivity.
    prefetch_accuracy: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "fetch_width",
            "issue_width",
            "retire_width",
            "int_queue_size",
            "fp_queue_size",
            "mem_queue_size",
            "rob_size",
            "n_int_alu",
            "n_int_mul",
            "n_fp_add",
            "n_fp_mul",
            "n_mem_ports",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in (
            "extra_exec_stage",
            "frontend_depth",
            "branch_penalty",
            "l1_latency",
            "l2_latency",
            "mem_latency",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if not 0.0 <= self.prefetch_accuracy <= 1.0:
            raise ValueError("prefetch_accuracy must be in [0, 1]")

    def with_resized_queue(self, domain: str, fraction: float = 0.75) -> "CoreConfig":
        """Return a config with the int or FP issue queue downsized.

        This is the Shift technique's CPI side: e.g. ``fraction=0.75``
        models the paper's 3/4-capacity configuration.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if domain == "int":
            return replace(
                self, int_queue_size=max(1, int(self.int_queue_size * fraction))
            )
        if domain == "fp":
            return replace(
                self, fp_queue_size=max(1, int(self.fp_queue_size * fraction))
            )
        raise ValueError("domain must be 'int' or 'fp'")

    def with_fu_replication(self) -> "CoreConfig":
        """Return a config with the extra execute stage of Section 3.3.1."""
        return replace(self, extra_exec_stage=1)


DEFAULT_CORE_CONFIG = CoreConfig()


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of one pipeline simulation."""

    instructions: int
    cycles: int
    kind_counts: Dict[int, int]
    l1_misses: int
    l2_misses: int
    branch_flushes: int
    int_queue_waits: int  # dispatches delayed by a full int queue
    fp_queue_waits: int

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles


# Functional-unit group and issue queue of each uop kind.  Groups:
# 0 int ALU (branches resolve there too), 1 int mul, 2 FP add, 3 FP mul,
# 4 memory ports.  Queues: 0 int, 1 FP, 2 memory.
_GROUP_AND_QUEUE = {
    Uop.INT_ALU: (0, 0),
    Uop.BRANCH: (0, 0),
    Uop.INT_MUL: (1, 0),
    Uop.FP_ADD: (2, 1),
    Uop.FP_MUL: (3, 1),
    Uop.LOAD: (4, 2),
    Uop.STORE: (4, 2),
}
# Lookup tables indexed by Uop code.
_FU_GROUP = np.array([_GROUP_AND_QUEUE[kind][0] for kind in Uop])
_QUEUE_OF = np.array([_GROUP_AND_QUEUE[kind][1] for kind in Uop])

#: A cycle earlier than any real one: the occupant of a still-empty slot.
_EMPTY_SLOT = -(1 << 62)


def simulate(
    trace: SyntheticTrace,
    config: CoreConfig = DEFAULT_CORE_CONFIG,
    *,
    suppress_l2_misses: bool = False,
) -> SimResult:
    """Run the timing model over a trace and return aggregate results.

    Args:
        trace: The synthetic instruction trace.
        config: Core configuration.
        suppress_l2_misses: Treat L2 misses as L2 hits.  Running the model
            twice (with and without) separates ``CPIcomp`` from the memory
            stall term of Eq 5.
    """
    return simulate_batch(trace, [(config, suppress_l2_misses)])[0]


def simulate_batch(
    trace: SyntheticTrace,
    variants: Sequence[Tuple[CoreConfig, bool]],
) -> List[SimResult]:
    """Run K independent ``(config, suppress_l2_misses)`` variants.

    The per-instruction trace columns (kind, queue, FU group, dependence
    distances, miss and misprediction flags) are decoded once and shared;
    each variant then takes its own :func:`_walk` over them.
    """
    if not variants:
        return []
    n = len(trace)
    kinds = trace.kinds.astype(np.int64)
    queues = _QUEUE_OF[kinds]
    misses_l1 = (queues == 2) & trace.l1_miss
    columns = (
        queues.tolist(),
        _FU_GROUP[kinds].tolist(),
        trace.dep1.tolist(),
        trace.dep2.tolist(),
        trace.icache_miss.tolist(),
        misses_l1.tolist(),
        (misses_l1 & trace.l2_miss).tolist(),
        ((kinds == int(Uop.BRANCH)) & trace.branch_mispredict).tolist(),
    )
    kind_list = kinds.tolist()
    counts = dict(Counter(kind_list))  # first-appearance order
    with obs.span("microarch.simulate", variants=len(variants)):
        results = [
            _walk(kind_list, columns, config, suppress)
            for config, suppress in variants
        ]
    obs.inc("microarch.sim_instructions", float(n * len(variants)))
    return [
        SimResult(
            instructions=n,
            cycles=cycles,
            kind_counts=dict(counts),
            l1_misses=l1_misses,
            l2_misses=l2_misses,
            branch_flushes=branch_flushes,
            int_queue_waits=int_waits,
            fp_queue_waits=fp_waits,
        )
        for cycles, l1_misses, l2_misses, branch_flushes, int_waits, fp_waits
        in results
    ]


def _walk(
    kinds: List[int], columns: Tuple[List, ...], config: CoreConfig,
    suppress: bool,
) -> Tuple[int, int, int, int, int, int]:
    """One pass of the timing model over decoded trace columns.

    Returns ``(cycles, l1_misses, l2_misses, branch_flushes,
    int_queue_waits, fp_queue_waits)``.  All machine state lives in
    local variables.  The in-order logs (retirement, per-queue issue
    times) start with :data:`_EMPTY_SLOT` sentinels, one per slot of the
    window they are read through, so ``log[-size]`` is the occupant that
    must leave before an instruction may enter, and a sentinel never
    binds.
    """
    fetch_width = config.fetch_width
    issue_width = config.issue_width
    rob_size = config.rob_size
    retire_width = config.retire_width
    frontend = config.frontend_depth + config.extra_exec_stage
    l2_latency = config.l2_latency
    mem_latency = config.mem_latency
    redirect_penalty = config.branch_penalty + config.extra_exec_stage
    prefetch = config.prefetch_accuracy > 0.0
    prefetch_cut = config.prefetch_accuracy * 1000
    latency_of = [0] * len(Uop)
    for kind, latency in (
        (Uop.INT_ALU, 1), (Uop.BRANCH, 1), (Uop.INT_MUL, 3),
        (Uop.FP_ADD, 4), (Uop.FP_MUL, 4), (Uop.STORE, 1),
        (Uop.LOAD, config.l1_latency),
    ):
        latency_of[kind] = latency
    fu_free = [
        [0] * config.n_int_alu,
        [0] * config.n_int_mul,
        [0] * config.n_fp_add,
        [0] * config.n_fp_mul,
        [0] * config.n_mem_ports,
    ]
    other_units = [range(1, len(units)) for units in fu_free]
    queue_size = (config.int_queue_size, config.fp_queue_size,
                  config.mem_queue_size)
    queue_log = [[_EMPTY_SLOT] * size for size in queue_size]
    queue_waits = [0, 0, 0]
    retire_log = [_EMPTY_SLOT] * max(rob_size, retire_width)
    completion: List[int] = []
    issued_in_cycle: Dict[int, int] = {}
    fetch_cycle = _EMPTY_SLOT  # fetch cycles never decrease: one pair
    fetch_count = 0
    fetch_ready = 0
    l1_misses = l2_misses = branch_flushes = 0

    for i, kind, queue, group, d1, d2, icache, miss1, miss2, flush in zip(
        range(len(kinds)), kinds, *columns
    ):
        # ---------------- fetch ----------------
        t_fetch = fetch_ready
        if icache:
            # Instruction fetch stalls for an L2 refill of the I-line.
            t_fetch += l2_latency
        if t_fetch != fetch_cycle:
            fetch_cycle = t_fetch
            fetch_count = 1
        elif fetch_count < fetch_width:
            fetch_count += 1
        else:
            t_fetch += 1
            fetch_cycle = t_fetch
            fetch_count = 1
        fetch_ready = t_fetch

        # ---------------- dispatch (rename + queue entry) --------------
        dispatch = t_fetch + frontend
        # ROB occupancy: the instruction rob_size places back must retire.
        blocker = retire_log[-rob_size]
        if blocker > dispatch:
            dispatch = blocker
        # Issue-queue occupancy (FIFO approximation).
        log = queue_log[queue]
        blocker = log[-queue_size[queue]]
        if blocker > dispatch:
            dispatch = blocker
            queue_waits[queue] += 1

        # ---------------- issue ----------------
        ready = dispatch
        if d1:
            done = completion[-d1]
            if done > ready:
                ready = done
        if d2:
            done = completion[-d2]
            if done > ready:
                ready = done
        # First free unit of the group (first minimum), fully pipelined.
        units = fu_free[group]
        unit = 0
        free = units[0]
        for other in other_units[group]:
            if units[other] < free:
                free = units[other]
                unit = other
        t_issue = ready if ready > free else free
        taken = issued_in_cycle.get(t_issue, 0)
        while taken >= issue_width:
            t_issue += 1
            taken = issued_in_cycle.get(t_issue, 0)
        issued_in_cycle[t_issue] = taken + 1
        units[unit] = t_issue + 1
        log.append(t_issue)

        # ---------------- execute / memory ----------------
        done = t_issue + latency_of[kind]
        if miss1:
            l1_misses += 1
            if (
                miss2
                and not suppress
                and not (prefetch and (i * 2654435761) % 1000 < prefetch_cut)
            ):
                l2_misses += 1
                done += mem_latency
            else:
                done += l2_latency
        completion.append(done)

        # ---------------- retire (in order) ----------------
        # Retire-width: the retire slot frees when the instruction
        # retire_width places earlier has retired.
        t_retire = retire_log[-1]
        if done > t_retire:
            t_retire = done
        slot = retire_log[-retire_width] + 1
        if slot > t_retire:
            t_retire = slot
        retire_log.append(t_retire)

        # ---------------- branch misprediction ----------------
        if flush:
            branch_flushes += 1
            redirect = done + redirect_penalty
            if redirect > fetch_ready:
                fetch_ready = redirect

    return (
        retire_log[-1] + 1, l1_misses, l2_misses, branch_flushes,
        queue_waits[0], queue_waits[1],
    )
