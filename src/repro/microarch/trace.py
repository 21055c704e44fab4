"""Reproducible synthetic trace generation from workload profiles.

A trace is a set of parallel numpy arrays, one entry per dynamic
instruction: micro-op kind, register-dependence distances, and the memory /
branch outcomes pre-drawn from the profile's rates.  Pre-drawing keeps the
pipeline model deterministic for a given ``(profile, seed)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .isa import Uop
from .workloads import WorkloadProfile


@dataclass(frozen=True)
class SyntheticTrace:
    """Parallel per-instruction arrays; see module docstring."""

    kinds: np.ndarray  # int8 Uop codes
    dep1: np.ndarray  # distance (instructions back) of first source, 0=none
    dep2: np.ndarray  # distance of second source, 0 = none
    branch_mispredict: np.ndarray  # bool, only meaningful for BRANCH
    l1_miss: np.ndarray  # bool, only meaningful for LOAD/STORE
    l2_miss: np.ndarray  # bool, implies l1_miss
    icache_miss: np.ndarray  # bool: fetch stalls for an L2 refill

    def __post_init__(self) -> None:
        n = len(self.kinds)
        for name in (
            "dep1", "dep2", "branch_mispredict", "l1_miss", "l2_miss",
            "icache_miss",
        ):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace array {name} has mismatched length")
        # The walks index their tables by kind and their completion logs
        # by distance: both must stay inside them.
        kinds = np.asarray(self.kinds)
        if n and (kinds.min() < 0 or kinds.max() >= len(Uop)):
            raise ValueError(f"trace kinds must be Uop codes 0..{len(Uop) - 1}")
        index = np.arange(n)
        for name in ("dep1", "dep2"):
            distance = np.asarray(getattr(self, name))
            if np.any(distance < 0) or np.any(distance > index):
                raise ValueError(
                    f"trace {name} distances must lie in [0, index]: an "
                    "instruction reads an earlier one or none"
                )

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def l2_misses_per_instruction(self) -> float:
        """The ``mr`` of Eq 5 for this trace."""
        return float(np.count_nonzero(self.l2_miss)) / len(self)

    def kind_fraction(self, kind: Uop) -> float:
        """Fraction of instructions of the given kind."""
        return float(np.count_nonzero(self.kinds == int(kind))) / len(self)


def generate_trace(
    profile: WorkloadProfile, n_instructions: int, seed: int = 0
) -> SyntheticTrace:
    """Draw a trace of ``n_instructions`` from a workload profile.

    Dependence distances are geometric with the profile's mean; a distance
    of ``k`` means the instruction reads the result of the instruction
    ``k`` slots earlier (clipped at the start of the trace).  Stores and
    branches take one source; loads take one address source; arithmetic
    takes two.
    """
    if n_instructions < 1:
        raise ValueError("need at least one instruction")
    rng = np.random.default_rng(seed)

    kinds_list = list(profile.mix.keys())
    probs = np.array([profile.mix[k] for k in kinds_list])
    codes = np.array([int(k) for k in kinds_list], dtype=np.int8)
    kinds = rng.choice(codes, size=n_instructions, p=probs / probs.sum())

    # Geometric dependence distances with the requested mean (mean of a
    # geometric(p) on {1,2,...} is 1/p).
    p = 1.0 / profile.dep_mean_distance
    dep1 = rng.geometric(p, size=n_instructions)
    dep2 = rng.geometric(p, size=n_instructions)
    index = np.arange(n_instructions)
    dep1 = np.minimum(dep1, index)  # cannot reach before the trace start
    dep2 = np.minimum(dep2, index)
    # Single-source kinds ignore dep2.
    single_source = np.isin(kinds, [int(Uop.LOAD), int(Uop.STORE), int(Uop.BRANCH)])
    dep2 = np.where(single_source, 0, dep2)

    is_branch = kinds == int(Uop.BRANCH)
    branch_misp = is_branch & (rng.random(n_instructions) < profile.branch_misp_rate)

    is_mem = np.isin(kinds, [int(Uop.LOAD), int(Uop.STORE)])
    l1_miss = is_mem & (rng.random(n_instructions) < profile.l1d_miss_rate)
    l2_miss = l1_miss & (rng.random(n_instructions) < profile.l2_miss_rate)
    icache_miss = rng.random(n_instructions) < profile.icache_miss_rate

    return SyntheticTrace(
        kinds=kinds,
        dep1=dep1.astype(np.int32),
        dep2=dep2.astype(np.int32),
        branch_mispredict=branch_misp,
        l1_miss=l1_miss,
        l2_miss=l2_miss,
        icache_miss=icache_miss,
    )
