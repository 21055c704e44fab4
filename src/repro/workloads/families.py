"""Parameterized workload families: seeded datacenter-style generators.

A :class:`WorkloadFamily` is a distribution over workload profiles — a
range for every knob a :class:`~repro.microarch.workloads.WorkloadProfile`
has (mix composition, dependency distance, miss rates, phase count and
per-phase scale spreads).  ``family.generate(size, seed)`` draws a
deterministic fleet: member *i* gets its own RNG stream keyed by
``crc32(f"{family}/{seed}/{i}")`` (the cross-process-deterministic
discipline of :mod:`repro.microarch.phases`), so the same ref always
yields bit-identical profiles — and therefore identical content hashes
and cache keys — on any host, and generating a 100-profile fleet gives
the same member 7 as generating a 10-profile one.

Three presets mirror the datacenter mixes the VFS-characterization line
of work sweeps (arxiv 2106.09975): ``bursty`` (compute phases punctuated
by memory-traffic bursts), ``phase_heavy`` (many distinct phases with
wide ILP/locality spread), and ``memory_bound`` (high miss-rate fleets
where frequency is worth the least).

Family references are compact strings — ``"bursty:6:42"`` is preset
``bursty``, 6 members, seed 42 — usable as a DSE sweep axis
(``workload_family``) and on every CLI.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .. import obs
from ..microarch.isa import Uop
from ..microarch.workloads import FP, INT, PhaseSpec, WorkloadProfile

#: Default fleet size / seed when a family ref omits them.
DEFAULT_SIZE = 4
DEFAULT_SEED = 0

#: No phase may shrink below this weight (detector-visible structure).
_MIN_PHASE_WEIGHT = 0.05

#: The integer-ALU floor: mutation/generation keeps every mix runnable.
_MIN_INT_ALU = 0.05


@dataclass(frozen=True)
class Range:
    """A closed interval a family knob is drawn from (uniform or log)."""

    low: float
    high: float
    log: bool = False

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"range high {self.high} < low {self.low}")
        if self.log and self.low <= 0.0:
            raise ValueError("log ranges need a positive lower bound")

    def sample(self, rng: np.random.Generator) -> float:
        if self.low == self.high:
            return self.low
        if self.log:
            return float(
                np.exp(rng.uniform(np.log(self.low), np.log(self.high)))
            )
        return float(rng.uniform(self.low, self.high))

    @classmethod
    def fixed(cls, value: float) -> "Range":
        return cls(value, value)


@dataclass(frozen=True)
class WorkloadFamily:
    """A seeded distribution over :class:`WorkloadProfile` s.

    All fractions are drawn first, then the mix is closed exactly to 1
    (integer ALU absorbs the remainder, floored at 5%), so every member
    passes the profile validator bit-for-bit.
    """

    name: str
    domain: str = INT
    mem_fraction: Range = field(default_factory=lambda: Range(0.25, 0.40))
    fp_fraction: Range = field(default_factory=lambda: Range.fixed(0.0))
    branch_fraction: Range = field(default_factory=lambda: Range(0.10, 0.20))
    dep_mean: Range = field(default_factory=lambda: Range(2.0, 5.0))
    branch_misp: Range = field(default_factory=lambda: Range(0.01, 0.10))
    l1d_miss: Range = field(default_factory=lambda: Range(0.01, 0.10))
    l2_miss: Range = field(default_factory=lambda: Range(0.05, 0.40))
    icache_miss: Range = field(default_factory=lambda: Range(0.0005, 0.01))
    min_phases: int = 1
    max_phases: int = 3
    phase_l2_spread: Range = field(default_factory=lambda: Range(0.5, 2.0))
    phase_ilp_spread: Range = field(default_factory=lambda: Range(0.8, 1.25))
    phase_branch_spread: Range = field(default_factory=lambda: Range(0.8, 1.3))

    def __post_init__(self) -> None:
        if self.domain not in (INT, FP):
            raise ValueError(f"family domain must be {INT!r} or {FP!r}")
        if not 1 <= self.min_phases <= self.max_phases:
            raise ValueError("need 1 <= min_phases <= max_phases")

    # ------------------------------------------------------------------
    def member_seed(self, seed: int, index: int) -> int:
        """The deterministic RNG key of member ``index`` under ``seed``."""
        return zlib.crc32(f"{self.name}/{seed}/{index}".encode())

    def generate_one(self, seed: int, index: int) -> WorkloadProfile:
        """Draw member ``index`` of the fleet seeded by ``seed``."""
        rng = np.random.default_rng(self.member_seed(seed, index))

        mem = self.mem_fraction.sample(rng)
        fp = self.fp_fraction.sample(rng)
        branch = self.branch_fraction.sample(rng)
        int_mul = float(rng.uniform(0.005, 0.03))
        int_alu = 1.0 - mem - fp - branch - int_mul
        if int_alu < _MIN_INT_ALU:
            # Rescale the drawn fractions to leave the ALU floor intact.
            drawn = mem + fp + branch + int_mul
            scale = (1.0 - _MIN_INT_ALU) / drawn
            mem, fp, branch, int_mul = (
                mem * scale, fp * scale, branch * scale, int_mul * scale,
            )
            int_alu = _MIN_INT_ALU
        loads = mem * 0.7
        mix: Dict[Uop, float] = {
            Uop.INT_ALU: int_alu,
            Uop.INT_MUL: int_mul,
            Uop.LOAD: loads,
            Uop.STORE: mem - loads,
            Uop.BRANCH: branch,
        }
        if fp > 0.0:
            mix[Uop.FP_ADD] = fp * 0.55
            mix[Uop.FP_MUL] = fp * 0.45
        # Close the sum exactly: the ALU entry absorbs the residual.
        mix[Uop.INT_ALU] += 1.0 - sum(mix.values())

        n_phases = int(rng.integers(self.min_phases, self.max_phases + 1))
        phases = self._draw_phases(rng, n_phases)

        return WorkloadProfile(
            name=f"{self.name}-{seed}-{index:03d}",
            domain=self.domain,
            mix=mix,
            dep_mean_distance=max(1.0, self.dep_mean.sample(rng)),
            branch_misp_rate=min(1.0, self.branch_misp.sample(rng)),
            l1d_miss_rate=min(1.0, self.l1d_miss.sample(rng)),
            l2_miss_rate=min(1.0, self.l2_miss.sample(rng)),
            icache_miss_rate=min(1.0, self.icache_miss.sample(rng)),
            phases=phases,
        )

    def _draw_phases(
        self, rng: np.random.Generator, n_phases: int
    ) -> Tuple[PhaseSpec, ...]:
        if n_phases <= 1:
            return (PhaseSpec("main", 1.0),)
        weights = rng.dirichlet(np.full(n_phases, 2.0))
        weights = np.maximum(weights, _MIN_PHASE_WEIGHT)
        weights = weights / weights.sum()
        specs = []
        for i in range(n_phases):
            weight = float(weights[i])
            if i == n_phases - 1:  # close the sum exactly
                weight = 1.0 - sum(s.weight for s in specs)
            specs.append(
                PhaseSpec(
                    name=f"phase-{i}",
                    weight=weight,
                    l2_scale=self.phase_l2_spread.sample(rng),
                    branch_scale=self.phase_branch_spread.sample(rng),
                    ilp_scale=self.phase_ilp_spread.sample(rng),
                )
            )
        return tuple(specs)

    def generate(
        self, size: int = DEFAULT_SIZE, seed: int = DEFAULT_SEED
    ) -> Tuple[WorkloadProfile, ...]:
        """Draw a deterministic fleet of ``size`` profiles."""
        if size < 1:
            raise ValueError("family size must be >= 1")
        profiles = tuple(
            self.generate_one(seed, index) for index in range(size)
        )
        obs.inc("workloads.profiles_generated", float(size))
        return profiles


# ----------------------------------------------------------------------
# Presets.
# ----------------------------------------------------------------------
def _preset_bursty() -> WorkloadFamily:
    """Compute-heavy services with bursts of memory traffic."""
    return WorkloadFamily(
        name="bursty",
        domain=INT,
        mem_fraction=Range(0.22, 0.34),
        branch_fraction=Range(0.12, 0.20),
        dep_mean=Range(2.5, 4.5),
        branch_misp=Range(0.04, 0.10),
        l1d_miss=Range(0.01, 0.05),
        l2_miss=Range(0.05, 0.25),
        min_phases=2,
        max_phases=4,
        phase_l2_spread=Range(0.3, 4.0, log=True),
        phase_ilp_spread=Range(0.7, 1.3),
    )


def _preset_phase_heavy() -> WorkloadFamily:
    """Many distinct phases with wide ILP / locality spread."""
    return WorkloadFamily(
        name="phase_heavy",
        domain=INT,
        mem_fraction=Range(0.24, 0.38),
        branch_fraction=Range(0.10, 0.18),
        dep_mean=Range(2.0, 6.0),
        branch_misp=Range(0.02, 0.09),
        l1d_miss=Range(0.02, 0.08),
        l2_miss=Range(0.10, 0.40),
        min_phases=3,
        max_phases=5,
        phase_l2_spread=Range(0.4, 2.5, log=True),
        phase_ilp_spread=Range(0.6, 1.6, log=True),
        phase_branch_spread=Range(0.6, 1.5),
    )


def _preset_memory_bound() -> WorkloadFamily:
    """High miss-rate FP fleets (frequency is worth the least here)."""
    return WorkloadFamily(
        name="memory_bound",
        domain=FP,
        mem_fraction=Range(0.30, 0.42),
        fp_fraction=Range(0.25, 0.40),
        branch_fraction=Range(0.03, 0.08),
        dep_mean=Range(4.0, 7.0),
        branch_misp=Range(0.005, 0.03),
        l1d_miss=Range(0.06, 0.18),
        l2_miss=Range(0.30, 0.70),
        min_phases=1,
        max_phases=3,
        phase_l2_spread=Range(0.6, 1.8),
        phase_ilp_spread=Range(0.85, 1.2),
    )


_PRESETS = {
    "bursty": _preset_bursty,
    "phase_heavy": _preset_phase_heavy,
    "memory_bound": _preset_memory_bound,
}


def family_names() -> Tuple[str, ...]:
    """The available preset family names."""
    return tuple(sorted(_PRESETS))


def family_by_name(name: str) -> WorkloadFamily:
    """Look up a preset family; raises ``KeyError`` on unknown names."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"no workload family named {name!r} "
            f"(available: {list(family_names())})"
        ) from None


# ----------------------------------------------------------------------
# Family references ("name:size:seed").
# ----------------------------------------------------------------------
def parse_family_ref(ref: str) -> Tuple[WorkloadFamily, int, int]:
    """Parse ``"name[:size[:seed]]"`` into (family, size, seed).

    This is the canonical form the DSE ``workload_family`` axis and the
    CLIs accept; :func:`canonical_family_ref` round-trips it with the
    defaults filled in, so equal fleets always get equal point ids.
    """
    parts = ref.split(":")
    if not 1 <= len(parts) <= 3 or not parts[0]:
        raise ValueError(
            f"family ref must be 'name[:size[:seed]]', got {ref!r}"
        )
    family = family_by_name(parts[0])
    try:
        size = int(parts[1]) if len(parts) > 1 else DEFAULT_SIZE
        seed = int(parts[2]) if len(parts) > 2 else DEFAULT_SEED
    except ValueError as exc:
        raise ValueError(
            f"family ref size/seed must be integers, got {ref!r}"
        ) from exc
    if size < 1:
        raise ValueError(f"family ref size must be >= 1, got {ref!r}")
    return family, size, seed


def canonical_family_ref(ref: str) -> str:
    """Normalise a ref to the full ``name:size:seed`` form."""
    family, size, seed = parse_family_ref(ref)
    return f"{family.name}:{size}:{seed}"


def generate_family_ref(ref: str) -> Tuple[WorkloadProfile, ...]:
    """Generate the fleet a ``name[:size[:seed]]`` ref describes."""
    family, size, seed = parse_family_ref(ref)
    return family.generate(size, seed)
