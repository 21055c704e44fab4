"""Adversarial workload search: evolve profiles against the EVAL stack.

A small genetic loop in the spirit of the variability-aware workload
synthesis line of work (arxiv 2404.04258): a population of
:class:`WorkloadProfile` genomes is mutated and recombined, and fitness
is measured by actually running each candidate through the repro —
a one-cell :class:`~repro.exps.engine.RunSpec` submitted to a
:class:`~repro.serve.service.CampaignService` (in-process, or a remote
daemon now that non-suite profiles cross the wire inline).  The service
is the fitness oracle on purpose: identical candidates coalesce, and the
content-addressed summary cache serves repeated evaluations — elites
re-scored every generation, children that mutate back into a seen
genome, warm re-runs of a whole evolve — from disk instead of
recomputing.  An in-loop memo keyed by
:meth:`WorkloadProfile.content_hash` makes those hits explicit
(``workloads.evals_cached``).

Determinism: one ``np.random.default_rng(config.seed)`` stream drives
every draw in strict program order, candidate names are derived from
(generation, slot), and ranking ties break on the content hash — so a
pinned seed reproduces the same winner hash run after run, process after
process.

Objectives (all maximised):

* ``error-frac`` — the phase-weighted fraction of adaptation outcomes in
  the ``Error`` regime (timing-speculation recovery pressure);
* ``power`` — the suite's mean power draw (thermal pressure);
* ``perf-loss`` — negated relative performance (find what the
  techniques help least).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.environments import AdaptationMode, by_name
from ..exps.dse.drive import error_fraction
from ..exps.engine import RunSpec
from ..exps.runner import SuiteSummary
from ..microarch.isa import Uop
from ..microarch.workloads import WorkloadProfile
from .ingest import _normalise_fractions

#: Named fitness objectives; every function maps a cell's
#: :class:`SuiteSummary` to a score to maximise.
OBJECTIVES: Dict[str, Callable[[SuiteSummary], float]] = {
    "error-frac": error_fraction,
    "power": lambda summary: summary.power,
    "perf-loss": lambda summary: -summary.perf_rel,
}

_RATE_FIELDS = (
    "branch_misp_rate", "l1d_miss_rate", "l2_miss_rate", "icache_miss_rate",
)

_MIN_INT_ALU = 0.02


@dataclass(frozen=True)
class EvolveConfig:
    """Knobs of one adversarial search."""

    environment: str = "TS"
    mode: str = "Exh-Dyn"
    objective: str = "error-frac"
    generations: int = 4
    population: int = 6
    elite: int = 2
    mutation_scale: float = 0.25
    crossover_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r} "
                f"(available: {sorted(OBJECTIVES)})"
            )
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 1 <= self.elite < self.population:
            raise ValueError("need 1 <= elite < population")
        if self.mutation_scale <= 0.0:
            raise ValueError("mutation_scale must be positive")
        by_name(self.environment)  # raises KeyError on unknown names
        AdaptationMode(self.mode)


@dataclass
class EvolutionResult:
    """The winner and the audit trail of one evolve run."""

    winner: WorkloadProfile
    winner_hash: str
    fitness: float
    objective: str
    ranking: List[Tuple[WorkloadProfile, float]] = field(repr=False)
    history: List[Dict[str, float]] = field(default_factory=list)
    evals_submitted: int = 0
    evals_cached: int = 0


# ----------------------------------------------------------------------
# Genome operators.
# ----------------------------------------------------------------------
def _clamp_rate(value: float) -> float:
    return float(min(1.0, max(0.0, value)))


def _jitter(rng: np.random.Generator, scale: float) -> float:
    return float(np.exp(rng.normal(0.0, scale)))


def _fix_mix(mix: Dict[Uop, float]) -> Dict[Uop, float]:
    """Renormalise a jittered mix exactly, keeping the ALU floor."""
    mix = {kind: max(0.0, value) for kind, value in mix.items()}
    if mix.get(Uop.INT_ALU, 0.0) < _MIN_INT_ALU:
        mix[Uop.INT_ALU] = _MIN_INT_ALU
    return _normalise_fractions(
        {kind: value for kind, value in mix.items() if value > 0.0}
    )


def mutate_profile(
    profile: WorkloadProfile,
    rng: np.random.Generator,
    *,
    scale: float = 0.25,
    name: Optional[str] = None,
) -> WorkloadProfile:
    """One mutation step: multiplicative jitter on every genome field.

    Rates stay in [0, 1], the dependency distance stays >= 1, the mix is
    re-closed exactly, and phase weights re-normalise — the child always
    passes the profile validator.
    """
    mix = {
        kind: value * _jitter(rng, scale * 0.5)
        for kind, value in profile.mix.items()
    }
    rates = {
        field_name: _clamp_rate(getattr(profile, field_name) * _jitter(rng, scale))
        for field_name in _RATE_FIELDS
    }
    phases = profile.phases
    if len(phases) > 1:
        weights = _normalise_fractions(
            {i: p.weight * _jitter(rng, scale * 0.5)
             for i, p in enumerate(phases)}
        )
        phases = tuple(
            replace(
                p,
                weight=weights[i],
                l2_scale=max(0.0, p.l2_scale * _jitter(rng, scale * 0.5)),
                ilp_scale=max(0.0, p.ilp_scale * _jitter(rng, scale * 0.5)),
            )
            for i, p in enumerate(phases)
        )
    return replace(
        profile,
        name=name if name is not None else profile.name,
        mix=_fix_mix(mix),
        dep_mean_distance=max(1.0, profile.dep_mean_distance * _jitter(rng, scale)),
        phases=phases,
        **rates,
    )


def crossover_profiles(
    a: WorkloadProfile,
    b: WorkloadProfile,
    rng: np.random.Generator,
    *,
    name: str,
) -> WorkloadProfile:
    """Field-level recombination of two parents (child named ``name``)."""
    if a.domain != b.domain:
        # Cross-domain mixes do not blend meaningfully; inherit from a.
        return replace(a, name=name)
    union = set(a.mix) | set(b.mix)
    mix = _fix_mix({
        kind: 0.5 * (a.mix.get(kind, 0.0) + b.mix.get(kind, 0.0))
        for kind in union
    })

    def pick(field_name: str) -> float:
        parent = a if rng.random() < 0.5 else b
        return getattr(parent, field_name)

    phases = (a if rng.random() < 0.5 else b).phases
    return WorkloadProfile(
        name=name,
        domain=a.domain,
        mix=mix,
        dep_mean_distance=pick("dep_mean_distance"),
        branch_misp_rate=pick("branch_misp_rate"),
        l1d_miss_rate=pick("l1d_miss_rate"),
        l2_miss_rate=pick("l2_miss_rate"),
        icache_miss_rate=pick("icache_miss_rate"),
        phases=phases,
    )


# ----------------------------------------------------------------------
# Fitness oracle.
# ----------------------------------------------------------------------
class _Oracle:
    """Scores profiles through a campaign service, memoised by hash."""

    def __init__(self, client, config: EvolveConfig, window: int, registry):
        self.client = client
        self.spec_env = by_name(config.environment)
        self.spec_mode = AdaptationMode(config.mode)
        self.score = OBJECTIVES[config.objective]
        self.window = max(1, window)
        # Counters go to the registry active at evolve() entry, pinned:
        # service scheduler threads push their own scoped campaign
        # registries onto the shared stack while we run, and plain
        # obs.inc() would land there instead of the caller's scope.
        self.registry = registry
        self.memo: Dict[str, float] = {}
        self.submitted = 0
        self.cached = 0

    def _summary(self, payload) -> SuiteSummary:
        # A remote client returns the wire payload; an in-process
        # CampaignService returns a RunResult.
        if isinstance(payload, dict):
            from ..serve.protocol import summaries_from_wire

            cells = summaries_from_wire(payload["cells"])
        else:
            cells = payload.summaries
        return cells[(self.spec_env.name, self.spec_mode.value)]

    def evaluate(
        self, population: Sequence[WorkloadProfile]
    ) -> List[float]:
        """Fitness of every member (memo first, then windowed submits)."""
        hashes = [profile.content_hash() for profile in population]
        pending: List[Tuple[str, str]] = []  # (hash, job_id)

        def drain_one() -> None:
            content_hash, job_id = pending.pop(0)
            summary = self._summary(self.client.result(job_id))
            self.memo[content_hash] = float(self.score(summary))

        queued = set()
        for profile, content_hash in zip(population, hashes):
            if content_hash in self.memo:
                self.cached += 1
                self.registry.counter("workloads.evals_cached").inc()
                continue
            if content_hash in queued:
                continue  # an identical twin is already in flight
            queued.add(content_hash)
            if len(pending) >= self.window:
                drain_one()
            spec = RunSpec(
                environments=(self.spec_env,),
                modes=(self.spec_mode,),
                workloads=(profile,),
            )
            pending.append((content_hash, self.client.submit(spec)))
            self.submitted += 1
            self.registry.counter("workloads.evals").inc()
        while pending:
            drain_one()
        return [self.memo[content_hash] for content_hash in hashes]


# ----------------------------------------------------------------------
# The loop.
# ----------------------------------------------------------------------
def evolve(
    seeds: Sequence[WorkloadProfile],
    *,
    config: Optional[EvolveConfig] = None,
    runner=None,
    settings=None,
    service: Optional[str] = None,
) -> EvolutionResult:
    """Run the genetic loop; returns the ranked :class:`EvolutionResult`.

    Args:
        seeds: Initial gene pool (a generated family, ingested profiles,
            or suite members).  Fewer seeds than ``config.population``
            are topped up by mutation.
        config: Loop knobs (:class:`EvolveConfig`).
        runner: The :class:`~repro.exps.runner.ExperimentRunner` behind
            the in-process fitness oracle (default: built from
            ``settings``).  Ignored when ``service`` is given.
        settings: :class:`~repro.config.Settings` for the ephemeral
            service / default runner (cache dir, admission window...).
        service: ``host:port`` of a running campaign daemon — candidate
            profiles cross the wire inline and are scored remotely.
    """
    if not seeds:
        raise ValueError("evolve needs at least one seed profile")
    config = config if config is not None else EvolveConfig()
    rng = np.random.default_rng(config.seed)

    registry = obs.metrics_registry()

    def run(client, window: int) -> EvolutionResult:
        oracle = _Oracle(client, config, window, registry)
        population = _initial_population(list(seeds), config, rng)
        history: List[Dict[str, float]] = []
        ranked: List[Tuple[WorkloadProfile, float]] = []
        for generation in range(config.generations):
            with obs.span("workloads.generation", index=generation):
                fitnesses = oracle.evaluate(population)
            ranked = sorted(
                zip(population, fitnesses),
                key=lambda pair: (-pair[1], pair[0].content_hash()),
            )
            registry.counter("workloads.generations").inc()
            best_profile, best_fitness = ranked[0]
            entry = {
                "generation": float(generation),
                "best": best_fitness,
                "mean": float(np.mean(fitnesses)),
            }
            history.append(entry)
            obs.emit_event(
                "workloads.generation",
                index=generation,
                best=best_fitness,
                best_hash=best_profile.content_hash(),
                mean=entry["mean"],
                cached=oracle.cached,
                submitted=oracle.submitted,
            )
            if generation < config.generations - 1:
                population = _next_generation(ranked, config, rng, generation)
        winner, fitness = ranked[0]
        return EvolutionResult(
            winner=winner,
            winner_hash=winner.content_hash(),
            fitness=fitness,
            objective=config.objective,
            ranking=ranked,
            history=history,
            evals_submitted=oracle.submitted,
            evals_cached=oracle.cached,
        )

    if service is not None:
        from ..serve.daemon import ServiceClient

        window = settings.service_max_jobs if settings is not None else 4
        return run(ServiceClient(service), window)

    from ..config import Settings
    from ..serve.service import CampaignService

    settings = settings if settings is not None else Settings()
    if runner is None:
        from ..exps.runner import ExperimentRunner

        runner = ExperimentRunner.from_settings(settings)
    with CampaignService(runner, settings=settings) as svc:
        return run(svc, settings.service_max_jobs)


def _initial_population(
    seeds: List[WorkloadProfile],
    config: EvolveConfig,
    rng: np.random.Generator,
) -> List[WorkloadProfile]:
    population = seeds[: config.population]
    slot = 0
    while len(population) < config.population:
        parent = seeds[int(rng.integers(len(seeds)))]
        population.append(
            mutate_profile(
                parent, rng,
                scale=config.mutation_scale,
                name=f"{parent.name}~m{slot}",
            )
        )
        slot += 1
    return population


def _next_generation(
    ranked: Sequence[Tuple[WorkloadProfile, float]],
    config: EvolveConfig,
    rng: np.random.Generator,
    generation: int,
) -> List[WorkloadProfile]:
    """Elites survive unchanged; the rest are bred from rank-weighted
    parents.  Unchanged elites are the cache's best friend: their
    re-evaluation next generation is a guaranteed memo/cache hit."""
    elites = [profile for profile, _ in ranked[: config.elite]]
    children: List[WorkloadProfile] = []
    # Rank-weighted parent choice: rank i gets weight (n - i).
    weights = np.arange(len(ranked), 0, -1, dtype=float)
    weights = weights / weights.sum()
    while len(elites) + len(children) < config.population:
        slot = len(children)
        name = f"evolved-g{generation + 1}-{slot:02d}"
        i = int(rng.choice(len(ranked), p=weights))
        parent = ranked[i][0]
        if len(ranked) > 1 and rng.random() < config.crossover_rate:
            j = int(rng.choice(len(ranked), p=weights))
            other = ranked[j][0]
            child = crossover_profiles(parent, other, rng, name=name)
            child = mutate_profile(
                child, rng, scale=config.mutation_scale, name=name
            )
        else:
            child = mutate_profile(
                parent, rng, scale=config.mutation_scale, name=name
            )
        children.append(child)
    return elites + children
