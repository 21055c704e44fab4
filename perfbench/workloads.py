"""The three workloads: their scale, and the inputs generated from a seed.

Everything here is plain data; nothing imports ``repro``, so the
orchestrator can load it before it knows whether the program exists.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("ladder_cold", "population_warm", "service_mixed")

ADAPTIVE_ENVS = ("TS", "TS+ASV", "TS+ASV+ABB", "TS+ASV+Q", "TS+ASV+Q+FU", "ALL")
MODES = ("Static", "Fuzzy-Dyn", "Exh-Dyn")
#: The ladder's two anchor cells (what ``run_ladder`` computes them as).
ANCHORS = (("Baseline", "NoVar"), ("Exh-Dyn",))

#: Scale per workload.  ``tiny`` is the smoke-test scale.
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "ladder_cold": dict(chips=2, cores=1, fc_examples=500,
                            n_instructions=12000),
        "population_warm": dict(chips=6, cores=2, fc_examples=500,
                                n_instructions=12000),
        "service_mixed": dict(chips=2, cores=1, fc_examples=500,
                              n_instructions=12000, envs=6, jobs=99,
                              workers=2, outstanding=2),
    },
    "tiny": {
        "ladder_cold": dict(chips=1, cores=1, fc_examples=100,
                            n_instructions=3000),
        "population_warm": dict(chips=1, cores=2, fc_examples=100,
                                n_instructions=3000),
        "service_mixed": dict(chips=1, cores=1, fc_examples=100,
                              n_instructions=3000, envs=2, jobs=27,
                              workers=2, outstanding=2),
    },
}

#: The population / trace / training seed of every workload: the
#: ``RunnerConfig`` default, pinned so that simulated results repeat
#: exactly and two commits compare exactly.  ``--seed`` varies what the
#: program is asked, not the physics: the order of the ladder's
#: environments, and the service's job stream.
PHYSICS_SEED = 7

Job = Tuple[Tuple[str, ...], Tuple[str, ...]]


def env_order(seed: int) -> List[str]:
    """The seeded order in which a ladder runs its adaptive environments.

    Results must not depend on it; the row digest is taken in the
    canonical order, so it is the same for every seed.
    """
    order = list(ADAPTIVE_ENVS)
    random.Random(seed).shuffle(order)
    return order


def units_of(job: Job, chips: int, cores: int) -> int:
    """(env, mode, chip, core) units one job delivers; NoVar has one."""
    envs, modes = job
    return sum(1 if env == "NoVar" else chips * cores
               for env in envs for _ in modes)


def ladder_units(chips: int, cores: int) -> int:
    """Units of the full Fig 10-12 ladder (adaptive grid plus anchors)."""
    return len(ADAPTIVE_ENVS) * len(MODES) * chips * cores + chips * cores + 1


def job_stream(seed: int, n_jobs: int, n_envs: int) -> List[Job]:
    """A seeded stream of overlapping (environments x modes) jobs.

    The stream has the same shape for every seed, which is what keeps
    its latency percentiles comparable across seeds; the seed picks the
    environments, the mode order and which cells the reads ask for.

    * The anchors (Baseline and NoVar) come first.
    * Then one job per adaptive cell, mode by mode: each computes its new
      cell and asks again for the cell introduced just before it, which
      is usually still in flight, so it coalesces.
    * Then read jobs up to ``n_jobs``: rectangles of fixed, cycling
      shapes over the cells, which are cached or, right after the last
      computes, still in flight.
    """
    rng = random.Random(seed)
    envs = list(ADAPTIVE_ENVS)
    rng.shuffle(envs)
    envs = envs[:n_envs]
    modes = list(MODES)
    rng.shuffle(modes)
    jobs: List[Job] = [ANCHORS]
    for mode in modes:
        order = rng.sample(envs, len(envs))
        jobs.append(((order[0],), (mode,)))
        jobs.extend(((new, previous), (mode,))
                    for previous, new in zip(order, order[1:]))
    shapes = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
    for index in range(n_jobs - len(jobs)):
        n_env, n_mode = shapes[index % len(shapes)]
        jobs.append((tuple(rng.sample(envs, min(n_env, len(envs)))),
                     tuple(rng.sample(MODES, n_mode))))
    return jobs


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ascending values."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` samples above it
    (nearest rank); 100, the maximum, when no percentile from the median
    up has that many."""
    for q in range(99, 49, -1):
        if n - -(-n * q // 100) >= beyond:
            return q
    return 100
