"""Synthetic phase streams: the input generator of the phase-detector tests.

Each phase of a synthetic profile carries a basic-block vector
signature: a fixed random direction per phase plus small per-interval
sampling noise, which is the stability/recurrence structure the
Sherwood-style detector (:class:`repro.microarch.phases.PhaseDetector`)
exploits on real codes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.microarch.phases import COUNTER_MAX, N_BUCKETS
from repro.microarch.workloads import PhaseSpec, WorkloadProfile


@dataclass(frozen=True)
class PhaseInstance:
    """One stable phase occurrence in an execution."""

    workload: str
    spec: PhaseSpec
    profile: WorkloadProfile  # the phase-specialised profile
    duration_ms: float
    signature: np.ndarray = field(repr=False)  # noiseless BBV direction

    def sample_bbv(self, rng: np.random.Generator, noise: float = 0.006) -> np.ndarray:
        """Return one noisy quantised BBV observation for this phase."""
        vector = self.signature + rng.normal(0.0, noise, N_BUCKETS)
        vector = np.clip(vector, 0.0, None)
        total = vector.sum()
        if total <= 0.0:
            vector = np.ones(N_BUCKETS)
            total = float(N_BUCKETS)
        return np.minimum(
            np.round(vector / total * 4.0 * COUNTER_MAX), COUNTER_MAX
        ).astype(np.int64)


def generate_phase_stream(
    profile: WorkloadProfile,
    total_ms: float = 2000.0,
    mean_phase_ms: float = 120.0,
    seed: int = 0,
) -> List[PhaseInstance]:
    """Generate a stream of stable phases for a workload.

    Phase kinds recur according to the profile's phase weights; durations
    are lognormal around ``mean_phase_ms`` (the paper's SPEC average is
    ~120 ms).  Each phase kind has a persistent BBV signature so the
    detector can recognise recurrences.
    """
    if total_ms <= 0.0:
        raise ValueError("total_ms must be positive")
    rng = np.random.default_rng(seed)
    specs = list(profile.phases)
    weights = np.array([p.weight for p in specs])
    weights = weights / weights.sum()

    signatures = {}
    for spec in specs:
        # zlib.crc32 is deterministic across processes, unlike hash().
        digest = zlib.crc32(f"{profile.name}/{spec.name}".encode())
        sig_rng = np.random.default_rng(digest)
        signature = sig_rng.dirichlet(np.ones(N_BUCKETS) * 0.5)
        signatures[spec.name] = signature

    stream: List[PhaseInstance] = []
    elapsed = 0.0
    last_name: Optional[str] = None
    while elapsed < total_ms:
        spec = specs[rng.choice(len(specs), p=weights)]
        if len(specs) > 1 and spec.name == last_name:
            continue  # phases alternate; a repeat is the same phase
        duration = float(
            np.clip(rng.lognormal(np.log(mean_phase_ms), 0.4), 20.0, 600.0)
        )
        stream.append(
            PhaseInstance(
                workload=profile.name,
                spec=spec,
                profile=profile.phase_profile(spec),
                duration_ms=min(duration, total_ms - elapsed),
                signature=signatures[spec.name],
            )
        )
        elapsed += duration
        last_name = spec.name
    return stream
