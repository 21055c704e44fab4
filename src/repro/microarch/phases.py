"""Program phases: Sherwood-style detection.

The adaptation runtime (Section 4.3) is driven by a hardware phase
detector [28]: basic-block execution frequencies are accumulated into a
32-bucket vector with 6-bit saturating counters (Figure 7(a)); when the
vector moves far from the current phase's signature, the detector fires,
and the controller either reuses a saved configuration (phase seen
before) or runs the fuzzy-controller routines.  Trace ingestion
(:mod:`repro.workloads.ingest`) runs the same detector over the windows
of a real instruction trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: Figure 7(a): 32 buckets with 6-bit saturating counters.
N_BUCKETS = 32
COUNTER_MAX = 63


@dataclass
class DetectedPhase:
    """Result of feeding one BBV interval to the detector."""

    phase_id: int
    is_new: bool
    changed: bool  # True when this interval starts a different phase


class PhaseDetector:
    """Sherwood-style BBV phase detector (Figure 7(a) parameters).

    Signatures are 32-bucket quantised vectors; two intervals belong to
    the same phase when their normalised Manhattan distance is below
    ``threshold``.  The detector keeps a table of past phase signatures,
    so recurring phases get their original IDs back (enabling the
    controller's saved-configuration reuse).
    """

    def __init__(self, threshold: float = 0.25, max_table: int = 64):
        if not 0.0 < threshold < 2.0:
            raise ValueError("threshold must be in (0, 2)")
        self.threshold = threshold
        self.max_table = max_table
        self._table: List[np.ndarray] = []
        self._counts: List[int] = []
        self._current: Optional[int] = None

    @staticmethod
    def distance(a: np.ndarray, b: np.ndarray) -> float:
        """Normalised Manhattan distance between two quantised BBVs."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        denominator = a.sum() + b.sum()
        if denominator <= 0.0:
            return 0.0
        return float(np.abs(a - b).sum() / denominator)

    def observe(self, bbv: np.ndarray) -> DetectedPhase:
        """Feed one interval's BBV; classify it against the phase table."""
        bbv = np.asarray(bbv)
        if bbv.shape != (N_BUCKETS,):
            raise ValueError(f"BBV must have {N_BUCKETS} buckets")
        best_id, best_dist = -1, np.inf
        for pid, signature in enumerate(self._table):
            dist = self.distance(bbv, signature)
            if dist < best_dist:
                best_id, best_dist = pid, dist
        if best_id >= 0 and best_dist <= self.threshold:
            # Exponentially age the stored signature toward the new sample.
            self._counts[best_id] += 1
            self._table[best_id] = (
                0.9 * self._table[best_id] + 0.1 * bbv.astype(float)
            )
            changed = self._current != best_id
            self._current = best_id
            return DetectedPhase(phase_id=best_id, is_new=False, changed=changed)
        if len(self._table) >= self.max_table:
            # Evict the least-seen phase (hardware table is finite).
            victim = int(np.argmin(self._counts))
            self._table[victim] = bbv.astype(float)
            self._counts[victim] = 1
            self._current = victim
            return DetectedPhase(phase_id=victim, is_new=True, changed=True)
        self._table.append(bbv.astype(float))
        self._counts.append(1)
        self._current = len(self._table) - 1
        return DetectedPhase(phase_id=self._current, is_new=True, changed=True)
