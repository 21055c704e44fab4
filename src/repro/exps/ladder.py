"""The Figures 10-12 computation: every environment x adaptation mode.

One :class:`LadderResult` holds the frequency / performance / power
summaries for Baseline, NoVar, and the six adaptive environments under
Static / Fuzzy-Dyn / Exh-Dyn — the data behind all three bar charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import Settings
from ..core.environments import (
    ADAPTIVE_ENVIRONMENTS,
    BASELINE,
    NOVAR,
    AdaptationMode,
    Environment,
)
from .engine import RunSpec
from .runner import ExperimentRunner, RunnerConfig, SuiteSummary

#: The three bars per environment in Figures 10-12.
MODES = (AdaptationMode.STATIC, AdaptationMode.FUZZY_DYN, AdaptationMode.EXH_DYN)


@dataclass
class LadderResult:
    """All Figure 10-12 numbers for one run."""

    baseline: SuiteSummary
    novar: SuiteSummary
    entries: Dict[Tuple[str, str], SuiteSummary] = field(default_factory=dict)
    environments: List[Environment] = field(default_factory=list)

    def summary(self, env: Environment, mode: AdaptationMode) -> SuiteSummary:
        """Look up one (environment, mode) cell."""
        return self.entries[(env.name, mode.value)]

    def frequency_rows(self) -> List[List[str]]:
        """Figure 10 rows: relative frequency per environment and mode."""
        return self._rows(lambda s: s.f_rel, f"{self.baseline.f_rel:.3f}", "1.000")

    def performance_rows(self) -> List[List[str]]:
        """Figure 11 rows: relative performance."""
        return self._rows(
            lambda s: s.perf_rel, f"{self.baseline.perf_rel:.3f}", "1.000"
        )

    def power_rows(self) -> List[List[str]]:
        """Figure 12 rows: watts per processor (core + L1 + L2 + checker)."""
        return self._rows(
            lambda s: s.power,
            f"{self.baseline.power:.1f}",
            f"{self.novar.power:.1f}",
            fmt="{:.1f}",
        )

    def _rows(self, metric, baseline_str, novar_str, fmt="{:.3f}"):
        rows = []
        for env in self.environments:
            row = [env.name]
            for mode in MODES:
                row.append(fmt.format(metric(self.summary(env, mode))))
            rows.append(row)
        rows.append(["Baseline", baseline_str, "-", "-"])
        rows.append(["NoVar", novar_str, "-", "-"])
        return rows


def run_ladder(
    runner: Optional[ExperimentRunner] = None,
    environments: Optional[Sequence[Environment]] = None,
    modes: Sequence[AdaptationMode] = MODES,
    settings: Optional[Settings] = None,
) -> LadderResult:
    """Run the full Figures 10-12 grid.

    Args:
        runner: Pre-built runner (scale knobs); a default-config runner is
            created when omitted.
        environments: Environments to include (default: the six adaptive
            environments of Table 1).
        modes: Adaptation modes (default: all three bars).
        settings: The :class:`repro.config.Settings` bundle that supplies
            the execution knobs (``jobs``, the cache directory,
            ``--no-cache``); default: serial, with the runner's cache.
    """
    settings = settings if settings is not None else Settings()
    runner = runner or ExperimentRunner(RunnerConfig())
    environments = (
        list(environments) if environments is not None else list(ADAPTIVE_ENVIRONMENTS)
    )
    grid = runner.run(
        RunSpec.from_settings(
            settings,
            environments=tuple(environments),
            modes=tuple(modes),
        )
    )
    anchors = runner.run(
        RunSpec.from_settings(
            settings,
            environments=(BASELINE, NOVAR),
            modes=(AdaptationMode.EXH_DYN,),
        )
    )
    result = LadderResult(
        baseline=anchors.summary(BASELINE, AdaptationMode.EXH_DYN),
        novar=anchors.summary(NOVAR, AdaptationMode.EXH_DYN),
        environments=environments,
    )
    result.entries.update(grid.summaries)
    return result
