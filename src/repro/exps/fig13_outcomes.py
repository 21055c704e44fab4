"""Figure 13: outcomes of the fuzzy-controller system.

For each knob environment (TS, TS+ABB, TS+ASV, TS+ABB+ASV) and each
micro-architectural technique availability (No opt / FU / Queue /
FU+Queue), classify every fuzzy-controller invocation into NoChange,
LowFreq, Error, Temp or Power — the five retuning outcomes of
Section 4.3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import Settings
from ..core.environments import (
    CONTROLLER_STUDY_ENVIRONMENTS,
    AdaptationMode,
    Environment,
)
from ..core.retuning import Outcome
from .engine import RunSpec
from .runner import ExperimentRunner, RunnerConfig

#: Technique-availability columns of Figure 13.
OPT_CONFIGS: Tuple[Tuple[str, bool, bool], ...] = (
    ("No opt", False, False),
    ("FU opt", False, True),
    ("Queue opt", True, False),
    ("FU+Queue opt", True, True),
)

OUTCOME_ORDER = [o.value for o in Outcome]


@dataclass
class Fig13Result:
    """Outcome fractions per (environment, technique availability)."""

    fractions: Dict[Tuple[str, str], Dict[str, float]]

    def rows(self) -> List[List[str]]:
        """Figure 13 as table rows: one per (opt config, environment)."""
        rows = []
        for (opt, env), frac in sorted(self.fractions.items()):
            rows.append(
                [opt, env]
                + [f"{100 * frac.get(name, 0.0):.0f}%" for name in OUTCOME_ORDER]
            )
        return rows

    def no_change_or_low_freq(self, opt: str, env: str) -> float:
        """The fraction of 'good controller output' cases."""
        frac = self.fractions[(opt, env)]
        return frac.get(Outcome.NO_CHANGE.value, 0.0) + frac.get(
            Outcome.LOW_FREQ.value, 0.0
        )


def run_fig13(
    runner: Optional[ExperimentRunner] = None,
    environments: Optional[List[Environment]] = None,
    settings: Optional[Settings] = None,
) -> Fig13Result:
    """Run the Figure 13 outcome study under Fuzzy-Dyn.

    ``settings`` (a :class:`repro.config.Settings` bundle) supplies the
    execution knobs: ``jobs`` and the artifact-cache configuration.
    """
    settings = settings if settings is not None else Settings()
    runner = runner or ExperimentRunner(RunnerConfig(n_chips=8))
    environments = environments or CONTROLLER_STUDY_ENVIRONMENTS

    cells = [
        (opt_name, base_env.name, dc_replace(
            base_env, name=f"{base_env.name}/{opt_name}", queue=queue, fu=fu
        ))
        for base_env in environments
        for opt_name, queue, fu in OPT_CONFIGS
    ]
    # One campaign for the whole grid: the engine shards every
    # (environment, chip, core) unit across the worker pool at once.
    run = runner.run(RunSpec.from_settings(
        settings,
        environments=tuple(env for _, _, env in cells),
        modes=(AdaptationMode.FUZZY_DYN,),
    ))

    fractions: Dict[Tuple[str, str], Dict[str, float]] = {}
    for opt_name, base_name, env in cells:
        summary = run.summary(env, AdaptationMode.FUZZY_DYN)
        outcomes = [r.outcome for r in summary.results]
        weights = np.array([r.weight for r in summary.results])
        weights = weights / weights.sum()
        frac = {
            name: float(weights[[o == name for o in outcomes]].sum())
            for name in OUTCOME_ORDER
        }
        fractions[(opt_name, base_name)] = frac
    return Fig13Result(fractions=fractions)
