"""Pinned reference outputs of the trace walk, the fuzzy trainer and
the adaptation pipeline.

The fixtures under ``tests/data/`` were written by the code *before* a
refactor replaced the implementation they pin: the SimResult and bank
fixtures predate the locals-only trace walk and the lockstep fuzzy
trainer, and the adaptation fixture (ladder rows and unit-level
``optimize_phase`` results with retuning on and off) predates the single
lane pipeline that replaced the scalar, phase-batched and
population-batched adaptation paths.  The golden tests therefore check
the current code against the old one rather than only against itself.

Regenerate (only in a change that deliberately alters the model's
semantics, and say so in its notes) from the repository root with::

    PYTHONPATH=src python -m tests.golden --write
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
PIPELINE_FIXTURE = DATA / "pipeline_golden.json"
BANK_FIXTURE = DATA / "bank_golden.json"
ADAPTATION_FIXTURE = DATA / "adaptation_golden.json"

#: Trace length and seed of the SimResult fixtures.
TRACE_INSTRUCTIONS = 3000
TRACE_SEED = 11

#: The trainer cases: (n_inputs, n_examples, seed, outlier row or None).
#: Ragged lengths, 2- and 5-input controllers, distinct seeds, and one
#: example far outside every rule's receptive field.
TRAINER_CASES = (
    (2, 140, 0, None),
    (2, 90, 1, 40),
    (2, 61, 2, None),
    (5, 100, 3, None),
    (5, 75, 4, 60),
)
TRAINER_EPOCHS = 2

#: Scale of the pinned controller bank (TS+ASV+ABB: Freq, Vdd and Vbb FCs).
BANK_EXAMPLES = 200
BANK_EPOCHS = 2
BANK_SEED = 3


def pipeline_configs() -> List[Tuple[str, object]]:
    """The core configurations the SimResult fixtures cover."""
    from repro.microarch.pipeline import DEFAULT_CORE_CONFIG as base

    return [
        ("default", base),
        ("int-resized", base.with_resized_queue("int")),
        ("fp-resized", base.with_resized_queue("fp")),
        ("fu-replicated", base.with_fu_replication()),
        ("prefetch-0.5", replace(base, prefetch_accuracy=0.5)),
        ("issue-width-1", replace(base, issue_width=1)),
    ]


def sim_result_doc(result) -> Dict:
    """Every :class:`SimResult` field as a JSON-safe record."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "kind_counts": {str(k): v for k, v in result.kind_counts.items()},
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "branch_flushes": result.branch_flushes,
        "int_queue_waits": result.int_queue_waits,
        "fp_queue_waits": result.fp_queue_waits,
    }


def pipeline_cases() -> List[Dict]:
    """Simulate every (suite profile, config, suppress) fixture case."""
    from repro.microarch import generate_trace, spec2000_like_suite
    from repro.microarch.pipeline import simulate_batch

    cases = []
    for profile in spec2000_like_suite():
        trace = generate_trace(profile, TRACE_INSTRUCTIONS, TRACE_SEED)
        for label, config in pipeline_configs():
            for suppress in (False, True):
                result = simulate_batch(trace, [(config, suppress)])[0]
                cases.append({
                    "profile": profile.name,
                    "config": label,
                    "suppress": suppress,
                    "result": sim_result_doc(result),
                })
    return cases


def trainer_datasets() -> List[Tuple[np.ndarray, np.ndarray]]:
    """Deterministic (inputs, targets) pairs for :data:`TRAINER_CASES`."""
    out = []
    for n_inputs, n_examples, seed, outlier in TRAINER_CASES:
        rng = np.random.default_rng(100 + seed)
        inputs = rng.uniform(-1.0, 1.0, size=(n_examples, n_inputs))
        targets = np.sin(2.0 * inputs[:, 0]) + inputs[:, -1] ** 2
        if outlier is not None:
            inputs[outlier] = 1e3
        out.append((inputs, targets))
    return out


def controllers_digest(controllers) -> str:
    """sha256 over the trained arrays of a list of controllers."""
    digest = hashlib.sha256()
    for fc in controllers:
        for array in (fc.mu, fc.sigma, fc.y, fc.input_mean, fc.input_std):
            digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


def train_trainer_cases_alone():
    """Each trainer case through :func:`train_fuzzy_controllers` on its own."""
    from repro.ml import train_fuzzy_controllers

    return [
        train_fuzzy_controllers(
            [(inputs, targets)], epochs=TRAINER_EPOCHS, seeds=[case[2]]
        )[0]
        for case, (inputs, targets) in zip(TRAINER_CASES, trainer_datasets())
    ]


def bank_digest(bank) -> str:
    """sha256 over every bank array and every ``freq_rmse`` value."""
    digest = hashlib.sha256()
    for table in (bank.freq_fcs, bank.vdd_fcs, bank.vbb_fcs):
        for key in sorted(table):
            fc = table[key]
            digest.update(repr(key).encode())
            for array in (fc.mu, fc.sigma, fc.y, fc.input_mean, fc.input_std):
                digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    for key in sorted(bank.freq_rmse):
        digest.update(f"{key!r}={bank.freq_rmse[key]!r}".encode())
    return digest.hexdigest()


def bank_summary(bank) -> Dict[str, List[float]]:
    """Per-FC sums of the trained arrays (the cross-platform comparison)."""
    out: Dict[str, List[float]] = {}
    for name, table in (("freq", bank.freq_fcs), ("vdd", bank.vdd_fcs),
                        ("vbb", bank.vbb_fcs)):
        for key in sorted(table):
            fc = table[key]
            out[f"{name}{key}"] = [
                float(fc.mu.sum()), float(fc.sigma.sum()), float(fc.y.sum())
            ]
    for key in sorted(bank.freq_rmse):
        out[f"rmse{key}"] = [bank.freq_rmse[key]]
    return out


def platform_tag() -> str:
    """Where a float digest is reproducible bit for bit."""
    return f"numpy-{np.__version__}-{platform.machine()}"


def train_pinned_bank():
    """The small TS+ASV+ABB bank the bank fixture pins."""
    from repro.chip import build_core
    from repro.core import TS_ASV_ABB
    from repro.ml import train_controller_bank
    from repro.variation import DieGrid, VariationModel

    chip = VariationModel(grid=DieGrid(nx=24, ny=24)).population(2, seed=42)[0]
    core = build_core(chip, 0)
    spec = TS_ASV_ABB.optimization_spec(core.n_subsystems, core.calib)
    return train_controller_bank(
        core, spec, n_examples=BANK_EXAMPLES, epochs=BANK_EPOCHS,
        seed=BANK_SEED,
    )


#: Scale of the adaptation fixture: 2 chips x 1 core, short traces and a
#: small fuzzy-controller bank.
LADDER_SCALE = dict(
    n_chips=2, cores_per_chip=1, n_instructions=3000, fuzzy_examples=100,
    fuzzy_epochs=1, seed=7,
)

#: Workload phases of the unit-level cases: (workload index, phase index)
#: into the suite, one integer and one floating-point phase.
UNIT_PHASES = ((0, 0), (5, 1))


def ladder_runner():
    """The runner every adaptation case is built from."""
    from repro.exps.runner import ExperimentRunner, RunnerConfig

    return ExperimentRunner(RunnerConfig(**LADDER_SCALE))


def rows_digest(rows) -> str:
    """sha256 over the canonical JSON of a cell's ``PhaseResult`` rows."""
    text = json.dumps([row.to_dict() for row in rows], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def ladder_cells(runner) -> Dict[str, Dict]:
    """Every Fig 10-12 cell: row digest plus (f_rel, perf_rel, power).

    The six adaptive environments under Static / Fuzzy-Dyn / Exh-Dyn,
    plus the Baseline and NoVar anchors, without the artifact cache.
    """
    from repro.core.environments import (
        ADAPTIVE_ENVIRONMENTS,
        BASELINE,
        NOVAR,
        AdaptationMode,
    )
    from repro.exps.engine import RunSpec
    from repro.exps.ladder import MODES

    grid = runner.run(RunSpec(
        environments=tuple(ADAPTIVE_ENVIRONMENTS), modes=MODES,
        use_cache=False,
    ))
    anchors = runner.run(RunSpec(
        environments=(BASELINE, NOVAR), modes=(AdaptationMode.EXH_DYN,),
        use_cache=False,
    ))
    summaries = dict(grid.summaries)
    summaries.update(anchors.summaries)
    return {
        f"{env}/{mode}": {
            "sha256": rows_digest(summary.results),
            "triple": [summary.f_rel, summary.perf_rel, summary.power],
        }
        for (env, mode), summary in sorted(summaries.items())
    }


def adaptation_doc(result) -> Dict:
    """The unit-level fields of an :class:`AdaptationResult`."""
    technique = result.config.technique
    return {
        "f_core": result.f_core,
        "f_controller": result.f_controller,
        "performance_ips": result.performance_ips,
        "outcome": result.outcome.value,
        "queue_full": technique.queue_full,
        "lowslope": technique.lowslope,
        "domain": technique.domain,
        "vdd": [float(v) for v in result.config.vdd],
        "vbb": [float(v) for v in result.config.vbb],
        "total_power": result.state.total_power,
        "pe_total": result.state.pe_total,
        "temperature": [float(t) for t in result.state.temperature],
        "measurement": result.measurement.name,
    }


def adaptation_cases(runner) -> List[Dict]:
    """``optimize_phase`` per (env, chip, phase, mode, retune on/off)."""
    from repro.core.adaptation import optimize_phase
    from repro.core.environments import ADAPTIVE_ENVIRONMENTS, AdaptationMode

    suite = runner.workloads
    cases = []
    for env in ADAPTIVE_ENVIRONMENTS:
        bank = runner.bank_for(env)
        for chip in range(LADDER_SCALE["n_chips"]):
            core = runner.core(chip, 0)
            for workload, phase in UNIT_PHASES:
                profile = suite[workload].phase_profile(
                    suite[workload].phases[phase]
                )
                meas_full, meas_resized = runner.measurements(profile, env)
                for mode in (AdaptationMode.EXH_DYN, AdaptationMode.FUZZY_DYN):
                    for retune in (True, False):
                        result = optimize_phase(
                            core, env, meas_full, meas_resized, mode=mode,
                            bank=bank, retune_enabled=retune,
                        )
                        cases.append({
                            "env": env.name,
                            "chip": chip,
                            "phase": profile.name,
                            "mode": mode.value,
                            "retune": retune,
                            "result": adaptation_doc(result),
                        })
    return cases


def adaptation_fixture() -> Dict:
    """Everything :data:`ADAPTATION_FIXTURE` pins, computed now."""
    runner = ladder_runner()
    return {
        "platform": platform_tag(),
        "scale": LADDER_SCALE,
        "ladder": ladder_cells(runner),
        "units": adaptation_cases(runner),
    }


def _write() -> None:
    DATA.mkdir(exist_ok=True)
    PIPELINE_FIXTURE.write_text(json.dumps({
        "n_instructions": TRACE_INSTRUCTIONS,
        "seed": TRACE_SEED,
        "cases": pipeline_cases(),
    }, indent=1) + "\n")
    bank = train_pinned_bank()
    alone = train_trainer_cases_alone()
    BANK_FIXTURE.write_text(json.dumps({
        "platform": platform_tag(),
        "sha256": bank_digest(bank),
        "summary": bank_summary(bank),
        "trainer_sha256": controllers_digest(fc for fc, _ in alone),
        "trainer_rmse": [report.final_rmse for _, report in alone],
    }, indent=1) + "\n")
    ADAPTATION_FIXTURE.write_text(
        json.dumps(adaptation_fixture(), indent=1) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.golden --write")
    _write()
