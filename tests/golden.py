"""Pinned reference outputs of the trace walk and the fuzzy trainer.

The fixtures under ``tests/data/`` were written by the code *before* the
locals-only trace walk and the lockstep fuzzy trainer replaced their
per-state / per-controller predecessors, so the golden tests check the
current code against the old one rather than only against itself.

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
    from repro.microarch.pipeline import simulate

    cases = []
    for profile in spec2000_like_suite():
        trace = generate_trace(profile, TRACE_INSTRUCTIONS, TRACE_SEED)
        for label, config in pipeline_configs():
            for suppress in (False, True):
                result = simulate(trace, config, suppress_l2_misses=suppress)
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
    """Each trainer case through :func:`train_fuzzy_controller` on its own."""
    from repro.ml import train_fuzzy_controller

    return [
        train_fuzzy_controller(
            inputs, targets, epochs=TRAINER_EPOCHS, seed=case[2]
        )
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.golden --write")
    _write()
