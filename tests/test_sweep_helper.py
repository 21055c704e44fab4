"""The sweep helper: Freq/Power chunks on the caller plus one helper thread.

The helper changes who runs a batched call's chunks and how large they
are cut, never a result bit: the goldens hold with it in use and with it
forced off, a call off the main thread never starts it, and a forked
pool worker never waits on a helper it did not start.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.core import TS_ASV_ABB, optimizer
from repro.core.optimizer import (
    SubsystemArrays,
    core_subsystem_arrays,
    freq_algorithm,
    power_algorithm,
)
from tests import golden
from tests.test_core_optimizer import _sweep_helper

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def goldens():
    """Every golden document, computed with the helper on and off."""
    computed = {}
    for in_use in (True, False):
        with _sweep_helper(in_use):
            computed[in_use] = {
                "adaptation": json.loads(json.dumps(
                    golden.adaptation_fixture()
                )),
                "bank": golden.bank_digest(golden.train_pinned_bank()),
                "pipeline": golden.pipeline_cases(),
            }
    return computed


def test_goldens_identical_with_and_without_helper(goldens):
    assert goldens[True] == goldens[False]


@pytest.mark.parametrize("in_use", [True, False], ids=["helper", "serial"])
def test_goldens_match_pinned(goldens, in_use):
    pinned = json.loads(golden.ADAPTATION_FIXTURE.read_text())
    bank = json.loads(golden.BANK_FIXTURE.read_text())
    pipeline = json.loads(golden.PIPELINE_FIXTURE.read_text())
    assert goldens[in_use]["pipeline"] == pipeline["cases"]
    if pinned["platform"] != golden.platform_tag():
        pytest.skip("float goldens are exact only on their own platform")
    assert goldens[in_use]["adaptation"] == pinned
    assert goldens[in_use]["bank"] == bank["sha256"]


@pytest.fixture(scope="module")
def four_lanes(core):
    """Four lanes of distinct activity: four Freq chunks at a budget of
    two lanes' rows beside the helper."""
    n = core.n_subsystems
    stack = SubsystemArrays.stack([
        core_subsystem_arrays(core, np.full(n, alpha), np.full(n, 0.3))
        for alpha in (0.2, 0.4, 0.6, 0.8)
    ])
    return stack, TS_ASV_ABB.optimization_spec(n, core.calib)


def _threads_of_sweeps(patch, rendezvous=None):
    """Record the thread of every ``_freq_sweep`` call; with a barrier,
    each thread's first sweep waits for a second thread to sweep."""
    seen = []
    real = optimizer._freq_sweep

    def recorded(*args, **kwargs):
        thread = threading.current_thread()
        if rendezvous is not None and thread not in seen:
            rendezvous.wait(timeout=30)
        seen.append(thread)
        return real(*args, **kwargs)

    patch.setattr(optimizer, "_freq_sweep", recorded)
    return seen


def test_main_thread_shares_chunks_with_the_helper(four_lanes, core):
    stack, spec = four_lanes
    knobs = len(spec.vdd_levels) * len(spec.vbb_levels)
    whole = freq_algorithm(stack, spec)
    with _sweep_helper(True) as patch:
        patch.setattr(
            optimizer, "MAX_SWEEP_CELLS", 2 * knobs * core.n_subsystems
        )
        seen = _threads_of_sweeps(patch, threading.Barrier(2))
        shared = freq_algorithm(stack, spec)
    assert len(seen) == 4
    assert len(set(seen)) == 2 and threading.current_thread() in seen
    assert_array_equal(shared.f_max, whole.f_max)


def test_call_off_the_main_thread_never_starts_the_helper(four_lanes, core):
    stack, spec = four_lanes
    knobs = len(spec.vdd_levels) * len(spec.vbb_levels)
    whole = freq_algorithm(stack, spec)
    results = []
    with _sweep_helper(True) as patch:
        patch.setattr(optimizer, "_helper", None)
        patch.setattr(
            optimizer, "MAX_SWEEP_CELLS", 2 * knobs * core.n_subsystems
        )
        seen = _threads_of_sweeps(patch)

        def call():
            result = freq_algorithm(stack, spec)
            results.append(result)
            results.append(power_algorithm(stack, result.f_max, spec))

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
        assert optimizer._helper is None
    # Serial off the main thread: the chunks hold the whole budget (two
    # lanes each) and both run on the caller.
    assert seen == [caller, caller]
    assert_array_equal(results[0].f_max, whole.f_max)


def test_error_in_a_chunk_is_raised_after_both_threads_stop(four_lanes, core):
    stack, spec = four_lanes
    knobs = len(spec.vdd_levels) * len(spec.vbb_levels)
    running = []

    def failing(*args, **kwargs):
        running.append(threading.current_thread())
        raise RuntimeError("chunk failed")

    with _sweep_helper(True) as patch:
        patch.setattr(
            optimizer, "MAX_SWEEP_CELLS", 2 * knobs * core.n_subsystems
        )
        patch.setattr(optimizer, "_freq_sweep", failing)
        with pytest.raises(RuntimeError, match="chunk failed"):
            freq_algorithm(stack, spec)
    # The first error stops both threads from taking another chunk.
    assert 1 <= len(running) <= 2
    # The helper is idle again: the next call completes normally.
    with _sweep_helper(True) as patch:
        patch.setattr(
            optimizer, "MAX_SWEEP_CELLS", 2 * knobs * core.n_subsystems
        )
        seen = _threads_of_sweeps(patch)
        freq_algorithm(stack, spec)
    assert len(seen) == 4


#: Uses the helper on the main thread, then runs a fork-started --jobs 2
#: fig10 and a --jobs 1 fig10, and prints whether the tables are equal.
_FORKED_LADDER = textwrap.dedent("""
    import contextlib, io
    import numpy as np
    from repro.chip import build_core
    from repro.core import TS_ASV_ABB, optimizer
    from repro.core.optimizer import (
        SubsystemArrays, core_subsystem_arrays, freq_algorithm,
    )
    from repro.exps.__main__ import main
    from repro.variation import DieGrid, VariationModel

    optimizer._usable_cpus = lambda: 2
    chip = VariationModel(grid=DieGrid(nx=24, ny=24)).population(1, seed=1)[0]
    core = build_core(chip, 0)
    n = core.n_subsystems
    spec = TS_ASV_ABB.optimization_spec(n, core.calib)
    stack = SubsystemArrays.stack([
        core_subsystem_arrays(core, np.full(n, alpha), np.full(n, 0.3))
        for alpha in (0.2, 0.4, 0.6, 0.8)
    ])
    budget = optimizer.MAX_SWEEP_CELLS
    optimizer.MAX_SWEEP_CELLS = 2 * 189 * n
    freq_algorithm(stack, spec)
    optimizer.MAX_SWEEP_CELLS = budget
    assert optimizer._helper is not None, "the helper never started"
    tables = []
    for jobs in ("2", "1"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["fig10", "--chips", "2", "--cores", "1",
                  "--fc-examples", "25", "--no-cache", "--jobs", jobs])
        tables.append(out.getvalue())
    print("EQUAL" if tables[0] == tables[1] else "DIFFERENT")
""")


def test_forked_pool_after_the_helper_ran(tmp_path):
    # Its own session: on a hang, the pool workers are killed with it.
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORKED_LADDER],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a forked --jobs 2 run hung after the helper ran")
    assert proc.returncode == 0, err
    assert out.strip().splitlines()[-1] == "EQUAL"
