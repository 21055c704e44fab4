"""Golden adaptation results: the lane pipeline reproduces the pinned rows.

``tests/data/adaptation_golden.json`` was written by the scalar, phase-
batched and population-batched adaptation paths that the single lane
pipeline replaced (see :mod:`tests.golden`).  It pins two levels:

* every Fig 10-12 ladder cell at 2 chips x 1 core (row sha256 plus the
  ``(f_rel, perf_rel, power)`` triple);
* unit-level :func:`optimize_phase` results for Exh-Dyn and Fuzzy-Dyn
  with retuning on and off.

On the platform the fixture was written on the comparison is exact;
elsewhere the last bits of ``exp``/``pow`` may differ, so floats are
compared with a tight relative tolerance.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests import golden


@pytest.fixture(scope="module")
def pinned():
    return json.loads(golden.ADAPTATION_FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    return golden.adaptation_fixture()


def _exact(pinned) -> bool:
    return pinned["platform"] == golden.platform_tag()


def _assert_close(actual, expected, where):
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, float) or (
        isinstance(expected, list) and expected
        and isinstance(expected[0], float)
    ):
        assert np.allclose(actual, expected, rtol=1e-9, atol=0.0), where
    else:
        assert actual == expected, where


def test_fixture_scale_and_coverage(pinned):
    assert pinned["scale"] == golden.LADDER_SCALE
    # 6 adaptive environments x 3 modes, plus Baseline and NoVar.
    assert len(pinned["ladder"]) == 6 * 3 + 2
    retune = {case["retune"] for case in pinned["units"]}
    modes = {case["mode"] for case in pinned["units"]}
    assert retune == {True, False}
    assert modes == {"Exh-Dyn", "Fuzzy-Dyn"}


def test_ladder_rows_match(pinned, current):
    assert current["ladder"].keys() == pinned["ladder"].keys()
    for cell, expected in pinned["ladder"].items():
        actual = current["ladder"][cell]
        if _exact(pinned):
            assert actual == expected, cell
        else:
            assert np.allclose(
                actual["triple"], expected["triple"], rtol=1e-9
            ), cell


@pytest.mark.parametrize("retune", [True, False], ids=["retune", "no-retune"])
def test_unit_results_match(pinned, current, retune):
    expected = [c for c in pinned["units"] if c["retune"] is retune]
    actual = [c for c in current["units"] if c["retune"] is retune]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        where = (want["env"], want["chip"], want["phase"], want["mode"])
        if _exact(pinned):
            assert got == want, where
        else:
            _assert_close(got, want, str(where))
