"""Cache keys (per-object fingerprints, field coverage) and the summary memo."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.calibration import DEFAULT_CALIBRATION, Calibration
from repro.core import TS, AdaptationMode
from repro.exps import RunnerConfig
from repro.exps import cache as cache_module
from repro.exps.cache import (
    ExperimentCache,
    bank_key,
    fingerprint,
    measurement_key,
    summary_key,
)
from repro.exps.runner import PhaseResult, SuiteSummary
from repro.microarch import DEFAULT_CORE_CONFIG, spec2000_like_suite

PROFILE = spec2000_like_suite()[0]
N_SUBSYSTEMS = 15


# ----------------------------------------------------------------------
# Field coverage: every input field must reach the key.
# ----------------------------------------------------------------------
def _shift_mix(mix):
    """The same instruction mix with 0.01 moved between two kinds."""
    first, second = sorted(mix, key=lambda kind: kind.name)[:2]
    shifted = dict(mix)
    shifted[first] -= 0.01
    shifted[second] += 0.01
    return shifted


#: Perturbations the generic rule below cannot derive validly.
_OVERRIDES = {
    "domain": lambda domain: "fp" if domain == "int" else "int",
    "mix": _shift_mix,
    "phases": lambda phases: tuple(
        dataclasses.replace(phase, l2_scale=phase.l2_scale * 1.25)
        for phase in phases
    ),
    "phi": lambda phi: 0.3 if phi is None else phi * 1.25,
}


def _perturbed(name, value):
    """A different valid value for a field, or ``None`` if none is known."""
    if name in _OVERRIDES:
        return _OVERRIDES[name](value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.25 if value else 0.5
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, dict):
        first = sorted(value)[0]
        return {**value, first: _perturbed(first, value[first])}
    return None


def _variants(obj):
    """``{field name: copy with that field perturbed}`` for a dataclass."""
    variants = {}
    for field in dataclasses.fields(obj):
        value = _perturbed(field.name, getattr(obj, field.name))
        if value is not None:
            variants[field.name] = dataclasses.replace(obj, **{field.name: value})
    return variants


def _assert_every_field_moves(obj, key_of):
    base = key_of(obj)
    variants = _variants(obj)
    # An uncovered field (one the rule above cannot perturb) fails here.
    assert set(variants) == {field.name for field in dataclasses.fields(obj)}
    for name, variant in variants.items():
        assert key_of(variant) != base, f"{type(obj).__name__}.{name}"


def _summary_key(calib=DEFAULT_CALIBRATION, runner_config=RunnerConfig(),
                 core_config=DEFAULT_CORE_CONFIG, env=TS, workload=PROFILE):
    return summary_key(calib, runner_config, core_config, env,
                       AdaptationMode.EXH_DYN, [workload])


def _measurement_key(calib=DEFAULT_CALIBRATION, profile=PROFILE,
                     config=DEFAULT_CORE_CONFIG):
    return measurement_key(calib, profile, config, 12000, 7)


def _bank_key(calib):
    return bank_key(calib, TS.optimization_spec(N_SUBSYSTEMS, calib),
                    4000, 2, 7)


class TestKeyCoverage:
    @pytest.mark.parametrize("name, obj", [
        ("calib", DEFAULT_CALIBRATION),
        ("runner_config", RunnerConfig()),
        ("core_config", DEFAULT_CORE_CONFIG),
        ("env", TS),
        ("workload", PROFILE),
    ])
    def test_every_field_changes_summary_key(self, name, obj):
        _assert_every_field_moves(obj, lambda v: _summary_key(**{name: v}))

    @pytest.mark.parametrize("name, obj", [
        ("calib", DEFAULT_CALIBRATION),
        ("profile", PROFILE),
        ("config", DEFAULT_CORE_CONFIG),
    ])
    def test_every_field_changes_measurement_key(self, name, obj):
        _assert_every_field_moves(
            obj, lambda v: _measurement_key(**{name: v})
        )

    def test_every_calibration_field_changes_bank_key(self):
        _assert_every_field_moves(DEFAULT_CALIBRATION, _bank_key)

    def test_mode_changes_summary_key(self):
        keys = {
            summary_key(DEFAULT_CALIBRATION, RunnerConfig(),
                        DEFAULT_CORE_CONFIG, TS, mode, [PROFILE])
            for mode in AdaptationMode
        }
        assert len(keys) == len(AdaptationMode)


# ----------------------------------------------------------------------
# Fingerprints.
# ----------------------------------------------------------------------
_KEYS_SCRIPT = """
import json
from repro.calibration import DEFAULT_CALIBRATION
from repro.core import TS, AdaptationMode
from repro.exps import RunnerConfig
from repro.exps.cache import bank_key, measurement_key, summary_key
from repro.microarch import DEFAULT_CORE_CONFIG, spec2000_like_suite

suite = spec2000_like_suite()
print(json.dumps([
    summary_key(DEFAULT_CALIBRATION, RunnerConfig(), DEFAULT_CORE_CONFIG,
                TS, AdaptationMode.FUZZY_DYN, suite),
    measurement_key(DEFAULT_CALIBRATION, suite[0], DEFAULT_CORE_CONFIG,
                    12000, 7),
    bank_key(DEFAULT_CALIBRATION,
             TS.optimization_spec(%d, DEFAULT_CALIBRATION), 4000, 2, 7),
]))
""" % N_SUBSYSTEMS


class TestFingerprint:
    def test_keys_equal_across_processes_and_hash_seeds(self):
        suite = spec2000_like_suite()
        here = [
            summary_key(DEFAULT_CALIBRATION, RunnerConfig(),
                        DEFAULT_CORE_CONFIG, TS, AdaptationMode.FUZZY_DYN,
                        suite),
            _measurement_key(profile=suite[0]),
            _bank_key(DEFAULT_CALIBRATION),
        ]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
        out = subprocess.run(
            [sys.executable, "-c", _KEYS_SCRIPT],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        )
        assert json.loads(out.stdout) == here

    def test_memoised_per_instance_and_renewed_by_replace(self):
        calib = Calibration()
        first = fingerprint(calib)
        assert fingerprint(calib) is first
        changed = dataclasses.replace(calib, z_free=6.0)
        assert fingerprint(changed) != first
        restored = dataclasses.replace(changed, z_free=calib.z_free)
        assert fingerprint(restored) == first

    def test_profile_fingerprint_is_content_hash(self):
        assert fingerprint(PROFILE) == PROFILE.content_hash()

    def test_mutable_dataclass_is_refused(self):
        with pytest.raises(TypeError, match="frozen dataclass"):
            fingerprint(SuiteSummary(f_rel=1.0, perf_rel=1.0, power=1.0))


# ----------------------------------------------------------------------
# The in-process summary memo.
# ----------------------------------------------------------------------
def _summary(n_rows, f_rel=0.9, metrics=None):
    rows = [
        PhaseResult(
            chip_id=chip, core_index=0, workload="gzip", phase="main",
            weight=1.0, environment="TS", mode="Exh-Dyn", f_rel=f_rel,
            perf_rel=f_rel, power=20.0, outcome="NoChange",
            queue_full=True, lowslope=False,
        )
        for chip in range(n_rows)
    ]
    return SuiteSummary(f_rel=f_rel, perf_rel=f_rel, power=20.0,
                        results=rows, metrics=metrics)


class TestSummaryMemo:
    def test_hit_equals_fresh_parse_metrics_included(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        metrics = {"counters": {"engine.units": 2.0}, "gauges": {},
                   "histograms": {}}
        cache.save_summary("k", _summary(2, metrics=metrics))
        first = cache.load_summary("k")
        second = cache.load_summary("k")
        assert second is first
        stored = cache.store.path_for("summaries", "k", ".json").read_text()
        fresh = SuiteSummary.from_json(stored)
        assert second == fresh
        assert second.metrics == fresh.metrics == metrics
        assert cache.stats.hits["summary"] == 2
        assert cache.stats.misses["summary"] == 0

    def test_mutation_after_save_is_not_served(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        summary = _summary(2)
        cache.save_summary("k", summary)
        summary.metrics = {"counters": {"late": 1.0}}
        summary.results.append(summary.results[0])
        loaded = cache.load_summary("k")
        assert loaded.metrics is None
        assert len(loaded.results) == 2
        assert cache.load_summary("k") is loaded

    def test_row_bound_evicts_least_recently_used(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(cache_module, "SUMMARY_MEMO_ROWS", 4)
        cache = ExperimentCache(tmp_path)
        for key in "abc":
            cache.save_summary(key, _summary(2))
        cache.load_summary("a")
        cache.load_summary("b")
        cache.load_summary("a")  # now b is the oldest
        cache.load_summary("c")  # 6 rows > 4: b goes
        for key in "abc":
            cache.store.delete("summaries", key, ".json")
        assert cache.load_summary("a") is not None
        assert cache.load_summary("c") is not None
        assert cache.load_summary("b") is None

    def test_summary_larger_than_bound_is_not_memoised(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(cache_module, "SUMMARY_MEMO_ROWS", 4)
        cache = ExperimentCache(tmp_path)
        cache.save_summary("big", _summary(5))
        first = cache.load_summary("big")
        assert cache.load_summary("big") is not first

    def test_concurrent_loads_keep_the_row_count(self, tmp_path,
                                                 monkeypatch):
        """Service threads share one memo: no lost update on its rows."""
        import sys
        import threading

        monkeypatch.setattr(cache_module, "SUMMARY_MEMO_ROWS", 6)
        cache = ExperimentCache(tmp_path)
        keys = [f"k{index}" for index in range(8)]
        for key in keys:
            cache.save_summary(key, _summary(2))

        misses = []

        def hammer(offset):
            for step in range(200):
                if cache.load_summary(keys[(offset + step) % 8]) is None:
                    misses.append(step)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        held = sum(len(s.results) for s in cache._summaries.values())
        assert cache._summary_rows == held <= 6
        assert misses == []
