"""The native trace walk (``walk.c``) against the Python reference walk.

Both walks are pure integer arithmetic over the same decoded columns, so
every :class:`SimResult` must be equal, not merely close.  The Python walk
(:func:`repro.microarch.pipeline._walk`) is the reference; the native one
is forced off by replacing the loader's memo with ``[None]``.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.microarch import generate_trace, native, spec2000_like_suite
from repro.microarch.isa import Uop
from repro.microarch.pipeline import DEFAULT_CORE_CONFIG, CoreConfig, simulate_batch
from repro.microarch.trace import SyntheticTrace
from repro.obs import MetricsRegistry

needs_native = pytest.mark.skipif(
    native.library() is None,
    reason="no C compiler here: the native walk cannot be built",
)


def _walk_counts(run):
    """``run()``'s result and its (native, python) walk counts."""
    with obs.scoped(MetricsRegistry()) as registry:
        result = run()
    counters = registry.to_dict()["counters"]
    return result, (counters["microarch.native_walks"],
                    counters["microarch.python_walks"])


def _python_batch(trace, variants):
    saved = native._loaded[:]
    native._loaded[:] = [None]
    try:
        return _walk_counts(lambda: simulate_batch(trace, variants))
    finally:
        native._loaded[:] = saved


def _random_trace(n, seed, dep_mean, rates):
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    dep1 = np.minimum(rng.geometric(1.0 / dep_mean, n), index)
    dep2 = np.minimum(rng.geometric(1.0 / dep_mean, n), index)
    dep1[rng.random(n) < 0.2] = 0
    l1, l2, branch, icache = rates
    return SyntheticTrace(
        kinds=rng.integers(0, len(Uop), n).astype(np.int8),
        dep1=dep1.astype(np.int32),
        dep2=dep2.astype(np.int32),
        branch_mispredict=rng.random(n) < branch,
        l1_miss=rng.random(n) < l1,
        l2_miss=rng.random(n) < l2,
        icache_miss=rng.random(n) < icache,
    )


configs = st.builds(
    CoreConfig,
    fetch_width=st.integers(1, 4),
    issue_width=st.integers(1, 4),
    retire_width=st.integers(1, 4),
    int_queue_size=st.integers(1, 70),
    fp_queue_size=st.integers(1, 40),
    mem_queue_size=st.integers(1, 50),
    rob_size=st.integers(1, 200),
    n_int_alu=st.integers(1, 4),
    n_int_mul=st.integers(1, 2),
    n_fp_add=st.integers(1, 2),
    n_fp_mul=st.integers(1, 2),
    n_mem_ports=st.integers(1, 3),
    frontend_depth=st.integers(0, 10),
    branch_penalty=st.integers(0, 8),
    extra_exec_stage=st.integers(0, 1),
    l1_latency=st.integers(0, 5),
    l2_latency=st.integers(0, 20),
    mem_latency=st.integers(0, 300),
    prefetch_accuracy=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)
    ),
)


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    dep_mean=st.floats(1.0, 12.0),
    rates=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    variants=st.lists(st.tuples(configs, st.booleans()), min_size=1,
                      max_size=3),
)
def test_native_walk_equals_python_walk(n, seed, dep_mean, rates, variants):
    trace = _random_trace(n, seed, dep_mean, rates)
    native_results, native_counts = _walk_counts(
        lambda: simulate_batch(trace, variants)
    )
    python_results, python_counts = _python_batch(trace, variants)
    assert native_results == python_results
    assert native_counts == (len(variants), 0)
    assert python_counts == (0, len(variants))


@pytest.mark.parametrize("command", [["/nonexistent/cc"], ["false"]])
def test_failed_build_walks_in_python(monkeypatch, tmp_path, command):
    """A compiler that is missing or fails leaves every walk to Python."""
    monkeypatch.setattr(native, "compiler", lambda: command)
    monkeypatch.setattr(native, "_PACKAGE_CACHE", tmp_path)
    monkeypatch.setattr(native, "_loaded", [])
    trace = generate_trace(spec2000_like_suite()[0], 500, 0)
    variants = [(DEFAULT_CORE_CONFIG, False), (DEFAULT_CORE_CONFIG, True)]
    results, counts = _walk_counts(lambda: simulate_batch(trace, variants))
    assert native._loaded == [None]
    assert counts == (0, 2)
    assert results == _python_batch(trace, variants)[0]
    assert list(tmp_path.iterdir()) == []  # no partial object left behind


@needs_native
def test_fresh_build_is_cached_under_its_key(monkeypatch, tmp_path):
    """A build lands in the cache directory under its keyed name (no
    temporary file left) and the next load reuses it."""
    monkeypatch.setattr(native, "_PACKAGE_CACHE", tmp_path)
    monkeypatch.setattr(native, "_loaded", [])
    assert native.library() is not None
    (built,) = tmp_path.iterdir()
    assert built.name.startswith("walk-") and not built.name.endswith(".tmp")
    stamp = built.stat().st_mtime_ns
    monkeypatch.setattr(native, "_loaded", [])
    monkeypatch.setattr(native, "_build", None)  # a rebuild would fail
    assert native.library() is not None
    assert built.stat().st_mtime_ns == stamp


@needs_native
def test_out_of_range_config_walks_in_python():
    """``walk.c`` refuses cycles that could leave int64; Python's
    integers take the walk instead, exactly."""
    trace = generate_trace(spec2000_like_suite()[0], 300, 0)
    variants = [
        (replace(DEFAULT_CORE_CONFIG, mem_latency=2**62), False),
        (replace(DEFAULT_CORE_CONFIG, l2_latency=2**70), False),
        (DEFAULT_CORE_CONFIG, False),
    ]
    results, counts = _walk_counts(lambda: simulate_batch(trace, variants))
    assert counts == (1, 2)
    assert results == _python_batch(trace, variants)[0]
    assert results[0].cycles > 2**62


@needs_native
def test_native_walk_from_four_threads():
    """ctypes drops the interpreter lock during a walk; four threads
    walking at once must each get their own exact results."""
    suite = spec2000_like_suite()
    variants = [
        (DEFAULT_CORE_CONFIG, False),
        (DEFAULT_CORE_CONFIG.with_resized_queue("int"), True),
        (replace(DEFAULT_CORE_CONFIG, issue_width=1), False),
    ]
    traces = [generate_trace(suite[k], 2000, k) for k in range(4)]
    expected = [_python_batch(trace, variants)[0] for trace in traces]
    got = [[] for _ in traces]
    errors = []

    def work(k):
        try:
            for _ in range(10):
                got[k].append(simulate_batch(traces[k], variants))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for k, runs in enumerate(got):
        assert runs == [expected[k]] * 10
