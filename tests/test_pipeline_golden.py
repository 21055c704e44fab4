"""Golden SimResults: the trace walk reproduces the pinned fixtures.

``tests/data/pipeline_golden.json`` holds every :class:`SimResult` field
for the suite profiles x six core configurations x L2 suppression on/off
at 3k instructions, written by the per-state walk this one replaced (see
:mod:`tests.golden`).  The model is pure integer arithmetic, so the
comparison is exact.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.microarch import generate_trace, spec2000_like_suite
from repro.microarch.pipeline import (
    DEFAULT_CORE_CONFIG,
    simulate,
    simulate_batch,
)
from repro.obs import MetricsRegistry

from tests.golden import (
    PIPELINE_FIXTURE,
    TRACE_INSTRUCTIONS,
    TRACE_SEED,
    pipeline_configs,
    sim_result_doc,
)


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(PIPELINE_FIXTURE.read_text())
    assert doc["n_instructions"] == TRACE_INSTRUCTIONS
    assert doc["seed"] == TRACE_SEED
    return {
        (case["profile"], case["config"], case["suppress"]): case["result"]
        for case in doc["cases"]
    }


@pytest.fixture(scope="module")
def traces():
    return {
        profile.name: generate_trace(profile, TRACE_INSTRUCTIONS, TRACE_SEED)
        for profile in spec2000_like_suite()
    }


def test_fixture_covers_suite_configs_and_suppression(golden, traces):
    assert len(golden) == len(traces) * len(pipeline_configs()) * 2
    assert any(result["int_queue_waits"] for result in golden.values())
    assert any(result["fp_queue_waits"] for result in golden.values())


@pytest.mark.parametrize("profile", [p.name for p in spec2000_like_suite()])
def test_batched_walk_matches_golden(golden, traces, profile):
    """One simulate_batch call over all 12 variants of a profile."""
    variants = [
        (label, config, suppress)
        for label, config in pipeline_configs()
        for suppress in (False, True)
    ]
    results = simulate_batch(
        traces[profile], [(config, suppress) for _, config, suppress in variants]
    )
    for (label, _, suppress), result in zip(variants, results):
        assert sim_result_doc(result) == golden[(profile, label, suppress)], (
            profile, label, suppress,
        )


@pytest.mark.parametrize("label,config", pipeline_configs())
def test_single_walk_matches_golden(golden, traces, label, config):
    """simulate() is the one-variant call and reproduces the same rows."""
    for profile, trace in traces.items():
        for suppress in (False, True):
            result = simulate(trace, config, suppress_l2_misses=suppress)
            assert sim_result_doc(result) == golden[(profile, label, suppress)]


def test_kind_counts_keep_first_appearance_order(traces):
    trace = traces["gzip*"]
    result = simulate(trace)
    first_seen = list(dict.fromkeys(trace.kinds.tolist()))
    assert list(result.kind_counts) == first_seen
    assert all(type(k) is int for k in result.kind_counts)


def test_empty_variant_list():
    trace = generate_trace(spec2000_like_suite()[0], 50, 0)
    assert simulate_batch(trace, []) == []


def test_span_and_instruction_counter():
    trace = generate_trace(spec2000_like_suite()[0], 500, 0)
    configs = [config for _, config in pipeline_configs()[:2]]
    with obs.scoped(MetricsRegistry()) as registry:
        simulate_batch(trace, [(c, s) for c in configs for s in (False, True)])
        simulate(trace)
    doc = registry.to_dict()
    assert doc["counters"]["microarch.sim_instructions"] == 500 * 5
    assert doc["histograms"]["span.microarch.simulate_seconds"]["count"] == 2



@pytest.mark.parametrize("field", [
    "extra_exec_stage", "frontend_depth", "branch_penalty",
    "l1_latency", "l2_latency", "mem_latency",
])
def test_negative_depths_and_latencies_rejected(field):
    """The walk relies on cycles that never run backwards (fetch is one
    (cycle, count) pair; empty window slots never bind)."""
    with pytest.raises(ValueError, match=f"{field} cannot be negative"):
        replace(DEFAULT_CORE_CONFIG, **{field: -1})
    replace(DEFAULT_CORE_CONFIG, **{field: 0})
