"""Property-based tests (hypothesis) on the performance model and the wires.

* The pipeline model: CPI never rises with a larger ROB or a wider issue
  stage, and a trace never retires faster than ``issue_width`` per cycle.
* Eq 5 at nominal frequency never rises as the issue queue shrinks.
* ``PhaseResult``, ``SweepSpec`` and ``WorkloadProfile`` survive their
  JSON wire formats exactly.
"""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.calibration import DEFAULT_CALIBRATION
from repro.core.environments import ADAPTIVE_ENVIRONMENTS, AdaptationMode
from repro.exps.dse import Axis, SweepSpec, ZipAxes
from repro.exps.runner import PhaseResult, SuiteSummary
from repro.microarch import DEFAULT_CORE_CONFIG, spec2000_like_suite
from repro.microarch.isa import Uop
from repro.microarch.pipeline import simulate_batch
from repro.microarch.simulator import measure_workload
from repro.microarch.trace import generate_trace
from repro.microarch.workloads import PhaseSpec, WorkloadProfile
from repro.timing.speculation import PerfParams, performance

SUITE = {profile.name: profile for profile in spec2000_like_suite()}
workload_names = st.sampled_from(sorted(SUITE))
trace_seeds = st.integers(min_value=0, max_value=2)

#: Trace length of the pipeline properties (short: the model is per
#: instruction, so a short trace exercises the same code).
TRACE_INSTRUCTIONS = 2000

#: The runner's default trace length, at which queue decisions are made.
MEASURE_INSTRUCTIONS = 12000

#: Issue-queue fractions of :meth:`CoreConfig.with_resized_queue`.
QUEUE_FRACTIONS = (1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25)


def _cycles(name, seed, **config):
    trace = generate_trace(SUITE[name], TRACE_INSTRUCTIONS, seed)
    config = dataclasses.replace(DEFAULT_CORE_CONFIG, **config)
    return simulate_batch(trace, [(config, False)])[0]


@settings(max_examples=15, deadline=None)
@given(
    name=workload_names,
    seed=trace_seeds,
    robs=st.lists(st.integers(8, 320), min_size=2, max_size=2, unique=True),
)
def test_cpi_non_increasing_in_rob_size(name, seed, robs):
    small, large = sorted(robs)
    assert (
        _cycles(name, seed, rob_size=large).cpi
        <= _cycles(name, seed, rob_size=small).cpi
    )


@settings(max_examples=15, deadline=None)
@given(
    name=workload_names,
    seed=trace_seeds,
    widths=st.lists(st.integers(1, 8), min_size=2, max_size=2, unique=True),
)
def test_cpi_non_increasing_in_issue_width(name, seed, widths):
    narrow, wide = sorted(widths)
    assert (
        _cycles(name, seed, issue_width=wide).cpi
        <= _cycles(name, seed, issue_width=narrow).cpi
    )


@settings(max_examples=15, deadline=None)
@given(name=workload_names, seed=trace_seeds, width=st.integers(1, 8))
def test_cycles_at_least_instructions_over_issue_width(name, seed, width):
    result = _cycles(name, seed, issue_width=width)
    assert result.cycles * width >= result.instructions


def _nominal_performance(name, seed, fraction):
    """Eq 5 instructions/s at nominal f and no timing errors, with the
    workload's own issue queue at ``fraction`` of its full size."""
    profile = SUITE[name]
    config = DEFAULT_CORE_CONFIG.with_resized_queue(profile.domain, fraction)
    meas = measure_workload(profile, config, MEASURE_INSTRUCTIONS, seed=seed)
    params = PerfParams(
        cpi_comp=meas.cpi_comp,
        l2_miss_rate=meas.l2_miss_rate,
        recovery_penalty=DEFAULT_CALIBRATION.recovery_penalty_cycles,
        memory_latency_s=DEFAULT_CALIBRATION.memory_latency_seconds,
        overlap_factor=meas.overlap_factor,
    )
    return float(performance(DEFAULT_CALIBRATION.f_nominal, 0.0, params))


@pytest.mark.xfail(
    strict=True,
    reason="the model violates it: gcc* (seed 0) runs 0.17% faster with "
    "7/8 of its integer queue than with all of it, because its measured "
    "overlap_factor falls (see CHANGES.md)",
)
@settings(max_examples=10, deadline=None)
@example(name="gcc*", seed=0, fractions=[1.0, 0.875])
@given(
    name=workload_names,
    seed=trace_seeds,
    fractions=st.lists(
        st.sampled_from(QUEUE_FRACTIONS), min_size=2, max_size=2, unique=True
    ),
)
def test_nominal_performance_non_increasing_as_queue_shrinks(
    name, seed, fractions
):
    smaller, larger = sorted(fractions)
    assert _nominal_performance(name, seed, smaller) <= _nominal_performance(
        name, seed, larger
    )


# ----------------------------------------------------------------------
# Wire round trips.
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=1, max_size=12)

phase_results = st.builds(
    PhaseResult,
    chip_id=st.integers(0, 10_000),
    core_index=st.integers(0, 64),
    workload=names,
    phase=names,
    weight=finite,
    environment=names,
    mode=names,
    f_rel=finite,
    perf_rel=finite,
    power=finite,
    outcome=names,
    queue_full=st.booleans(),
    lowslope=st.booleans(),
)


@given(result=phase_results)
def test_phase_result_round_trips_through_json(result):
    wire = json.loads(json.dumps(result.to_dict()))
    assert PhaseResult.from_dict(wire) == result


@given(results=st.lists(phase_results, max_size=4), f_rel=finite, power=finite)
def test_suite_summary_round_trips_through_json(results, f_rel, power):
    summary = SuiteSummary(f_rel=f_rel, perf_rel=f_rel, power=power,
                           results=results)
    assert SuiteSummary.from_json(summary.to_json()) == summary


environment_names = st.sampled_from([env.name for env in ADAPTIVE_ENVIRONMENTS])
mode_names = st.sampled_from([mode.value for mode in AdaptationMode])


@st.composite
def sweep_specs(draw):
    """A spec over cell and runner axes, with a zipped runner group."""
    envs = draw(st.lists(environment_names, min_size=1, max_size=3, unique=True))
    axes = [Axis.of("environment", envs)]
    if draw(st.booleans()):
        axes.append(Axis.of(
            "mode", draw(st.lists(mode_names, min_size=1, unique=True))
        ))
    if draw(st.booleans()):
        chips = draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))
        cores = draw(st.lists(
            st.integers(1, 4), min_size=len(chips), max_size=len(chips)
        ))
        axes.append(ZipAxes((Axis.of("chips", chips), Axis.of("cores", cores))))
    if draw(st.booleans()):
        axes.append(Axis.of("phi", draw(st.lists(
            st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=3
        ))))
    base = {}
    if draw(st.booleans()):
        base["workloads"] = draw(st.lists(
            st.sampled_from(sorted(SUITE)), min_size=1, max_size=3
        ))
    return SweepSpec(axes=tuple(axes), base=base)


@settings(max_examples=50)
@given(spec=sweep_specs())
def test_sweep_spec_round_trips_through_json(spec):
    again = SweepSpec.from_json(spec.to_json())
    assert again == spec
    assert [p.point_id for p in again.expand()] == [
        p.point_id for p in spec.expand()
    ]


unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def workload_profiles(draw):
    """A valid profile: a normalised mix and phase weights summing to 1."""
    kinds = draw(st.lists(
        st.sampled_from(list(Uop)), min_size=1, max_size=len(Uop), unique=True
    ))
    raw = draw(st.lists(
        st.floats(min_value=0.01, max_value=1.0),
        min_size=len(kinds), max_size=len(kinds),
    ))
    mix = {kind: value / sum(raw) for kind, value in zip(kinds, raw)}
    n_phases = draw(st.integers(1, 3))
    phases = tuple(
        PhaseSpec(
            f"p{index}",
            1.0 / n_phases,
            l2_scale=draw(st.floats(min_value=0.0, max_value=4.0)),
            branch_scale=draw(st.floats(min_value=0.0, max_value=4.0)),
        )
        for index in range(n_phases)
    )
    return WorkloadProfile(
        name=draw(names),
        domain=draw(st.sampled_from(["int", "fp"])),
        mix=mix,
        dep_mean_distance=draw(st.floats(min_value=1.0, max_value=50.0)),
        branch_misp_rate=draw(unit),
        l1d_miss_rate=draw(unit),
        l2_miss_rate=draw(unit),
        icache_miss_rate=draw(unit),
        phases=phases,
    )


@settings(max_examples=50)
@given(profile=workload_profiles())
def test_workload_profile_round_trips_through_json(profile):
    again = WorkloadProfile.from_wire(json.loads(json.dumps(profile.to_wire())))
    assert again == profile
    assert again.content_hash() == profile.content_hash()
