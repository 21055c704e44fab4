"""Micro-architecture substrate: traces, pipeline, measurements, activity."""

import numpy as np
import pytest

from repro.microarch import (
    DEFAULT_CORE_CONFIG,
    CoreConfig,
    Uop,
    accesses_per_instruction,
    activity_factors,
    by_name,
    generate_trace,
    measure_workload,
    rho_vector,
    spec2000_like_suite,
)
from repro.chip import default_floorplan
from repro.microarch.pipeline import _QUEUE_OF, simulate_batch
from repro.microarch.trace import SyntheticTrace
from repro.microarch.workloads import PhaseSpec, WorkloadProfile


def simulate(trace, config=DEFAULT_CORE_CONFIG, *, suppress_l2_misses=False):
    """One variant of :func:`simulate_batch`."""
    return simulate_batch(trace, [(config, suppress_l2_misses)])[0]


class TestWorkloads:
    def test_suite_has_int_and_fp(self, suite):
        domains = {w.domain for w in suite}
        assert domains == {"int", "fp"}
        assert len(suite) == 10

    def test_mixes_sum_to_one(self, suite):
        for w in suite:
            assert sum(w.mix.values()) == pytest.approx(1.0)

    def test_by_name(self):
        assert by_name("mcf*").l1d_miss_rate > by_name("crafty*").l1d_miss_rate
        with pytest.raises(KeyError):
            by_name("doom*")

    def test_phase_profile_scales_l2(self, suite):
        gcc = by_name("gcc*")
        emit = next(p for p in gcc.phases if p.name == "emit")
        scaled = gcc.phase_profile(emit)
        assert scaled.l2_miss_rate == pytest.approx(
            min(1.0, gcc.l2_miss_rate * emit.l2_scale)
        )

    def test_phase_weights_sum_to_one(self, suite):
        for w in suite:
            assert sum(p.weight for p in w.phases) == pytest.approx(1.0)

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError, match="sums"):
            WorkloadProfile(
                "bad", "int", {Uop.INT_ALU: 0.5}, 3.0, 0.05, 0.02, 0.1
            )

    def test_invalid_phase_weight_rejected(self):
        with pytest.raises(ValueError):
            PhaseSpec("p", 0.0)

    def test_validation_errors_name_the_profile(self):
        with pytest.raises(ValueError, match="'bad'"):
            WorkloadProfile(
                "bad", "int", {Uop.INT_ALU: 0.5}, 3.0, 0.05, 0.02, 0.1
            )
        with pytest.raises(ValueError, match="'rates'"):
            WorkloadProfile(
                "rates", "int", {Uop.INT_ALU: 1.0}, 3.0, 1.5, 0.02, 0.1
            )
        with pytest.raises(ValueError, match="'deps'"):
            WorkloadProfile(
                "deps", "int", {Uop.INT_ALU: 1.0}, 0.5, 0.05, 0.02, 0.1
            )
        with pytest.raises(ValueError, match="'weights'"):
            WorkloadProfile(
                "weights", "int", {Uop.INT_ALU: 1.0}, 3.0, 0.05, 0.02, 0.1,
                phases=(PhaseSpec("a", 0.5), PhaseSpec("b", 0.2)),
            )

    def test_mix_tolerance_is_tight(self):
        # Inside 1e-6 passes; outside fails.
        WorkloadProfile(
            "ok", "int", {Uop.INT_ALU: 1.0 + 5e-7}, 3.0, 0.05, 0.02, 0.1
        )
        with pytest.raises(ValueError, match="sums"):
            WorkloadProfile(
                "no", "int", {Uop.INT_ALU: 1.0 + 5e-6}, 3.0, 0.05, 0.02, 0.1
            )


class TestPhaseSpecEdgeCases:
    def test_zero_scales_clamp_rates_and_deps(self):
        base = by_name("gcc*")
        phase = PhaseSpec("idle", 1.0, l2_scale=0.0, ilp_scale=0.0)
        scaled = base.phase_profile(phase)
        assert scaled.l2_miss_rate == 0.0
        assert scaled.dep_mean_distance == 1.0  # clamped to the floor

    def test_extreme_scales_stay_in_domain(self):
        base = by_name("gcc*")
        phase = PhaseSpec(
            "storm", 1.0, l2_scale=1e6, branch_scale=1e6, ilp_scale=1e6
        )
        scaled = base.phase_profile(phase)
        assert scaled.l2_miss_rate == 1.0
        assert scaled.branch_misp_rate == 1.0
        assert scaled.dep_mean_distance == base.dep_mean_distance * 1e6

    def test_negative_or_nonfinite_scales_rejected(self):
        with pytest.raises(ValueError, match="l2_scale"):
            PhaseSpec("p", 1.0, l2_scale=-0.1)
        with pytest.raises(ValueError, match="ilp_scale"):
            PhaseSpec("p", 1.0, ilp_scale=float("nan"))
        with pytest.raises(ValueError, match="branch_scale"):
            PhaseSpec("p", 1.0, branch_scale=float("inf"))

    def test_single_phase_profile_is_trivial(self):
        single = WorkloadProfile(
            "solo", "int", {Uop.INT_ALU: 1.0}, 3.0, 0.05, 0.02, 0.1
        )
        assert len(single.phases) == 1
        scaled = single.phase_profile(single.phases[0])
        assert scaled == single

    def test_phase_profile_is_idempotent(self, suite):
        for profile in suite:
            for phase in profile.phases:
                scaled = profile.phase_profile(phase)
                (trivial,) = scaled.phases
                assert trivial.weight == 1.0
                assert scaled.phase_profile(trivial) == scaled


class TestTrace:
    def test_reproducible(self, int_workload):
        a = generate_trace(int_workload, 2000, seed=3)
        b = generate_trace(int_workload, 2000, seed=3)
        assert np.array_equal(a.kinds, b.kinds)
        assert np.array_equal(a.l2_miss, b.l2_miss)

    def test_seeds_differ(self, int_workload):
        a = generate_trace(int_workload, 2000, seed=3)
        b = generate_trace(int_workload, 2000, seed=4)
        assert not np.array_equal(a.kinds, b.kinds)

    def test_mix_statistics(self, int_workload):
        trace = generate_trace(int_workload, 30000, seed=0)
        for kind, frac in int_workload.mix.items():
            assert trace.kind_fraction(kind) == pytest.approx(frac, abs=0.02)

    def test_l2_implies_l1(self, small_trace):
        assert np.all(~small_trace.l2_miss | small_trace.l1_miss)

    def test_misses_only_on_memory_ops(self, small_trace):
        is_mem = np.isin(small_trace.kinds, [int(Uop.LOAD), int(Uop.STORE)])
        assert np.all(~small_trace.l1_miss | is_mem)

    def test_mispredicts_only_on_branches(self, small_trace):
        is_branch = small_trace.kinds == int(Uop.BRANCH)
        assert np.all(~small_trace.branch_mispredict | is_branch)

    def test_dependence_distances_within_trace(self, small_trace):
        index = np.arange(len(small_trace))
        assert np.all(small_trace.dep1 <= index)
        assert np.all(small_trace.dep2 <= index)

    def test_dependence_mean_tracks_profile(self, suite):
        high_ilp = by_name("mgrid*")
        trace = generate_trace(high_ilp, 20000, seed=0)
        observed = trace.dep1[trace.dep1 > 0].mean()
        assert observed == pytest.approx(high_ilp.dep_mean_distance, rel=0.15)

    def test_rejects_empty(self, int_workload):
        with pytest.raises(ValueError):
            generate_trace(int_workload, 0)

    @staticmethod
    def _six(**changes):
        """A valid six-instruction trace's arrays, with ``changes``."""
        arrays = dict(
            kinds=np.array([0, 4, 0, 2, 5, 6], dtype=np.int8),
            dep1=np.array([0, 1, 1, 2, 3, 1], dtype=np.int32),
            dep2=np.array([0, 0, 2, 1, 0, 0], dtype=np.int32),
            branch_mispredict=np.zeros(6, dtype=bool),
            l1_miss=np.zeros(6, dtype=bool),
            l2_miss=np.zeros(6, dtype=bool),
            icache_miss=np.zeros(6, dtype=bool),
        )
        for name, (index, value) in changes.items():
            arrays[name][index] = value
        return SyntheticTrace(**arrays)

    def test_valid_six_instruction_trace_simulates(self):
        assert simulate(self._six()).instructions == 6

    def test_rejects_negative_distance(self):
        # Was accepted: the walk read instruction 1's completion.
        with pytest.raises(ValueError, match="dep1 distances"):
            self._six(dep1=(4, -1))

    def test_rejects_distance_before_trace_start(self):
        # Was a bare IndexError from the walk.
        with pytest.raises(ValueError, match="dep2 distances"):
            self._six(dep2=(3, 4))

    def test_rejects_kind_outside_uop(self):
        # Was a bare IndexError from the decode.
        with pytest.raises(ValueError, match="Uop codes"):
            self._six(kinds=(2, 9))


class TestPipeline:
    def test_cpi_at_least_issue_bound(self, small_trace):
        result = simulate(small_trace)
        assert result.cpi >= 1.0 / DEFAULT_CORE_CONFIG.issue_width

    def test_memory_bound_app_has_high_cpi(self):
        mcf = generate_trace(by_name("mcf*"), 6000, seed=0)
        crafty = generate_trace(by_name("crafty*"), 6000, seed=0)
        assert simulate(mcf).cpi > 2 * simulate(crafty).cpi

    def test_suppress_l2_lowers_cpi(self, small_trace):
        full = simulate(small_trace)
        comp = simulate(small_trace, suppress_l2_misses=True)
        assert comp.cpi <= full.cpi
        assert comp.l2_misses == 0

    def test_narrower_issue_hurts(self, small_trace):
        import dataclasses

        narrow = dataclasses.replace(
            DEFAULT_CORE_CONFIG, issue_width=1, fetch_width=1, retire_width=1
        )
        assert simulate(small_trace, narrow).cpi > simulate(small_trace).cpi

    def test_smaller_queue_never_helps(self, small_trace):
        full = simulate(small_trace)
        resized = simulate(
            small_trace, DEFAULT_CORE_CONFIG.with_resized_queue("int", 0.5)
        )
        assert resized.cpi >= full.cpi - 1e-9

    def test_extra_exec_stage_costs_on_branchy_code(self):
        twolf = generate_trace(by_name("twolf*"), 8000, seed=0)
        base = simulate(twolf)
        extra = simulate(twolf, DEFAULT_CORE_CONFIG.with_fu_replication())
        assert extra.cpi > base.cpi

    def test_longer_memory_latency_hurts_memory_bound(self):
        import dataclasses

        art = generate_trace(by_name("art*"), 6000, seed=0)
        slow_mem = dataclasses.replace(DEFAULT_CORE_CONFIG, mem_latency=400)
        assert simulate(art, slow_mem).cpi > simulate(art).cpi * 1.3

    def test_kind_counts_total(self, small_trace):
        result = simulate(small_trace)
        assert sum(result.kind_counts.values()) == len(small_trace)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)
        with pytest.raises(ValueError):
            DEFAULT_CORE_CONFIG.with_resized_queue("int", 0.0)
        with pytest.raises(ValueError):
            DEFAULT_CORE_CONFIG.with_resized_queue("vector")

    def test_resized_queue_sizes(self):
        cfg = DEFAULT_CORE_CONFIG.with_resized_queue("int")
        assert cfg.int_queue_size == int(DEFAULT_CORE_CONFIG.int_queue_size * 0.75)
        cfg_fp = DEFAULT_CORE_CONFIG.with_resized_queue("fp")
        assert cfg_fp.fp_queue_size == int(DEFAULT_CORE_CONFIG.fp_queue_size * 0.75)

    def test_queue_of(self):
        # The pipeline's uop -> issue queue table: 0 int, 1 FP, 2 memory.
        assert _QUEUE_OF[Uop.INT_ALU] == _QUEUE_OF[Uop.BRANCH] == 0
        assert _QUEUE_OF[Uop.FP_MUL] == 1
        assert _QUEUE_OF[Uop.LOAD] == _QUEUE_OF[Uop.STORE] == 2


class TestCoreConfigIntegrality:
    """Widths, sizes and latencies are integers: anything else fails at
    construction with a ValueError naming the field."""

    def test_fractional_latency_refused(self):
        # Accepted, it simulated to fractional cycles (677.5 on gzip*).
        with pytest.raises(ValueError, match="l2_latency must be an integer"):
            CoreConfig(l2_latency=12.5)

    def test_integral_float_refused(self):
        # Accepted, it failed later in the walk with a bare TypeError.
        with pytest.raises(ValueError, match="rob_size must be an integer"):
            CoreConfig(rob_size=160.0)

    def test_bool_refused(self):
        with pytest.raises(ValueError, match="issue_width must be an integer"):
            CoreConfig(issue_width=True)

    def test_numpy_integers_accepted_as_int(self):
        config = CoreConfig(rob_size=np.int64(160), l2_latency=np.int32(12))
        assert type(config.rob_size) is int and type(config.l2_latency) is int
        assert config == DEFAULT_CORE_CONFIG
        trace = generate_trace(by_name("gzip*"), 500, seed=0)
        assert simulate(trace, config) == simulate(trace)


class TestMeasurement:
    def test_cached(self, int_workload):
        a = measure_workload(int_workload, DEFAULT_CORE_CONFIG, 5000, seed=0)
        b = measure_workload(int_workload, DEFAULT_CORE_CONFIG, 5000, seed=0)
        assert a is b

    def test_cpi_comp_below_total(self, fp_measurement):
        assert fp_measurement.cpi_comp <= fp_measurement.cpi_total

    def test_overlap_in_unit_range(self, fp_measurement, int_measurement):
        for m in (fp_measurement, int_measurement):
            assert 0.05 <= m.overlap_factor <= 1.0

    def test_activity_vector_length(self, int_measurement):
        assert int_measurement.activity.shape == (15,)
        assert np.all(int_measurement.activity >= 0.0)

    def test_fp_app_stresses_fp_cluster(self, fp_measurement, int_measurement):
        fp_idx = default_floorplan().index_of("FPUnit")
        assert fp_measurement.activity[fp_idx] > int_measurement.activity[fp_idx]

    def test_int_app_has_no_fp_activity(self, int_measurement):
        idx = default_floorplan().index_of("FPQ")
        assert int_measurement.activity[idx] == pytest.approx(0.0, abs=1e-9)


class TestActivity:
    def test_rho_fetch_structures_once_per_instruction(self, small_trace):
        rho = accesses_per_instruction(small_trace)
        # Icache sees every fetch plus the (rare) line refills.
        assert rho["Icache"] == pytest.approx(1.0, abs=0.02)
        assert rho["Icache"] >= 1.0
        assert rho["Decode"] == pytest.approx(1.0)

    def test_alpha_is_rho_times_ipc(self, small_trace):
        result = simulate(small_trace)
        fp = default_floorplan()
        alpha = activity_factors(small_trace, result, fp)
        rho = rho_vector(small_trace, fp)
        assert np.allclose(alpha, rho * result.ipc)


class TestICacheMisses:
    def test_icache_misses_present_for_icache_bound_app(self):
        gcc = generate_trace(by_name("gcc*"), 20000, seed=0)
        rate = np.count_nonzero(gcc.icache_miss) / len(gcc)
        assert rate == pytest.approx(by_name("gcc*").icache_miss_rate, rel=0.3)

    def test_icache_misses_slow_fetch(self):
        gcc = by_name("gcc*")
        import dataclasses

        no_miss = dataclasses.replace(gcc, icache_miss_rate=0.0)
        with_trace = generate_trace(gcc, 8000, seed=1)
        without_trace = generate_trace(no_miss, 8000, seed=1)
        assert simulate(with_trace).cpi > simulate(without_trace).cpi

    def test_rate_validation(self):
        import dataclasses

        with pytest.raises(ValueError, match="icache"):
            dataclasses.replace(by_name("gcc*"), icache_miss_rate=1.5)


class TestPrefetcher:
    def test_prefetching_helps_memory_bound_code(self):
        import dataclasses

        art = generate_trace(by_name("art*"), 6000, seed=0)
        base = simulate(art)
        prefetched = simulate(
            art, dataclasses.replace(DEFAULT_CORE_CONFIG, prefetch_accuracy=0.6)
        )
        assert prefetched.cpi < base.cpi
        assert prefetched.l2_misses < base.l2_misses

    def test_perfect_prefetcher_removes_all_l2_misses(self):
        import dataclasses

        art = generate_trace(by_name("art*"), 4000, seed=0)
        perfect = simulate(
            art, dataclasses.replace(DEFAULT_CORE_CONFIG, prefetch_accuracy=1.0)
        )
        assert perfect.l2_misses == 0

    def test_accuracy_validation(self):
        import dataclasses

        with pytest.raises(ValueError, match="prefetch"):
            dataclasses.replace(DEFAULT_CORE_CONFIG, prefetch_accuracy=1.5)
