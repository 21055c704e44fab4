"""Phase stream generation and the Sherwood-style BBV detector."""

import numpy as np
import pytest

from repro.microarch import COUNTER_MAX, N_BUCKETS, PhaseDetector

from tests.phase_stream import generate_phase_stream


class TestPhaseStream:
    def test_covers_requested_time(self, fp_workload):
        stream = generate_phase_stream(fp_workload, total_ms=1000, seed=0)
        total = sum(p.duration_ms for p in stream)
        assert total == pytest.approx(1000, abs=1)

    def test_reproducible(self, fp_workload):
        a = generate_phase_stream(fp_workload, total_ms=500, seed=2)
        b = generate_phase_stream(fp_workload, total_ms=500, seed=2)
        assert [p.spec.name for p in a] == [p.spec.name for p in b]
        assert [p.duration_ms for p in a] == [p.duration_ms for p in b]

    def test_phases_alternate(self, fp_workload):
        stream = generate_phase_stream(fp_workload, total_ms=2000, seed=1)
        names = [p.spec.name for p in stream]
        assert all(a != b for a, b in zip(names, names[1:]))

    def test_signatures_persistent_per_phase_kind(self, fp_workload):
        stream = generate_phase_stream(fp_workload, total_ms=2000, seed=1)
        by_name = {}
        for p in stream:
            if p.spec.name in by_name:
                assert np.array_equal(by_name[p.spec.name], p.signature)
            by_name[p.spec.name] = p.signature

    def test_single_phase_workload(self, suite):
        crafty = next(w for w in suite if len(w.phases) == 1)
        stream = generate_phase_stream(crafty, total_ms=500, seed=0)
        assert {p.spec.name for p in stream} == {crafty.phases[0].name}

    def test_rejects_nonpositive_duration(self, fp_workload):
        with pytest.raises(ValueError):
            generate_phase_stream(fp_workload, total_ms=0)

    def test_bbv_quantised(self, fp_workload, rng):
        stream = generate_phase_stream(fp_workload, total_ms=300, seed=0)
        bbv = stream[0].sample_bbv(rng)
        assert bbv.shape == (N_BUCKETS,)
        assert bbv.dtype.kind == "i"
        assert bbv.max() <= COUNTER_MAX


class TestPhaseDetector:
    def test_recognises_recurring_phases(self, fp_workload, rng):
        stream = generate_phase_stream(fp_workload, total_ms=1500, seed=3)
        detector = PhaseDetector()
        ids = [detector.observe(p.sample_bbv(rng)).phase_id for p in stream]
        names = [p.spec.name for p in stream]
        mapping = {}
        for name, pid in zip(names, ids):
            mapping.setdefault(name, set()).add(pid)
        # Each true phase maps to exactly one detector id and vice versa.
        all_ids = [pid for ids_ in mapping.values() for pid in ids_]
        assert all(len(ids_) == 1 for ids_ in mapping.values())
        assert len(set(all_ids)) == len(all_ids)

    def test_first_observation_is_new(self, fp_workload, rng):
        stream = generate_phase_stream(fp_workload, total_ms=300, seed=3)
        detector = PhaseDetector()
        event = detector.observe(stream[0].sample_bbv(rng))
        assert event.is_new and event.changed

    def test_distance_properties(self):
        a = np.full(N_BUCKETS, 10)
        b = np.full(N_BUCKETS, 10)
        assert PhaseDetector.distance(a, b) == pytest.approx(0.0)
        c = np.zeros(N_BUCKETS)
        c[0] = 320
        assert PhaseDetector.distance(a, c) > 0.5

    def test_table_eviction_bounded(self, rng):
        detector = PhaseDetector(max_table=4)
        ids = set()
        for i in range(10):
            bbv = np.zeros(N_BUCKETS, dtype=int)
            bbv[i % N_BUCKETS] = COUNTER_MAX
            bbv[(i * 7 + 3) % N_BUCKETS] = COUNTER_MAX
            ids.add(detector.observe(bbv).phase_id)
        # Phase ids are table slots, so a bounded table reuses them.
        assert ids <= set(range(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PhaseDetector().observe(np.zeros(5))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PhaseDetector(threshold=0.0)

    def test_changed_flag_tracks_transitions(self, fp_workload, rng):
        stream = generate_phase_stream(fp_workload, total_ms=1200, seed=3)
        detector = PhaseDetector()
        changes = [detector.observe(p.sample_bbv(rng)).changed for p in stream]
        # Alternating phases: every observation is a transition.
        assert all(changes)
