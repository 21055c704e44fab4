"""Fuzzy controllers: inference (Eqs 10-12), training (Eq 13), banks."""

import json
import re

import numpy as np
import pytest

from repro.chip.chip import CoreLanes
from repro.ml import (
    FuzzyController,
    sample_inputs,
    train_fuzzy_controllers,
)
from repro.ml.dataset import (
    TrainingRequest,
    demand_feature,
    generate_training_datasets,
    _batch_arrays,
)
from tests import golden


def _simple_fc():
    return FuzzyController(
        mu=np.array([[0.0, 0.0], [1.0, 1.0]]),
        sigma=np.full((2, 2), 0.5),
        y=np.array([0.0, 10.0]),
        input_mean=np.zeros(2),
        input_std=np.ones(2),
    )


def _predict_one(fc, x):
    """Eq 12 for one raw input vector: the one-row ``predict_rows`` call."""
    return float(fc.predict_rows(np.asarray(x, dtype=float)[None])[0])


class TestFuzzyInference:
    def test_output_at_rule_centre(self):
        fc = _simple_fc()
        assert _predict_one(fc, [0.0, 0.0]) == pytest.approx(0.0, abs=0.01)
        assert _predict_one(fc, [1.0, 1.0]) == pytest.approx(10.0, abs=0.01)

    def test_interpolates_between_rules(self):
        fc = _simple_fc()
        mid = _predict_one(fc, [0.5, 0.5])
        assert 4.0 < mid < 6.0

    def test_far_input_falls_back_to_nearest_rule(self):
        fc = _simple_fc()
        assert _predict_one(fc, [100.0, 100.0]) == pytest.approx(10.0)

    def test_batch_matches_scalar(self, rng):
        fc = _simple_fc()
        xs = rng.normal(0.5, 0.4, size=(20, 2))
        batch = fc.predict_batch(xs)
        scalar = np.array([_predict_one(fc, x) for x in xs])
        assert np.allclose(batch, scalar)

    def test_rows_equal_one_row_calls(self, rng):
        """predict_rows is the inference formula: each row equals its
        one-row call exactly, fallback rows included."""
        fc = _simple_fc()
        xs = np.vstack([
            rng.normal(0.5, 0.4, size=(20, 2)),
            [[100.0, 100.0], [-80.0, 3.0]],  # no rule fires
        ])
        np.testing.assert_array_equal(
            fc.predict_rows(xs), [_predict_one(fc, x) for x in xs]
        )

    def test_output_bounded_by_rule_outputs(self, rng):
        # Eq 12 is a convex combination: the output cannot exceed the
        # rule outputs' range.
        fc = _simple_fc()
        xs = rng.normal(0.5, 1.0, size=(100, 2))
        out = fc.predict_batch(xs)
        assert out.min() >= -1e-9 and out.max() <= 10.0 + 1e-9

    def test_shape_validation(self):
        fc = _simple_fc()
        with pytest.raises(ValueError):
            _predict_one(fc, np.zeros(3))
        with pytest.raises(ValueError):
            fc.predict_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"\(n, 2\), got \(4, 3\)"):
            fc.predict_rows(np.zeros((4, 3)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FuzzyController(
                mu=np.zeros((2, 2)),
                sigma=np.zeros((2, 2)),  # non-positive widths
                y=np.zeros(2),
                input_mean=np.zeros(2),
                input_std=np.ones(2),
            )


class TestTraining:
    def test_learns_linear_function(self, rng):
        X = rng.uniform(-1, 1, size=(2000, 3))
        y = 2.0 * X[:, 0] - X[:, 1]
        [(fc, report)] = train_fuzzy_controllers([(X, y)], epochs=2, seeds=[0])
        assert report.final_rmse < 0.3 * y.std()

    def test_learns_nonlinear_function(self, rng):
        X = rng.uniform(-1, 1, size=(4000, 2))
        y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2
        [(fc, report)] = train_fuzzy_controllers([(X, y)], epochs=3, seeds=[0])
        assert report.final_rmse < 0.35 * y.std()

    def test_more_epochs_do_not_hurt(self, rng):
        X = rng.uniform(-1, 1, size=(3000, 2))
        y = X[:, 0] * X[:, 1]
        [(_, r1)] = train_fuzzy_controllers([(X, y)], epochs=1, seeds=[0])
        [(_, r3)] = train_fuzzy_controllers([(X, y)], epochs=4, seeds=[0])
        assert r3.final_rmse <= r1.final_rmse * 1.05

    def test_rule_count_respected(self, rng):
        X = rng.uniform(-1, 1, size=(500, 2))
        [(fc, _)] = train_fuzzy_controllers([(X, X[:, 0])], n_rules=10, seeds=[0])
        assert fc.mu.shape[0] == fc.y.shape[0] == 10

    def test_requires_enough_examples(self, rng):
        X = rng.uniform(-1, 1, size=(10, 2))
        with pytest.raises(ValueError):
            train_fuzzy_controllers([(X, X[:, 0])], n_rules=25, seeds=[0])

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            train_fuzzy_controllers([(np.zeros((50, 2)), np.zeros(40))], seeds=[0])

    def test_training_is_deterministic(self, rng):
        X = rng.uniform(-1, 1, size=(600, 2))
        y = X[:, 0]
        [(a, _)] = train_fuzzy_controllers([(X, y)], seeds=[7])
        [(b, _)] = train_fuzzy_controllers([(X, y)], seeds=[7])
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.y, b.y)


class TestDataset:
    def test_sampled_inputs_in_physical_ranges(self, core, rng):
        samples = sample_inputs(core, 0, 500, rng)
        assert np.all(samples.vt0_timing > 0.0)
        assert np.all(samples.alpha > 0.0)
        assert np.all(samples.tail >= 0.0)
        assert np.all(samples.th <= core.calib.t_heatsink_max)

    def test_generated_targets_within_knob_range(self, core, asv_spec):
        [(fx, fy, px, vdd, vbb)] = generate_training_datasets(
            core, asv_spec, [TrainingRequest(index=0, seed=1, n_examples=300)]
        )
        kr = asv_spec.knob_ranges
        assert np.all(fy * 1e9 >= kr.f_min - 1e-6)
        assert np.all(fy * 1e9 <= kr.f_max + 1e-6)
        assert set(np.round(vdd, 4)) <= set(np.round(asv_spec.vdd_levels, 4))
        assert np.all(vbb == 0.0)  # no ABB in this spec

    def test_longer_channels_get_lower_fmax(self, core, asv_spec, rng):
        # Leff affects only delay (not leakage), so unlike Vt — where low
        # thresholds are fast but leaky-hot — its effect on fmax is
        # unambiguous: longer channels are slower.
        samples = sample_inputs(core, 0, 400, rng)
        batch = _batch_arrays(core, 0, samples)
        from repro.core.optimizer import freq_algorithm

        result = freq_algorithm(batch, asv_spec)
        order = np.argsort(samples.leff)
        short_mean = result.f_max[order[:100]].mean()
        long_mean = result.f_max[order[-100:]].mean()
        assert short_mean > long_mean

    def test_demand_feature_increases_with_f_core(self, core, asv_spec, rng):
        samples = sample_inputs(core, 0, 50, rng)
        batch = _batch_arrays(core, 0, samples)
        low = demand_feature(batch, 3e9, samples.th, asv_spec.pe_budget)
        high = demand_feature(batch, 4.5e9, samples.th, asv_spec.pe_budget)
        assert np.all(high > low)

    def test_multi_request_labeling_matches_single(self, core, asv_spec):
        requests = [
            TrainingRequest(index=0, seed=7, n_examples=300),
            TrainingRequest(index=2, seed=8, n_examples=450, delay_scale=0.9),
            TrainingRequest(index=0, seed=9, n_examples=300, power_factor=1.3),
        ]
        joint = generate_training_datasets(
            core, asv_spec, requests, chunk=200
        )
        assert len(joint) == len(requests)
        for request, got in zip(requests, joint):
            [want] = generate_training_datasets(
                core, asv_spec, [request], chunk=200
            )
            assert len(got) == len(want) == 5
            for got_part, want_part in zip(got, want):
                assert np.array_equal(got_part, want_part)

    def test_labeling_invariant_to_request_grouping(self, core, asv_spec):
        # Batching lanes across *requests* must not perturb any request's
        # RNG stream or labels: a request labelled alongside others is
        # bit-identical to the same request labelled alone.
        requests = [
            TrainingRequest(index=1, seed=3, n_examples=240),
            TrainingRequest(index=4, seed=5, n_examples=240),
        ]
        joint = generate_training_datasets(core, asv_spec, requests, chunk=120)
        for request, got in zip(requests, joint):
            alone = generate_training_datasets(
                core, asv_spec, [request], chunk=120
            )[0]
            for got_part, want_part in zip(got, alone):
                assert np.array_equal(got_part, want_part)


def _lane_inputs(bank, cores, alpha=0.5, rho=0.5):
    """A lane stack of ``cores`` with each subsystem's first variant and
    uniform activity and rho."""
    lanes = CoreLanes.stack(list(cores))
    n = lanes.n_subsystems
    variants = np.array(
        [[bank.variants_for(c, i)[0] for i in range(n)] for c in cores],
        dtype=object,
    )
    shape = (len(cores), n)
    return lanes, variants, np.full(shape, alpha), np.full(shape, rho)


class TestBank:
    def test_bank_contains_variant_fcs(self, tiny_bank, core):
        fp = core.floorplan
        assert (fp.index_of("IntQ"), "full") in tiny_bank.freq_fcs
        assert (fp.index_of("IntQ"), "resized") in tiny_bank.freq_fcs
        assert (fp.index_of("IntALU"), "lowslope") in tiny_bank.freq_fcs
        assert (fp.index_of("Dcache"), "base") in tiny_bank.freq_fcs

    def test_predictions_within_ranges(self, tiny_bank, core):
        spec = tiny_bank.spec
        lanes, variants, alpha, rho = _lane_inputs(tiny_bank, [core])
        f = tiny_bank.predict_fmax(lanes, variants, spec.t_heatsink, alpha, rho)
        assert f.shape == (1, core.n_subsystems)
        assert np.all(spec.knob_ranges.f_min <= f)
        assert np.all(f <= spec.knob_ranges.f_max)
        vdd, vbb = tiny_bank.predict_voltages(
            lanes, variants, spec.t_heatsink, alpha, rho, np.array([3.6e9])
        )
        assert np.all(
            np.min(np.abs(spec.vdd_levels - vdd[..., None]), axis=-1) < 1e-9
        )
        assert np.all(vbb == 0.0)

    def test_freq_prediction_tracks_exhaustive(self, tiny_bank, core, other_core):
        """Even a tiny bank should rank a slow chip below a fast one."""
        from repro.core.optimizer import core_subsystem_arrays, freq_algorithm

        spec = tiny_bank.spec
        cores = [core, other_core]
        lanes, variants, _, _ = _lane_inputs(tiny_bank, cores)
        alpha = np.stack([c.alpha_ref for c in cores])
        rho = np.stack([c.rho_ref for c in cores])
        predicted = tiny_bank.predict_fmax(
            lanes, variants, spec.t_heatsink, alpha, rho
        )
        exact = np.stack([
            freq_algorithm(
                core_subsystem_arrays(c, c.alpha_ref, c.rho_ref), spec
            ).f_max
            for c in cores
        ])
        # Tiny training set: generous bound (the real bank is ~4x better).
        assert np.mean(np.abs(predicted - exact)) < 0.5e9

    def test_higher_demand_needs_higher_vdd(self, tiny_bank, core):
        spec = tiny_bank.spec
        lanes, variants, alpha, rho = _lane_inputs(tiny_bank, [core, core])
        vdd, _ = tiny_bank.predict_voltages(
            lanes, variants, spec.t_heatsink, alpha, rho,
            np.array([2.6e9, 4.8e9]),
        )
        assert np.all(vdd[1] >= vdd[0])

    def test_lanes_equal_one_lane_calls(self, tiny_bank, core, other_core, rng):
        """Grouping lanes by FC changes no entry: mixed variants in one
        column, each lane equal to its one-lane call."""
        spec = tiny_bank.spec
        cores = [core, other_core, core]
        lanes, variants, _, _ = _lane_inputs(tiny_bank, cores)
        for name, variant in (("IntQ", "resized"), ("IntALU", "lowslope")):
            variants[1, core.floorplan.index_of(name)] = variant
        alpha = rng.uniform(0.1, 0.9, size=variants.shape)
        rho = rng.uniform(0.1, 0.9, size=variants.shape)
        f_core = np.array([3.2e9, 4.0e9, 4.4e9])
        th = spec.t_heatsink
        f = tiny_bank.predict_fmax(lanes, variants, th, alpha, rho)
        vdd, vbb = tiny_bank.predict_voltages(
            lanes, variants, th, alpha, rho, f_core
        )
        for lane in range(len(cores)):
            one = lanes.lane_subset([lane])
            args = (variants[[lane]], th, alpha[[lane]], rho[[lane]])
            np.testing.assert_array_equal(
                tiny_bank.predict_fmax(one, *args)[0], f[lane]
            )
            one_vdd, one_vbb = tiny_bank.predict_voltages(
                one, *args, f_core[[lane]]
            )
            np.testing.assert_array_equal(one_vdd[0], vdd[lane])
            np.testing.assert_array_equal(one_vbb[0], vbb[lane])

    @pytest.mark.parametrize("name", ["variants", "alpha", "rho", "f_core"])
    def test_input_shape_mismatch_is_structured(self, tiny_bank, core, name):
        lanes, variants, alpha, rho = _lane_inputs(tiny_bank, [core, core])
        inputs = {
            "variants": variants, "alpha": alpha, "rho": rho,
            "f_core": np.full(2, 3.6e9),
        }
        inputs[name] = inputs[name][:1]
        expected = "(2,)" if name == "f_core" else f"(2, {core.n_subsystems})"
        match = rf"{name} must have shape {re.escape(expected)}.*got \(1"
        with pytest.raises(ValueError, match=match):
            tiny_bank.predict_voltages(
                lanes, inputs["variants"], tiny_bank.spec.t_heatsink,
                inputs["alpha"], inputs["rho"], inputs["f_core"],
            )
        if name != "f_core":
            with pytest.raises(ValueError, match=match):
                tiny_bank.predict_fmax(
                    lanes, inputs["variants"], tiny_bank.spec.t_heatsink,
                    inputs["alpha"], inputs["rho"],
                )

    def test_unknown_variant_is_structured(self, tiny_bank, core):
        lanes, variants, alpha, rho = _lane_inputs(tiny_bank, [core])
        variants[0, core.floorplan.index_of("Dcache")] = "resized"
        th = tiny_bank.spec.t_heatsink
        with pytest.raises(ValueError, match="variant 'resized'"):
            tiny_bank.predict_fmax(lanes, variants, th, alpha, rho)
        with pytest.raises(ValueError, match="variant 'resized'"):
            tiny_bank.predict_voltages(
                lanes, variants, th, alpha, rho, np.array([3.6e9])
            )


class TestLockstepTraining:
    """train_fuzzy_controllers == each controller trained alone, bit for bit,
    and both == the per-controller trainer it replaced (pinned digests)."""

    @staticmethod
    def _assert_same(a, b):
        fc_a, report_a = a
        fc_b, report_b = b
        for name in ("mu", "sigma", "y", "input_mean", "input_std"):
            assert np.array_equal(getattr(fc_a, name), getattr(fc_b, name)), name
        assert report_a == report_b

    def test_lockstep_equals_alone(self):
        datasets = golden.trainer_datasets()
        seeds = [case[2] for case in golden.TRAINER_CASES]
        together = train_fuzzy_controllers(
            datasets, epochs=golden.TRAINER_EPOCHS, seeds=seeds
        )
        alone = golden.train_trainer_cases_alone()
        assert len(together) == len(alone) == len(datasets)
        for a, b in zip(together, alone):
            self._assert_same(a, b)
        assert [r.n_examples for _, r in together] == [
            case[1] for case in golden.TRAINER_CASES
        ]

    def test_order_and_grouping_do_not_matter(self):
        datasets = golden.trainer_datasets()
        seeds = [case[2] for case in golden.TRAINER_CASES]
        forward = train_fuzzy_controllers(datasets, epochs=2, seeds=seeds)
        backward = train_fuzzy_controllers(
            datasets[::-1], epochs=2, seeds=seeds[::-1]
        )
        for a, b in zip(forward, backward[::-1]):
            self._assert_same(a, b)

    def test_outlier_fires_no_rule(self):
        """The outlier case really exercises the skipped-row path."""
        datasets = golden.trainer_datasets()
        for case, (inputs, _), (fc, _) in zip(
            golden.TRAINER_CASES, datasets, golden.train_trainer_cases_alone()
        ):
            if case[3] is not None:
                x_std = fc.standardise(inputs[case[3]])
                assert fc.rule_strengths(x_std).sum() < 1e-30

    def test_results_are_copies(self):
        (fc_a, _), (fc_b, _) = train_fuzzy_controllers(
            golden.trainer_datasets()[:2], epochs=1, seeds=[0, 1]
        )
        for fc in (fc_a, fc_b):
            for name in ("mu", "sigma", "y"):
                array = getattr(fc, name)
                assert array.base is None and array.flags.c_contiguous

    def test_trainer_matches_pinned_parent(self):
        doc = json.loads(golden.BANK_FIXTURE.read_text())
        alone = golden.train_trainer_cases_alone()
        rmse = [report.final_rmse for _, report in alone]
        if doc["platform"] == golden.platform_tag():
            assert golden.controllers_digest(fc for fc, _ in alone) == (
                doc["trainer_sha256"]
            )
            assert rmse == doc["trainer_rmse"]
        else:  # another numpy/libm: the last bits of exp/pow may differ
            assert np.allclose(rmse, doc["trainer_rmse"], rtol=1e-6)

    def test_bank_matches_pinned_parent(self):
        doc = json.loads(golden.BANK_FIXTURE.read_text())
        bank = golden.train_pinned_bank()
        if doc["platform"] == golden.platform_tag():
            assert golden.bank_digest(bank) == doc["sha256"]
        summary = golden.bank_summary(bank)
        assert summary.keys() == doc["summary"].keys()
        for key, values in doc["summary"].items():
            assert np.allclose(summary[key], values, rtol=1e-6), key

    def test_validation(self):
        X = np.zeros((40, 2))
        with pytest.raises(ValueError, match="epochs"):
            train_fuzzy_controllers([(X, X[:, 0])], epochs=0, seeds=[0])
        with pytest.raises(ValueError, match="one seed per dataset"):
            train_fuzzy_controllers([(X, X[:, 0])], seeds=[1, 2])
        assert train_fuzzy_controllers([], seeds=[]) == []
        [(_, report)] = train_fuzzy_controllers([(X, X[:, 0])], epochs=3, seeds=[0])
        assert report.epochs == 3

    def test_counters_and_span(self):
        from repro import obs
        from repro.obs import MetricsRegistry

        with obs.scoped(MetricsRegistry()) as registry:
            train_fuzzy_controllers(
                golden.trainer_datasets(), epochs=1,
                seeds=[case[2] for case in golden.TRAINER_CASES],
            )
        doc = registry.to_dict()
        assert doc["counters"]["ml.fcs_trained"] == len(golden.TRAINER_CASES)
        histograms = doc["histograms"]
        assert histograms["ml.train_seconds"]["count"] == len(golden.TRAINER_CASES)
        assert histograms["span.ml.train_seconds"]["count"] == 2  # 2 widths
