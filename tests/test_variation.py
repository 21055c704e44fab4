"""VARIUS-style variation model: correlogram, grid, maps, populations."""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.variation import (
    DEFAULT_JITTER,
    ChipSample,
    DieGrid,
    VariationModel,
    VariationParams,
    clear_factor_memo,
    correlated_normal_factor,
    correlation_matrix,
    factor_key_data,
    get_factor,
    memo_size,
    set_store,
)


def _pair_correlation(distance, phi):
    """The correlogram at ``distance``: two points that far apart."""
    points = np.array([[0.0, 0.0], [distance, 0.0]])
    return correlation_matrix(points, phi)[0, 1]


class TestSphericalCorrelation:
    def test_unity_at_zero_distance(self):
        assert _pair_correlation(0.0, 0.5) == pytest.approx(1.0)

    def test_zero_at_and_beyond_range(self):
        assert _pair_correlation(0.5, 0.5) == pytest.approx(0.0)
        assert _pair_correlation(2.0, 0.5) == pytest.approx(0.0)

    def test_monotone_decreasing(self):
        r = np.linspace(0.0, 0.5, 50)
        points = np.column_stack([r, np.zeros_like(r)])
        rho = correlation_matrix(points, 0.5)[0]
        assert np.all(np.diff(rho) <= 1e-12)

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.zeros((2, 2)), 0.0)

    def test_rejects_malformed_points(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.zeros((2, 3)), 0.5)

    def test_correlation_matrix_is_symmetric_with_unit_diagonal(self):
        points = np.random.default_rng(0).random((10, 2))
        corr = correlation_matrix(points, 0.5)
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)

    def test_factor_reproduces_matrix(self):
        points = np.random.default_rng(1).random((15, 2))
        corr = correlation_matrix(points, 0.5)
        factor = correlated_normal_factor(points, 0.5)
        assert np.allclose(factor @ factor.T, corr, atol=1e-6)

    @staticmethod
    def _unfused(distance, phi):
        """The correlogram written out, one temporary per operation."""
        scaled = np.minimum(distance / phi, 1.0)
        return 1.0 - 1.5 * scaled + 0.5 * scaled**3

    @pytest.mark.parametrize("phi", [0.1, 0.5, 2.0])
    def test_bitwise_the_unfused_formula(self, phi):
        points = np.random.default_rng(2).random((300, 2))
        dx = np.subtract.outer(points[:, 0], points[:, 0])
        dy = np.subtract.outer(points[:, 1], points[:, 1])
        want = self._unfused(np.hypot(dx, dy), phi)
        assert correlation_matrix(points, phi).tobytes() == want.tobytes()

    def test_matrix_peak_is_two_dense_buffers(self):
        # The unfused formula holds about six (n, n) temporaries at once;
        # the build must stay within three (its two buffers plus slack).
        points = np.random.default_rng(4).random((400, 2))
        dense = points.shape[0] ** 2 * 8
        tracemalloc.start()
        try:
            correlation_matrix(points, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * dense


class TestDieGrid:
    def test_cell_centers_shape_and_bounds(self):
        grid = DieGrid(nx=5, ny=4)
        centers = grid.cell_centers()
        assert centers.shape == (20, 2)
        assert centers.min() > 0.0 and centers.max() < 1.0

    def test_cell_index_at_corners(self):
        grid = DieGrid(nx=4, ny=4)
        assert grid.cell_index_at(0.01, 0.01) == 0
        assert grid.cell_index_at(0.99, 0.99) == 15

    def test_cell_index_rejects_outside(self):
        with pytest.raises(ValueError):
            DieGrid().cell_index_at(1.5, 0.5)

    def test_cells_in_rect_returns_inside_cells(self):
        grid = DieGrid(nx=10, ny=10)
        cells = grid.cells_in_rect(0.0, 0.0, 0.5, 0.5)
        assert len(cells) == 25

    def test_cells_in_rect_tiny_rectangle_gets_one_cell(self):
        grid = DieGrid(nx=4, ny=4)
        cells = grid.cells_in_rect(0.26, 0.26, 0.27, 0.27)
        assert len(cells) == 1

    def test_cells_in_rect_rejects_degenerate(self):
        with pytest.raises(ValueError):
            DieGrid().cells_in_rect(0.5, 0.5, 0.5, 0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            DieGrid(nx=0)


class TestVariationParams:
    def test_figure_7a_defaults(self):
        p = VariationParams()
        assert p.vt_mean == pytest.approx(0.150)
        assert p.vt_sigma_rel == pytest.approx(0.09)
        assert p.leff_sigma_rel == pytest.approx(0.045)  # 0.5 x Vt's
        assert p.phi == pytest.approx(0.5)

    def test_equal_split_of_variance(self):
        p = VariationParams()
        total = np.hypot(p.vt_sigma_sys, p.vt_sigma_ran)
        assert total == pytest.approx(p.vt_mean * p.vt_sigma_rel)
        assert p.vt_sigma_sys == pytest.approx(p.vt_sigma_ran)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            VariationParams(systematic_fraction=1.5)

    def test_rejects_nonpositive_phi(self):
        with pytest.raises(ValueError):
            VariationParams(phi=0.0)


class TestChipSample:
    def test_population_is_reproducible(self, variation_model):
        a = variation_model.population(3, seed=9)
        b = variation_model.population(3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.vt_sys, y.vt_sys)
            assert np.array_equal(x.leff_sys, y.leff_sys)

    def test_population_chips_differ(self, population):
        assert not np.array_equal(population[0].vt_sys, population[1].vt_sys)

    def test_systematic_sigma_close_to_spec(self, variation_model):
        chips = variation_model.population(40, seed=3)
        values = np.concatenate([c.vt_sys for c in chips])
        expected = variation_model.params.vt_sigma_sys
        assert np.std(values) == pytest.approx(expected, rel=0.1)

    def test_spatial_correlation_decays(self, population):
        chip = population[0]
        grid = chip.grid
        field = chip.vt_sys.reshape(grid.ny, grid.nx)
        # Neighbouring columns should correlate far more than distant ones.
        near = np.corrcoef(field[:, 0], field[:, 1])[0, 1]
        # Average several distant pairs (single-pair estimates are noisy).
        far = np.mean(
            [
                np.corrcoef(field[:, i], field[:, i + grid.nx - 4])[0, 1]
                for i in range(3)
            ]
        )
        assert near > 0.8
        assert near > far + 0.2

    def test_shape_validation(self):
        grid = DieGrid(nx=3, ny=3)
        with pytest.raises(ValueError):
            ChipSample(
                grid=grid,
                params=VariationParams(),
                vt_sys=np.zeros(5),
                leff_sys=np.zeros(9),
            )

    def test_rejects_nonpositive_leff(self):
        grid = DieGrid(nx=2, ny=2)
        with pytest.raises(ValueError):
            ChipSample(
                grid=grid,
                params=VariationParams(),
                vt_sys=np.zeros(4),
                leff_sys=np.full(4, -1.5),
            )

    def test_vt_leff_independent_by_default(self, variation_model):
        chips = variation_model.population(30, seed=11)
        vt = np.concatenate([c.vt_sys for c in chips])
        leff = np.concatenate([c.leff_sys for c in chips])
        assert abs(np.corrcoef(vt, leff)[0, 1]) < 0.12


def _assert_same_chips(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.vt_sys, y.vt_sys)
        assert np.array_equal(x.leff_sys, y.leff_sys)
        assert x.chip_id == y.chip_id


class TestBatchedSampling:
    """population(batch=True) must reproduce the serial loop bit for bit."""

    GRID = DieGrid(nx=12, ny=10)

    def _model(self, **params):
        return VariationModel(grid=self.GRID, params=VariationParams(**params))

    def test_batched_matches_serial(self):
        model = self._model()
        _assert_same_chips(
            model.population(7, seed=5, batch=True),
            model.population(7, seed=5, batch=False),
        )

    def test_batched_matches_serial_with_d2d(self):
        model = self._model(d2d_sigma_rel=0.08)
        _assert_same_chips(
            model.population(7, seed=5, batch=True),
            model.population(7, seed=5, batch=False),
        )

    def test_batched_matches_serial_with_vt_leff_correlation(self):
        model = self._model(vt_leff_correlation=0.4)
        _assert_same_chips(
            model.population(7, seed=5, batch=True),
            model.population(7, seed=5, batch=False),
        )

    def test_batched_matches_serial_combined(self):
        model = self._model(d2d_sigma_rel=0.05, vt_leff_correlation=-0.3)
        _assert_same_chips(
            model.population(7, seed=5, batch=True),
            model.population(7, seed=5, batch=False),
        )

    def test_single_chip_population(self):
        model = self._model()
        _assert_same_chips(
            model.population(1, seed=2, batch=True),
            model.population(1, seed=2, batch=False),
        )

    def test_batched_matches_serial_on_tiny_grid(self):
        # Small dies are where narrow/wide BLAS kernels most often differ,
        # i.e. where the width-2 panel fallback tends to engage.
        model = VariationModel(grid=DieGrid(nx=6, ny=5))
        _assert_same_chips(
            model.population(5, seed=1, batch=True),
            model.population(5, seed=1, batch=False),
        )

    def test_exactly_one_batch_strategy_counted(self):
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            self._model().population(4, seed=0, batch=True)
        counters = scope.to_dict()["counters"]
        # Paired counters: both always present, exactly one taken.
        assert (
            counters["variation.batch.wide"]
            + counters["variation.batch.panel"]
        ) == 1.0

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            self._model().population(0)


class TestFactorMemo:
    GRID = DieGrid(nx=8, ny=8)

    def test_second_lookup_is_a_hit(self):
        clear_factor_memo()
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            first = get_factor(self.GRID, 0.5)
            second = get_factor(self.GRID, 0.5)
        assert second is first  # same memoised array, no copy
        counters = scope.to_dict()["counters"]
        assert counters["variation.factor.misses"] == 1.0
        assert counters["variation.factor.hits"] == 1.0
        assert counters["variation.cholesky_seconds"] > 0.0

    def test_memoised_factor_is_read_only(self):
        factor = get_factor(self.GRID, 0.5)
        with pytest.raises(ValueError):
            factor[0, 0] = 99.0

    def test_matches_direct_construction(self):
        expected = correlated_normal_factor(
            self.GRID.cell_centers(), 0.5, jitter=DEFAULT_JITTER
        )
        assert np.array_equal(get_factor(self.GRID, 0.5), expected)

    def test_key_tracks_grid_and_phi(self):
        base = factor_key_data(self.GRID, 0.5)
        assert base == factor_key_data(DieGrid(nx=8, ny=8), 0.5)
        assert base != factor_key_data(DieGrid(nx=8, ny=9), 0.5)
        assert base != factor_key_data(self.GRID, 0.3)
        assert base != factor_key_data(self.GRID, 0.5, jitter=1e-6)

    def test_distinct_keys_get_distinct_entries(self):
        clear_factor_memo()
        get_factor(self.GRID, 0.5)
        get_factor(self.GRID, 0.3)  # phi change: new factorisation
        get_factor(DieGrid(nx=6, ny=6), 0.5)  # grid change: new factorisation
        assert memo_size() == 3
        clear_factor_memo()
        assert memo_size() == 0

    def test_store_roundtrip_and_cold_process_load(self, tmp_path):
        from repro.exps.cache import ExperimentCache, FactorStore

        cache = ExperimentCache(tmp_path)
        set_store(FactorStore(cache))
        try:
            clear_factor_memo()
            saved = get_factor(self.GRID, 0.5)  # store miss: saves artifact
            assert cache.stats.misses["factor"] == 1
            clear_factor_memo()  # simulate a cold process, warm disk
            loaded = get_factor(self.GRID, 0.5)
            assert cache.stats.hits["factor"] == 1
            assert np.array_equal(loaded, saved)
            assert not loaded.flags.writeable
        finally:
            set_store(None)
            clear_factor_memo()

    def test_population_shares_one_factorisation(self):
        clear_factor_memo()
        model = VariationModel(grid=self.GRID)
        scope = obs.MetricsRegistry()
        with obs.scoped(scope):
            model.population(3, seed=0)
            VariationModel(grid=self.GRID).population(3, seed=1)
        counters = scope.to_dict()["counters"]
        # Two models, two populations — one Cholesky.
        assert counters["variation.factor.misses"] == 1.0


class TestDieToDie:
    def test_d2d_widens_chip_mean_spread(self, variation_model):
        from repro.variation import VariationModel, VariationParams

        wid_only = variation_model.population(30, seed=2)
        d2d_model = VariationModel(
            grid=variation_model.grid,
            params=VariationParams(d2d_sigma_rel=0.08),
        )
        with_d2d = d2d_model.population(30, seed=2)
        spread_wid = np.std([c.vt_sys.mean() for c in wid_only])
        spread_d2d = np.std([c.vt_sys.mean() for c in with_d2d])
        assert spread_d2d > 2 * spread_wid

    def test_d2d_defaults_off(self):
        from repro.variation import VariationParams

        assert VariationParams().d2d_sigma_rel == 0.0

    def test_d2d_validation(self):
        from repro.variation import VariationParams

        with pytest.raises(ValueError):
            VariationParams(d2d_sigma_rel=-0.1)
