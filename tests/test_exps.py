"""Experiment harness: runner, ladder, figure modules (small scale)."""

import numpy as np
import pytest

from repro.core import BASELINE, NOVAR, TS, TS_ASV, AdaptationMode
from repro.exps import (
    area_rows,
    format_series,
    format_table,
    run_area_table,
    run_fig1,
    run_fig2,
    run_fig8,
    run_fig9,
    run_ladder,
)
from repro.exps.runner import RunnerConfig

from tests.conftest import run_env


class TestRunner:
    def test_baseline_below_novar(self, tiny_runner):
        base = run_env(tiny_runner, BASELINE)
        assert 0.6 < base.f_rel < 0.95
        assert base.perf_rel < 1.0

    def test_novar_is_unity(self, tiny_runner):
        novar = run_env(tiny_runner, NOVAR)
        assert novar.f_rel == pytest.approx(1.0)
        assert novar.perf_rel == pytest.approx(1.0)

    def test_ts_improves_on_baseline(self, tiny_runner):
        base = run_env(tiny_runner, BASELINE)
        ts = run_env(tiny_runner, TS)
        assert ts.f_rel > base.f_rel
        assert ts.perf_rel > base.perf_rel

    def test_static_below_dynamic(self, tiny_runner):
        static = run_env(tiny_runner, TS_ASV, AdaptationMode.STATIC)
        dynamic = run_env(tiny_runner, TS_ASV, AdaptationMode.EXH_DYN)
        assert static.f_rel <= dynamic.f_rel + 1e-9

    def test_results_carry_metadata(self, tiny_runner):
        summary = run_env(tiny_runner, TS)
        r = summary.results[0]
        assert r.environment == "TS"
        assert r.workload.endswith("*")
        assert r.power > 0

    def test_phase_weights_normalised(self, tiny_runner):
        summary = run_env(tiny_runner, TS)
        # Summary f_rel must lie within the per-result range.
        values = [r.f_rel for r in summary.results]
        assert min(values) <= summary.f_rel <= max(values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunnerConfig(n_chips=0)
        with pytest.raises(ValueError):
            RunnerConfig(cores_per_chip=5)

    @pytest.mark.parametrize("field,value,message", [
        ("fuzzy_examples", 24, "fuzzy_examples must be >= 25"),
        ("fuzzy_epochs", 0, "fuzzy_epochs must be >= 1"),
        ("n_instructions", 0, "n_instructions must be >= 1"),
    ])
    def test_scale_validation(self, field, value, message):
        """A bad training or trace scale fails at construction, not at
        the first Fuzzy-Dyn unit of a campaign."""
        with pytest.raises(ValueError, match=message):
            RunnerConfig(**{field: value})
        RunnerConfig(**{field: value + 1})

    def test_core_cache(self, tiny_runner):
        assert tiny_runner.core(0, 0) is tiny_runner.core(0, 0)

    def test_batched_unit_matches_serial(self, tiny_runner):
        """A block of every unit equals one run_unit call per unit."""
        units = [(chip, 0) for chip in range(tiny_runner.config.n_chips)]
        batched = tiny_runner.run_units_batched(
            TS_ASV, AdaptationMode.EXH_DYN, units
        )
        serial = [
            tiny_runner.run_unit(TS_ASV, AdaptationMode.EXH_DYN, chip, core)
            for chip, core in units
        ]
        assert batched == serial


class TestLadder:
    def test_small_ladder(self, tiny_runner):
        result = run_ladder(
            tiny_runner,
            environments=[TS, TS_ASV],
            modes=[AdaptationMode.EXH_DYN],
        )
        ts = result.summary(TS, AdaptationMode.EXH_DYN)
        asv = result.summary(TS_ASV, AdaptationMode.EXH_DYN)
        assert asv.f_rel >= ts.f_rel
        assert result.baseline.f_rel < ts.f_rel

    def test_row_rendering(self, tiny_runner):
        result = run_ladder(
            tiny_runner,
            environments=[TS],
            modes=[AdaptationMode.EXH_DYN],
        )
        # Rendering expects all three modes; restrict to what we ran.
        rows = [
            [TS.name, f"{result.summary(TS, AdaptationMode.EXH_DYN).f_rel:.3f}"]
        ]
        table = format_table("Fig 10 (subset)", ["Env", "Exh-Dyn"], rows)
        assert "TS" in table


class TestFigureModules:
    def test_fig1_variation_slows_the_stage(self):
        result = run_fig1()
        assert result.t_varied > result.t_nominal * 0.95
        assert result.pe_pipeline[-1] > result.pe_pipeline[0]
        # Eq 4: pipeline curve dominates any single stage's curve.
        assert np.all(result.pe_pipeline >= result.pe_stage - 1e-30)

    def test_fig2_transforms_behave(self):
        result = run_fig2()
        f_opt = result.tolerance.f_opt
        idx = int(np.argmin(np.abs(result.freqs - f_opt)))
        assert result.pe_tilt[idx] <= result.pe_before[idx]
        assert result.pe_shift[idx] <= result.pe_before[idx]
        assert result.tolerance.f_opt > result.tolerance.f_var

    def test_fig2_phases_have_distinct_curves(self):
        result = run_fig2()
        assert len(result.pe_phases) >= 2
        curves = list(result.pe_phases.values())
        assert not np.allclose(curves[0], curves[1])

    def test_fig8_panel_relationships(self):
        result = run_fig8(n_freqs=20)
        f_ts, perf_ts = result.optimum("ts")
        f_re, perf_re = result.optimum("reshaped")
        # Reshaping moves the peak right and up (paper point A).
        assert f_re >= f_ts
        assert perf_re >= perf_ts
        assert result.baseline_f_rel() < f_ts

    def test_fig8_memory_onset_sharper_than_logic(self):
        result = run_fig8(n_freqs=20)
        kinds = np.array(result.subsystem_kinds)
        # Frequency span between PE=1e-8 and PE=1e-2 per subsystem.
        spans = {}
        for kind in ("memory", "logic"):
            widths = []
            for i in np.flatnonzero(kinds == kind):
                curve = result.pe_ts[:, i]
                if curve[-1] < 1e-2:
                    continue
                lo = np.searchsorted(curve, 1e-8)
                hi = np.searchsorted(curve, 1e-2)
                widths.append(result.freqs_rel[min(hi, len(curve) - 1)]
                              - result.freqs_rel[min(lo, len(curve) - 1)])
            spans[kind] = np.mean(widths) if widths else np.nan
        if not np.isnan(spans["memory"]) and not np.isnan(spans["logic"]):
            assert spans["memory"] <= spans["logic"] + 1e-9

    def test_fig9_surface_monotonicity(self):
        result = run_fig9(n_power=8, n_freq=12)
        # More power budget can only lower the achievable PE.
        assert np.all(np.diff(result.min_pe, axis=0) <= 1e-18)
        # Higher frequency at fixed budget can only raise it.
        assert np.all(np.diff(result.min_pe, axis=1) >= -1e-18)

    def test_area_table_matches_paper(self):
        rows = area_rows(run_area_table())
        table = dict((name, value) for name, value in rows)
        assert table["Total"] == "10.6"
        assert table["Checker"] == "7.0"


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5

    def test_format_series_subsamples(self):
        xs = np.linspace(0, 1, 100)
        text = format_series("S", xs, xs**2, max_points=5)
        assert len(text.splitlines()) <= 13


class TestAsciiChart:
    def test_renders_series(self):
        from repro.exps import ascii_chart

        xs = np.linspace(0, 1, 50)
        text = ascii_chart("T", xs, xs**2)
        assert text.startswith("T")
        assert "*" in text

    def test_log_mode_drops_nonpositive(self):
        from repro.exps import ascii_chart

        text = ascii_chart("T", [1, 2, 3], [0.0, 1e-5, 1e-2], log_y=True)
        assert "log10" in text

    def test_all_nonpositive_is_graceful(self):
        from repro.exps import ascii_chart

        text = ascii_chart("T", [1, 2], [0.0, 0.0], log_y=True)
        assert "no positive data" in text
