"""Chip layer: floorplan (Fig 7(b)), subsystem specs, core construction."""

import numpy as np
import pytest

from repro.chip import (
    FP_DOMAIN,
    INT_DOMAIN,
    LOGIC,
    MEMORY,
    MIXED,
    Rect,
    SubsystemSpec,
    build_core,
    build_novar_core,
    default_floorplan,
)
from repro.chip.chip import CORE_QUADRANTS
from repro.variation import DieGrid


class TestRect:
    def test_area(self):
        # A rectangle covers the share of die cells its area is: the
        # cells build_core samples a subsystem's variation from.
        grid = DieGrid(nx=10, ny=10)
        rect = Rect(0.0, 0.0, 0.5, 0.4)
        cells = grid.cells_in_rect(rect.x0, rect.y0, rect.x1, rect.y1)
        assert cells.size == pytest.approx(0.2 * 100)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Rect(0.5, 0.0, 0.4, 1.0)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            Rect(0.0, 0.0, 1.2, 1.0)


class TestSubsystemSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SubsystemSpec("X", "weird", Rect(0, 0, 0.1, 0.1), 0.01, 1.0, 1.0, 1.0)

    def test_rejects_bad_criticality(self):
        with pytest.raises(ValueError, match="criticality"):
            SubsystemSpec(
                "X", MEMORY, Rect(0, 0, 0.1, 0.1), 0.01, 1.0, 1.0, 1.0,
                criticality=1.2,
            )

    def test_rejects_bad_rth_factor(self):
        with pytest.raises(ValueError, match="rth_factor"):
            SubsystemSpec(
                "X", MEMORY, Rect(0, 0, 0.1, 0.1), 0.01, 1.0, 1.0, 1.0,
                rth_factor=0.0,
            )


class TestFloorplan:
    def test_fifteen_subsystems(self):
        assert len(default_floorplan()) == 15

    def test_figure_7b_names_present(self):
        names = set(default_floorplan().names)
        expected = {
            "Dcache", "DTLB", "FPQ", "FPReg", "LdStQ", "FPUnit", "FPMap",
            "IntALU", "IntReg", "IntQ", "IntMap", "ITLB", "Icache",
            "BranchPred", "Decode",
        }
        assert names == expected

    def test_figure_7b_kinds(self):
        fp = default_floorplan()
        assert fp.by_name("Dcache").kind == MEMORY
        assert fp.by_name("IntALU").kind == LOGIC
        assert fp.by_name("FPUnit").kind == LOGIC
        assert fp.by_name("Decode").kind == LOGIC
        assert fp.by_name("IntQ").kind == MIXED
        assert fp.by_name("LdStQ").kind == MIXED
        assert fp.by_name("BranchPred").kind == MIXED
        kinds = [s.kind for s in fp.subsystems]
        assert kinds.count(MEMORY) == 9

    def test_published_areas(self):
        fp = default_floorplan()
        # Figure 7(a): IntALU 0.55%, FP adder+multiplier 1.90%.
        assert fp.by_name("IntALU").area_frac == pytest.approx(0.0055)
        assert fp.by_name("FPUnit").area_frac == pytest.approx(0.019)

    def test_resizable_and_replicable_flags(self):
        fp = default_floorplan()
        assert fp.by_name("IntQ").resizable and fp.by_name("FPQ").resizable
        assert fp.by_name("IntALU").replicable and fp.by_name("FPUnit").replicable
        assert not fp.by_name("Dcache").resizable

    def test_domains(self):
        fp = default_floorplan()
        groups = {}
        for i, spec in enumerate(fp.subsystems):
            groups.setdefault(spec.domain, []).append(i)
        assert fp.index_of("IntALU") in groups[INT_DOMAIN]
        assert fp.index_of("FPQ") in groups[FP_DOMAIN]
        assert len(groups[INT_DOMAIN]) == 4
        assert len(groups[FP_DOMAIN]) == 4

    def test_index_lookup_error(self):
        with pytest.raises(KeyError):
            default_floorplan().index_of("L4cache")

    def test_queues_and_fus_define_the_clock(self):
        fp = default_floorplan()
        for name in ("IntQ", "FPQ", "IntALU", "FPUnit"):
            assert fp.by_name(name).criticality == pytest.approx(1.0)
        for spec in fp.subsystems:
            if not (spec.resizable or spec.replicable):
                assert spec.criticality < 1.0


class TestCoreConstruction:
    def test_arrays_have_subsystem_length(self, core):
        n = core.n_subsystems
        assert n == 15
        for arr in (core.vt0_timing, core.rth, core.kdyn, core.ksta,
                    core.tail_rel, core.stage_sigma_rel):
            assert arr.shape == (n,)

    def test_rejects_bad_core_index(self, population):
        with pytest.raises(ValueError):
            build_core(population[0], 7)

    def test_four_quadrants(self):
        assert len(CORE_QUADRANTS) == 4

    def test_cores_of_same_chip_differ(self, population):
        a = build_core(population[0], 0)
        b = build_core(population[0], 3)
        assert not np.allclose(a.vt0_timing, b.vt0_timing)

    def test_deterministic_rebuild(self, population):
        a = build_core(population[1], 2)
        b = build_core(population[1], 2)
        assert np.array_equal(a.vt0_timing, b.vt0_timing)
        assert np.array_equal(a.tail_rel, b.tail_rel)

    def test_leak_vt0_is_below_region_mean(self, population):
        # By Jensen's inequality the leakage-effective Vt0 (log-mean-exp
        # of the cell values) cannot exceed the region's arithmetic mean.
        chip = population[0]
        core = build_core(chip, 0)
        gain = core.calib.systematic_delay_gain
        for i, spec in enumerate(core.floorplan.subsystems):
            rect = spec.rect
            cells = chip.grid.cells_in_rect(
                rect.x0 * 0.5, rect.y0 * 0.5, rect.x1 * 0.5, rect.y1 * 0.5
            )
            mean_vt = chip.params.vt_mean + gain * chip.vt_sys[cells].mean()
            assert core.vt0_leak[i] <= mean_vt + 1e-9

    def test_delay_factor_nominal_near_one(self, novar_core):
        d = novar_core.delay_factor(1.0, 0.0, novar_core.calib.t_design)
        assert np.allclose(d, 1.0)

    def test_delay_factor_responds_to_asv(self, core):
        d_low = core.delay_factor(0.9, 0.0, 350.0)
        d_high = core.delay_factor(1.2, 0.0, 350.0)
        assert np.all(d_high < d_low)

    def test_delay_factor_responds_to_abb(self, core):
        fbb = core.delay_factor(1.0, 0.4, 350.0)
        rbb = core.delay_factor(1.0, -0.4, 350.0)
        assert np.all(fbb < rbb)

    def test_static_power_positive_and_temp_sensitive(self, core):
        cold = core.subsystem_static_power(1.0, 0.0, 330.0)
        hot = core.subsystem_static_power(1.0, 0.0, 370.0)
        assert np.all(cold > 0)
        assert np.all(hot > cold)

    def test_dynamic_power_scales_with_budgets(self, core):
        power = core.subsystem_dynamic_power(1.0, core.calib.f_nominal, core.alpha_ref)
        total = power.sum()
        expected = (
            core.calib.core_dynamic_power_nominal
            - core.floorplan.l2.pdyn_budget
        )
        assert total == pytest.approx(expected, rel=1e-6)

    def test_l2_power_positive_and_grows_with_f(self, core):
        assert 0 < core.l2_power(2e9) < core.l2_power(4e9)

    def test_novar_core_has_no_tails(self, novar_core):
        assert np.all(novar_core.tail_rel == 0.0)

    def test_novar_core_meets_nominal_frequency_exactly(self, novar_core):
        calib = novar_core.calib
        d = novar_core.delay_factor(1.0, 0.0, calib.t_design)
        period_rel = d * (
            novar_core.stage_mean_rel
            + novar_core.tail_rel
            + calib.z_free * novar_core.stage_sigma_rel
        )
        assert period_rel.max() == pytest.approx(1.0, abs=1e-9)

    def test_rth_reflects_area_and_cooling_factor(self, core):
        fp = core.floorplan
        # Small blocks have higher Rth than the big caches.
        assert (
            core.rth[fp.index_of("IntALU")] > core.rth[fp.index_of("Dcache")]
        )

    def test_memory_repair_softens_worst_cell(self, population):
        # With repair (quantile < 1), the timing Vt0 of a big SRAM should
        # not be the absolute maximum of its footprint.
        chip = population[0]
        core = build_core(chip, 0)
        idx = core.floorplan.index_of("Icache")
        rect = core.floorplan.subsystems[idx].rect
        cells = chip.grid.cells_in_rect(
            rect.x0 * 0.5, rect.y0 * 0.5, rect.x1 * 0.5, rect.y1 * 0.5
        )
        gain = core.calib.systematic_delay_gain
        vt_cells = chip.params.vt_mean + gain * chip.vt_sys[cells]
        assert core.vt0_timing[idx] <= vt_cells.max() + 1e-12
