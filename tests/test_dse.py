"""repro.exps.dse: sweep expansion, Pareto analytics, service-driven runs."""

import json

import pytest

from repro.config import Settings
from repro.exps.dse import (
    Axis,
    Objective,
    RemoteSweepError,
    SweepSpec,
    ZipAxes,
    dedupe_points,
    error_fraction,
    load_results,
    pareto_front,
    run_sweep,
    sensitivity,
    write_artifacts,
)

#: Tiny runner-tier binding shared by the execution tests.
TINY = {"chips": 1, "n_instructions": 1500, "fc_examples": 300}


class TestExpansion:
    def test_product_order_and_count(self):
        spec = SweepSpec(axes=(
            Axis.of("environment", ["TS", "TS+ASV"]),
            Axis.of("mode", ["Static", "Exh-Dyn"]),
        ))
        points = spec.expand()
        assert len(points) == 4
        # Last group varies fastest; indexes are the expansion order.
        assert [p.params["environment"] for p in points] == [
            "TS", "TS", "TS+ASV", "TS+ASV",
        ]
        assert [p.params["mode"] for p in points] == [
            "Static", "Exh-Dyn", "Static", "Exh-Dyn",
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_point_ids_are_stable_and_content_addressed(self):
        a = SweepSpec(axes=(
            Axis.of("environment", ["TS", "TS+ASV"]),
            Axis.of("phi", [0.25, 0.5]),
        ))
        b = SweepSpec(axes=(
            Axis.of("phi", [0.5, 0.25]),
            Axis.of("environment", ["TS+ASV", "TS"]),
        ))
        # Same bindings, different declaration order: same id *set*.
        assert {p.point_id for p in a.expand()} == {
            p.point_id for p in b.expand()
        }
        # And re-expansion is deterministic.
        assert [p.point_id for p in a.expand()] == [
            p.point_id for p in a.expand()
        ]

    def test_single_point_sweep(self):
        spec = SweepSpec(base={"environment": "TS"})
        points = spec.expand()
        assert len(points) == 1
        assert points[0].params["mode"] == "Exh-Dyn"  # defaulted

    def test_zip_and_product_compose(self):
        spec = SweepSpec(
            axes=(
                Axis.of("environment", ["TS", "TS+ASV"]),
                ZipAxes((
                    Axis.of("chips", [2, 4]),
                    Axis.of("cores", [1, 2]),
                )),
            ),
        )
        points = spec.expand()
        assert len(points) == 4
        # Zip rows stay paired: (2,1) and (4,2), never (2,2).
        pairs = {(p.params["chips"], p.params["cores"]) for p in points}
        assert pairs == {(2, 1), (4, 2)}

    def test_product_of_zips(self):
        spec = SweepSpec(
            base={"environment": "TS"},
            axes=(
                ZipAxes((
                    Axis.of("chips", [2, 4]),
                    Axis.of("cores", [1, 2]),
                )),
                ZipAxes((
                    Axis.of("phi", [0.25, 0.5]),
                    Axis.of("pe_max", [1e-4, 1e-3]),
                )),
            ),
        )
        points = spec.expand()
        assert len(points) == 4
        assert {(p.params["chips"], p.params["phi"]) for p in points} == {
            (2, 0.25), (2, 0.5), (4, 0.25), (4, 0.5),
        }

    def test_range_and_logrange(self):
        assert Axis.range("chips", 2, 8, 2).values == (2, 4, 6, 8)
        log = Axis.logrange("phi", 0.25, 1.0, 3).values
        assert log[0] == pytest.approx(0.25)
        assert log[1] == pytest.approx(0.5)
        assert log[2] == pytest.approx(1.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Axis.of("phi", [])  # empty axis
        with pytest.raises(ValueError):
            Axis.of("nonsense", [1])  # unknown param
        with pytest.raises(KeyError):
            Axis.of("environment", ["NoSuchEnv"])
        with pytest.raises(ValueError):
            Axis.of("mode", ["NoSuchMode"])
        with pytest.raises(ValueError):
            Axis.of("phi", [-0.5])
        with pytest.raises(ValueError):
            Axis.of("chips", [2.5])
        with pytest.raises(ValueError):
            ZipAxes((Axis.of("chips", [1, 2]), Axis.of("cores", [1])))
        with pytest.raises(ValueError):
            SweepSpec(axes=(Axis.of("phi", [0.5]),))  # no environment
        with pytest.raises(ValueError):
            SweepSpec(
                base={"environment": "TS"},
                axes=(Axis.of("environment", ["TS"]),),  # bound twice
            )

    def test_wire_roundtrip(self):
        spec = SweepSpec(
            base={"mode": "Static", "workloads": ["gzip*", "swim*"]},
            axes=(
                Axis.of("environment", ["TS"]),
                ZipAxes((
                    Axis.of("chips", [2, 4]),
                    Axis.of("seed", [1, 2]),
                )),
            ),
        )
        rebuilt = SweepSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert [p.point_id for p in rebuilt.expand()] == [
            p.point_id for p in spec.expand()
        ]

    def test_wire_sugar_forms(self):
        spec = SweepSpec.from_wire({
            "base": {"environment": "TS"},
            "axes": [
                {"param": "chips", "range": {"start": 2, "stop": 6, "step": 2}},
                {"param": "phi", "logrange": {"start": 0.25, "stop": 1.0, "num": 3}},
            ],
        })
        assert len(spec.expand()) == 9
        with pytest.raises(ValueError):
            SweepSpec.from_wire({"axes": [{"param": "chips"}]})
        with pytest.raises(ValueError):
            SweepSpec.from_wire({
                "axes": [{"param": "chips", "values": [1], "range": {}}],
            })

    def test_duplicate_points_dedupe(self):
        spec = SweepSpec(axes=(Axis.of("environment", ["TS", "TS"]),))
        points = spec.expand()
        assert len(points) == 2
        unique = dedupe_points(points)
        assert len(unique) == 1
        assert unique[0].index == 0


FIXTURE_ROWS = [
    # Hand-computed 3-objective fixture (perf max, power min, err min):
    # a dominates b (better everywhere) but is itself dominated by d
    # (equal perf/power, strictly lower error); c trades power for perf,
    # e is dominated by c, f ties c's objectives exactly.
    {"point": "a", "perf_rel": 1.00, "power": 20.0, "error_frac": 0.010},
    {"point": "b", "perf_rel": 0.90, "power": 25.0, "error_frac": 0.020},
    {"point": "c", "perf_rel": 1.20, "power": 28.0, "error_frac": 0.010},
    {"point": "d", "perf_rel": 1.00, "power": 20.0, "error_frac": 0.005},
    {"point": "e", "perf_rel": 1.10, "power": 28.0, "error_frac": 0.015},
    {"point": "f", "perf_rel": 1.20, "power": 28.0, "error_frac": 0.010},
]

OBJECTIVES = (
    Objective("perf_rel", "max"),
    Objective("power", "min"),
    Objective("error_frac", "min"),
)


class TestPareto:
    def test_hand_computed_front(self):
        front = pareto_front(FIXTURE_ROWS, OBJECTIVES)
        assert [row["point"] for row in front] == ["c", "f", "d"]

    def test_front_is_input_order_independent(self):
        front = pareto_front(list(reversed(FIXTURE_ROWS)), OBJECTIVES)
        assert [row["point"] for row in front] == ["c", "f", "d"]

    def test_single_objective_reduces_to_argmax(self):
        front = pareto_front(FIXTURE_ROWS, [Objective("perf_rel", "max")])
        assert {row["point"] for row in front} == {"c", "f"}

    def test_direction_matters(self):
        worst = pareto_front(FIXTURE_ROWS, [Objective("perf_rel", "min")])
        assert [row["point"] for row in worst] == ["b"]

    def test_objective_parsing(self):
        assert Objective.parse("power:min") == Objective("power", "min")
        assert Objective.parse("f_rel") == Objective("f_rel", "max")
        with pytest.raises(ValueError):
            Objective.parse(":max")
        with pytest.raises(ValueError):
            Objective("x", "sideways")

    def test_missing_column_is_loud(self):
        with pytest.raises(KeyError):
            pareto_front(FIXTURE_ROWS, [Objective("nope", "max")])

    def test_sensitivity_main_effects(self):
        rows = [
            {"point": "1", "phi": 0.25, "mode": "Exh-Dyn", "perf_rel": 1.0},
            {"point": "2", "phi": 0.25, "mode": "Exh-Dyn", "perf_rel": 1.2},
            {"point": "3", "phi": 1.0, "mode": "Exh-Dyn", "perf_rel": 0.6},
            {"point": "4", "phi": 1.0, "mode": "Exh-Dyn", "perf_rel": 0.8},
        ]
        report = sensitivity(rows, ["phi"], [Objective("perf_rel", "max")])
        assert report["phi"]["spread"]["perf_rel"] == pytest.approx(0.4)
        # A fixed column produces no entry.
        assert sensitivity(rows, ["mode"], [Objective("perf_rel")]) == {}


@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("dse-cache"))


@pytest.fixture(scope="module")
def tiny_sweep_result(sweep_cache):
    spec = SweepSpec(
        axes=(
            Axis.of("environment", ["TS", "TS+ASV"]),
            Axis.of("mode", ["Static", "Exh-Dyn"]),
        ),
        base=TINY,
    )
    settings = Settings(cache_dir=sweep_cache)
    return spec, settings, run_sweep(spec, settings)


class TestRunSweep:
    def test_bad_training_scale_fails_before_any_group_computes(
        self, monkeypatch
    ):
        from repro.exps.dse import drive

        def no_compute(*args, **kwargs):
            raise AssertionError("a runner was built before validation")

        monkeypatch.setattr(drive.ExperimentRunner, "from_settings", no_compute)
        spec = SweepSpec(
            axes=(Axis.of("fc_examples", [300, 10]),),
            base={"chips": 1, "n_instructions": 1500, "environment": "TS",
                  "mode": "Fuzzy-Dyn"},
        )
        with pytest.raises(ValueError, match="fuzzy_examples must be >= 25"):
            run_sweep(spec, Settings(jobs=1))

    def test_rows_in_expansion_order_with_metrics(self, tiny_sweep_result):
        spec, _settings, result = tiny_sweep_result
        assert [row["point"] for row in result.rows] == [
            p.point_id for p in result.points
        ]
        assert result.stats["cells_total"] == 4
        assert result.stats["cells_computed"] == 4
        for row in result.rows:
            assert row["f_rel"] > 0
            assert row["power"] > 0
            assert 0.0 <= row["error_frac"] <= 1.0
            assert row["source"] == "computed"
        # Exh-Dyn dominates Static per environment on frequency.
        by = {(r["environment"], r["mode"]): r for r in result.rows}
        assert by[("TS", "Exh-Dyn")]["f_rel"] >= by[("TS", "Static")]["f_rel"]

    def test_warm_rerun_is_fully_cache_served(self, tiny_sweep_result):
        spec, settings, cold = tiny_sweep_result
        warm = run_sweep(spec, settings)
        assert warm.stats["cells_deduped"] == warm.stats["cells_total"] == 4
        assert warm.stats["cells_computed"] == 0
        assert all(row["source"] == "cache" for row in warm.rows)
        # Bit-identical table (modulo provenance).
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "source"} for row in rows
        ]
        assert strip(warm.rows) == strip(cold.rows)

    def test_duplicate_points_share_cells(self, sweep_cache):
        # Fresh settings but same cache: the duplicated TS cell must be
        # submitted once; the sweep itself reports the dedup.
        spec = SweepSpec(
            axes=(Axis.of("environment", ["TS", "TS"]),),
            base={**TINY, "mode": "Exh-Dyn"},
        )
        result = run_sweep(spec, Settings(cache_dir=sweep_cache))
        assert result.stats["points"] == 2
        assert result.stats["points_unique"] == 1
        assert result.stats["points_deduped"] == 1
        assert len(result.rows) == 1

    def test_pareto_identical_across_jobs(self, sweep_cache):
        # Worker-thread width must not change the table or the frontier.
        spec = SweepSpec(
            axes=(Axis.of("environment", ["TS", "TS+ASV"]),),
            base={**TINY, "mode": "Exh-Dyn"},
        )
        serial = run_sweep(spec, Settings(cache_enabled=False, jobs=1))
        threaded = run_sweep(spec, Settings(cache_enabled=False, jobs=2))
        assert serial.rows == threaded.rows
        assert pareto_front(serial.rows) == pareto_front(threaded.rows)

    def test_remote_sweep_rejects_runner_tier_axes(self):
        spec = SweepSpec(
            axes=(Axis.of("environment", ["TS"]),),
            base={"chips": 2},
        )
        with pytest.raises(RemoteSweepError) as excinfo:
            # Checked before any connection is attempted.
            run_sweep(spec, service="127.0.0.1:1")
        assert "chips" in excinfo.value.params

    def test_error_fraction_weighting(self, tiny_sweep_result):
        _spec, _settings, result = tiny_sweep_result
        summary = result.summaries[result.points[0].point_id]
        assert error_fraction(summary) == pytest.approx(
            sum(r.weight for r in summary.results if r.outcome == "Error")
            / sum(r.weight for r in summary.results)
        )


class TestArtifacts:
    def test_write_and_reload(self, tiny_sweep_result, tmp_path):
        _spec, _settings, result = tiny_sweep_result
        paths = write_artifacts(result, tmp_path, OBJECTIVES)
        assert all(p.exists() for p in paths.values())
        spec, rows, stats = load_results(tmp_path)
        assert spec == result.spec
        assert rows == result.rows
        assert stats == result.stats
        report = json.loads(paths["report_json"].read_text())
        front = pareto_front(result.rows, OBJECTIVES)
        assert report["pareto"]["points"] == [r["point"] for r in front]
        header = paths["results_csv"].read_text().splitlines()[0]
        assert header.startswith("point,index,")
        assert header.endswith("f_rel,perf_rel,power,error_frac,source")
        # results.csv has one line per point plus the header.
        assert len(paths["results_csv"].read_text().splitlines()) == 1 + len(
            result.rows
        )
