"""The `python -m repro.exps` command-line interface."""

import json

import pytest

from repro.exps.__main__ import main


class TestCLI:
    def test_area_target(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "10.6" in out and "Checker" in out

    def test_fig1_target(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "T_nom" in out

    def test_multiple_targets(self, capsys):
        assert main(["area", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "=== area ===" in out and "=== fig2 ===" in out

    def test_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_rejects_bad_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["area", "--jobs", "0"])

    def test_rejects_bad_training_scale_before_compute(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig10", "--chips", "1", "--fc-examples", "10",
                  "--no-cache"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "fuzzy_examples must be >= 25" in captured.err
        assert "=== fig10 ===" not in captured.out


class TestCLISettings:
    def test_metrics_out_writes_valid_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["area", "fig1", "--metrics-out", str(path)]) == 0
        assert f"metrics written to {path}" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert set(document) == {"counters", "gauges", "histograms"}

    def test_env_provides_defaults(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "metrics.json"
        monkeypatch.setenv("EVAL_REPRO_METRICS_OUT", str(path))
        assert main(["area"]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text()) is not None

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        env_path = tmp_path / "from_env.json"
        flag_path = tmp_path / "from_flag.json"
        monkeypatch.setenv("EVAL_REPRO_METRICS_OUT", str(env_path))
        assert main(["area", "--metrics-out", str(flag_path)]) == 0
        capsys.readouterr()
        assert flag_path.exists() and not env_path.exists()


@pytest.fixture(scope="module")
def dse_spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("dse-cli") / "sweep.json"
    path.write_text(json.dumps({
        "base": {"chips": 1, "n_instructions": 1500, "fc_examples": 300},
        "axes": [
            {"param": "environment", "values": ["TS", "TS+ASV"]},
        ],
    }))
    return str(path)


@pytest.fixture(scope="module")
def dse_run_dir(dse_spec_path, tmp_path_factory):
    """One tiny `dse run` shared by the run/report assertions."""
    out = tmp_path_factory.mktemp("dse-out")
    assert main([
        "dse", "run", "--spec", dse_spec_path, "--out", str(out),
        "--cache-dir", str(tmp_path_factory.mktemp("dse-cli-cache")),
        "--metrics-out", str(out / "metrics.json"),
    ]) == 0
    return out


class TestDseCLI:
    def test_expand_table(self, dse_spec_path, capsys):
        assert main(["dse", "expand", "--spec", dse_spec_path]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "TS+ASV" in out

    def test_expand_json(self, dse_spec_path, capsys):
        assert main(["dse", "expand", "--spec", dse_spec_path, "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        points = [json.loads(line) for line in lines]
        assert len(points) == 2
        assert points[0]["index"] == 0
        assert points[0]["params"]["environment"] == "TS"
        assert len(points[0]["point"]) == 16

    def test_run_writes_artifacts(self, dse_run_dir):
        for name in ("results.csv", "results.json", "pareto.csv",
                     "report.json"):
            assert (dse_run_dir / name).exists()
        metrics = json.loads((dse_run_dir / "metrics.json").read_text())
        assert metrics["counters"]["dse.points"] >= 2

    def test_report_reanalyses(self, dse_run_dir, capsys):
        assert main([
            "dse", "report", "--results", str(dse_run_dir),
            "--objective", "f_rel:max", "--objective", "power:min",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "f_rel:max power:min" in out

    def test_run_rejects_bad_objective(self, dse_spec_path, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "dse", "run", "--spec", dse_spec_path,
                "--out", str(tmp_path), "--objective", ":max",
            ])


class TestVersion:
    def test_exps_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_version(self, capsys):
        from repro import __version__
        from repro.serve.__main__ import main as serve_main

        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out
