import json

import numpy as np
import pytest

import towerstab.cli as cli
from towerstab.generator import energy_coordinates


def write_config(tmp_path, **overrides):
    cfg = {
        "model": "combined",
        "n_elements": 6,
        "n_points": 20,
        "T": 5.0,
        "k_modes": 6,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_negative_gain_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, a=-1.0)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert "a:" in capsys.readouterr().err

    def test_zero_s_lo_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, s_lo=0.0)
        assert cli.main(["scan", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert "s_lo" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, damping=3.0)
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert "damping" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "combined",\n  broken\n}')
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert "line" in capsys.readouterr().err

    def test_unknown_model_rejected(self, tmp_path):
        path = write_config(tmp_path, model="windmill")
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION


    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"n_elements": 16.5}, "n_elements"),
            ({"n_elements": "16"}, "n_elements"),
            ({"k_modes": True}, "k_modes"),
            ({"seed": 1.0}, "seed"),
            ({"m": "1"}, "m"),
            ({"a": True}, "a"),
            ({"s_hi": "40"}, "s_hi"),
            ({"a": float("nan")}, "a"),
            ({"T": float("inf")}, "T"),
            ({"checks": {"scan": "no"}}, "checks"),
            ({"fit_lo": 3.0}, "fit_lo"),
            ({"fit_hi": 30.0}, "fit_hi"),
            ({"fit_lo": 30.0, "fit_hi": 3.0}, "fit_hi"),
            ({"fit_lo": 3.0, "fit_hi": 3.0}, "fit_hi"),
            ({"threads": 2}, "threads"),
        ],
    )
    def test_mistyped_or_incomplete_values_rejected(
        self, tmp_path, capsys, overrides, field
    ):
        path = write_config(tmp_path, **overrides)
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert field in capsys.readouterr().err

    def test_json_integer_accepted_for_float_field(self, tmp_path):
        path = write_config(tmp_path, m=1, T=5)
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_OK


class TestVerifyAll:
    def test_combined_desk_fixture_passes(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        checks = report["checks"]
        assert checks["scan"]["status"] == "pass"
        assert "alpha_fit" in checks["scan"]
        assert checks["dissipation_identity"]["status"] == "pass"
        statuses = {c["status"] for c in checks.values()}
        assert statuses <= {"pass", "not run"}

    def test_hydraulic_fixture_reports_positivity_and_kernel(self, tmp_path):
        path = write_config(tmp_path, model="hydraulic")
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["hydraulic_positivity"]["status"] == "pass"
        assert report["checks"]["kernel"]["status"] == "pass"
        assert report["checks"]["routh_hurwitz"]["status"] == "pass"

    def test_undamped_hydraulic_fails_kernel_check(self, tmp_path):
        """With no damping anywhere the drivetrain has a conserved mode, the
        kernel is nontrivial and verify-all exits with the check-failure code."""
        path = write_config(tmp_path, model="hydraulic", Bp=0.0, Bm=0.0, kleak=0.0)
        with pytest.warns(UserWarning):
            status = cli.main(["verify-all", "--config", str(path)])
        assert status == cli.EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["kernel"]["status"] == "fail"
        assert report["checks"]["kernel"]["dimension"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    @pytest.mark.parametrize("model", cli.MODEL_KINDS)
    def test_rerun_is_byte_identical_for_every_model(self, tmp_path, model):
        path = write_config(tmp_path, model=model, n_elements=4, T=0.5, n_points=20)
        out = tmp_path / "out"
        cli.main(["verify-all", "--config", str(path)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        cli.main(["verify-all", "--config", str(path)])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_artifact_set(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["verify-all", "--config", str(path)])
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["report.json", "scan.csv", "spectrum.csv", "trajectory.csv"]

    def test_report_enumerates_every_check(self, tmp_path):
        """No check is silently skipped: every known check appears with a
        status in the verify-all report."""
        path = write_config(tmp_path)
        cli.main(["verify-all", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["checks"]) == set(cli.CHECK_NAMES)
        for entry in report["checks"].values():
            assert entry["status"] in ("pass", "fail", "not run")


class TestKernelEvidence:
    def test_sigma_max_is_the_energy_norm_of_the_generator(self, tmp_path):
        runner = cli.Runner(cli.load_config(str(write_config(tmp_path)), {}))
        runner.check_kernel()
        evidence = runner.results[-1].evidence
        assert evidence["sigma_max"] == energy_coordinates(runner.gen).norm_A


class TestPartialRuns:
    def test_scan_only_marks_other_checks_not_run(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["scan", "--config", str(path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["scan"]["status"] == "pass"
        assert report["checks"]["passivity"]["status"] == "not run"
        assert report["checks"]["decay"]["status"] == "not run"

    def test_simulate_writes_trajectory_columns(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[:2] == ["t", "E"]
        assert "tip_velocity" in cols

    def test_check_toggles_respected(self, tmp_path):
        path = write_config(tmp_path, checks={"passivity": False})
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["passivity"]["status"] == "not run"
        assert report["checks"]["conditions"]["status"] == "pass"


class TestRendering:
    def test_numpy_bool_rendered_as_json_literal(self):
        assert cli.render_json({"ok": np.bool_(True), "bad": np.bool_(False)}) == (
            '{\n  "bad": false,\n  "ok": true\n}'
        )

    def test_columns_csv_matches_per_value_formatting(self, tmp_path):
        n = cli.CSV_CHUNK_ROWS + 3
        x = np.linspace(-1.0, 1.0, n)
        x[:5] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
        columns = [x, np.arange(n), 1.0 / 3.0 * x]
        cli.write_columns_csv(tmp_path / "c.csv", ["a", "b", "c"], columns)
        expected = "a,b,c\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*columns)
        )
        assert (tmp_path / "c.csv").read_text() == expected


class TestAssemble:
    def test_matrices_serialized_with_header(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["assemble", "--config", str(path)]) == cli.EXIT_OK
        lines = (tmp_path / "out" / "A.csv").read_text().splitlines()
        rows, cols = (int(v) for v in lines[0].split(","))
        assert rows == cols == 4 * 6
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert matrix.shape == (rows, cols)
        labels = (tmp_path / "out" / "labels.txt").read_text().split()
        assert len(labels) == rows

    def test_explicit_generator_is_derived_from_flux(self, tmp_path):
        path = write_config(tmp_path, model="tmd")
        assert cli.main(["assemble", "--config", str(path)]) == cli.EXIT_OK
        written = np.loadtxt(tmp_path / "out" / "A.csv", delimiter=",", skiprows=1)
        gen = cli.build_generator(cli.load_config(str(path), {}))
        assert np.array_equal(written, gen.A)

    def test_report_emitted_even_for_assemble(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["assemble", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["dissipativity"]["status"] == "pass"
        assert report["provenance"]["toolkit_version"]


class TestDefaults:
    def test_runs_without_config_file(self, tmp_path):
        assert (
            cli.main(["check", "--out", str(tmp_path / "o"), "--seed", "3"])
            == cli.EXIT_OK
        )
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["provenance"]["seed"] == 3
