import ast
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import towerstab as ts
import towerstab.cli as cli
from towerstab import beam_fem, generator, models, passive_core, spectral, timesim
from towerstab.generator import energy_norm


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

    @pytest.mark.parametrize(
        "field, spec, named",
        [
            ("rho", {"kind": "affine", "intercept": 1}, "'slope'"),
            ("rho", {"kind": "constant", "value": "abc"}, "'abc'"),
            ("EI", {"kind": "csv", "path": "missing.csv"}, "missing.csv"),
            ("rho", {"kind": "exp", "scale": 1, "rate": 1e6}, "rho("),
        ],
    )
    def test_malformed_coefficient_spec_is_a_config_error(
        self, tmp_path, capsys, field, spec, named
    ):
        if spec["kind"] == "csv":
            spec = {**spec, "path": str(tmp_path / spec["path"])}
        path = write_config(tmp_path, **{field: spec})
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err

    @pytest.mark.parametrize(
        "field, spec", [("rho", True), ("EI", {"kind": "constant", "value": True})]
    )
    def test_boolean_coefficient_is_a_config_error(self, tmp_path, capsys, field, spec):
        path = write_config(tmp_path, **{field: spec})
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "True" in err

    def test_overflowing_stiffness_is_a_config_error(self, tmp_path, capsys):
        """EI = 1e303 is finite, but the stiffness of 64 elements overflows."""
        path = write_config(tmp_path, n_elements=64, EI=1e303)
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "config error: K has non-finite entries\n"

    def test_coefficient_overflow_on_the_conditions_grid_is_a_config_error(
        self, tmp_path, capsys
    ):
        """exp(710 x) is finite at every quadrature point of 16 elements, so
        the model assembles; the conditions grid ends at x = 1, where it
        overflows."""
        rho = {"kind": "exp", "scale": 1, "rate": 710}
        path = write_config(tmp_path, n_elements=16, rho=rho)
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "rho(1)" in err

    def test_coefficient_vanishing_at_the_tip_rejected_at_assembly(self, tmp_path):
        """1 - x is positive at every quadrature point; assembly also samples
        x = 1, so the model is rejected before any check runs."""
        rho = {"kind": "affine", "intercept": 1, "slope": -1}
        cfg = cli.load_config(str(write_config(tmp_path, rho=rho)), {})
        with pytest.raises(ts.ValidationError, match=r"rho\(1\)"):
            cli.Runner(cfg)

    def test_nonpositive_table_value_is_a_config_error(self, tmp_path, capsys):
        table = tmp_path / "rho.csv"
        values = [1.0] * 24
        values[11] = 0.0
        table.write_text("".join(f"{k / 23},{v}\n" for k, v in enumerate(values)))
        path = write_config(tmp_path, rho={"kind": "csv", "path": str(table)})
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "rho.csv" in err
        assert not (tmp_path / "out").exists()


class TestCoefficientTables:
    def test_table_parsed_once_per_runner(self, tmp_path, monkeypatch):
        table = tmp_path / "EI.csv"
        table.write_text("".join(f"{k / 31},1.0\n" for k in range(32)))
        calls = []
        real = beam_fem._tabulated_coefficient
        monkeypatch.setattr(
            beam_fem, "_tabulated_coefficient", lambda *a: calls.append(a) or real(*a)
        )
        path = write_config(tmp_path, EI={"kind": "csv", "path": str(table)})
        cli.Runner(cli.load_config(str(path), {}))
        assert len(calls) == 1


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

    def test_hydraulic_coupling_bound_checked_at_non_unit_inertias(self, tmp_path, capsys):
        """The inertias J, JT, JG sit in the Grams, so the coupling bound is
        checked away from unit inertias too."""
        path = write_config(tmp_path, model="hydraulic", J=2.0, JT=2.0, JG=0.5)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        assert "coupling_bound: pass" in capsys.readouterr().out.splitlines()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["coupling_bound"]["excluded_points"] == []

    def test_rerun_is_byte_identical(self, tmp_path):
        """Byte-identical reruns, also with the numpy and scipy builds that
        the provenance records."""
        path = write_config(tmp_path)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        assert (tmp_path / "out" / "report.json").read_bytes() == first
        libraries = json.loads(first)["provenance"]["libraries"]
        for module in (np, scipy):
            build = libraries[module.__name__]
            assert build["version"] == module.__version__
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            for lib in ("blas", "lapack"):
                assert build[lib]["name"] == deps[lib]["name"]
                assert build[lib]["version"] == deps[lib]["version"]

    @pytest.mark.parametrize("model", cli.MODEL_KINDS)
    def test_rerun_is_byte_identical_for_every_model(self, tmp_path, model):
        path = write_config(tmp_path, model=model, n_elements=4, T=0.5, n_points=20)
        out = tmp_path / "out"
        cli.main(["verify-all", "--config", str(path)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        cli.main(["verify-all", "--config", str(path)])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_seed_is_recorded_only(self, tmp_path):
        """Desk tmd with seed 0 and 7: the reports differ only in the
        provenance's seed and config hash, and every other artifact is
        byte-identical."""
        reports, artifacts = [], []
        for seed in (0, 7):
            out = tmp_path / f"seed{seed}"
            path = tmp_path / f"seed{seed}.json"
            path.write_text(json.dumps({"model": "tmd", "seed": seed, "out_dir": str(out)}))
            assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
            report = json.loads((out / "report.json").read_text())
            provenance = report["provenance"]
            assert provenance.pop("seed") == seed
            reports.append((report, provenance.pop("config_hash")))
            artifacts.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "report.json"}
            )
        (first, hash0), (second, hash7) = reports
        assert first == second and hash0 != hash7
        assert artifacts[0] == artifacts[1]
        assert sorted(artifacts[0]) == ["scan.csv", "spectrum.csv", "trajectory.npy"]

    def test_artifact_set(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["verify-all", "--config", str(path)])
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["report.json", "scan.csv", "spectrum.csv", "trajectory.npy"]

    def test_trajectory_npy_holds_the_exact_trajectory(self, tmp_path):
        """One float64 field per column, ``t``, ``E`` and the sorted
        channels, bit-equal to the runner's arrays; the bytes are
        ``np.save``'s and load without pickle."""
        runner = cli.Runner(cli.load_config(str(write_config(tmp_path, model="tmd")), {}))
        runner.check_simulation()
        path = tmp_path / "o" / "trajectory.npy"
        assert path in cli.emit_report(runner.report(), tmp_path / "o", runner)
        traj = runner.trajectory
        table = np.load(path, allow_pickle=False)
        assert table.dtype.names == ("t", "E", *sorted(traj.channels))
        assert all(table.dtype[name] == np.dtype("<f8") for name in table.dtype.names)
        for name, column in [("t", traj.times), ("E", traj.energies), *traj.channels.items()]:
            np.testing.assert_array_equal(table[name].view(np.uint64), column.view(np.uint64))
        saved = tmp_path / "saved.npy"
        np.save(saved, table, allow_pickle=False)
        assert path.read_bytes() == saved.read_bytes()

    def test_report_enumerates_every_check(self, tmp_path):
        """No check is silently skipped: every known check appears with a
        status in the verify-all report."""
        path = write_config(tmp_path)
        cli.main(["verify-all", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["checks"]) == set(cli.CHECK_NAMES)
        for entry in report["checks"].values():
            assert entry["status"] in ("pass", "fail", "not run")


class TestCouplingCheck:
    @pytest.mark.parametrize("model", ["tmd", "hydraulic"])
    def test_runs_on_the_assembled_model(self, tmp_path, monkeypatch, model):
        """The check reads the blocks the model was coupled from: it builds
        no beam, block or second coupling, and its ratio is bit-equal to
        the check on a freshly coupled pair of blocks."""
        cfg = cli.load_config(str(write_config(tmp_path, model=model, n_elements=8)), {})
        runner = cli.Runner(cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("the coupling check rebuilt the model")

        monkeypatch.setattr(passive_core, "couple_systems", forbidden)
        monkeypatch.setattr(models, "scole_tip_block", forbidden)
        monkeypatch.setattr(cli, "build_beam_matrices", forbidden)
        runner.check_coupling()
        monkeypatch.undo()
        (result,) = runner.results
        assert result.status == "pass"

        params = cfg.beam_parameters()
        port = {"tmd": "displacement", "hydraulic": "rotation"}[model]
        fresh = passive_core.couple_systems(
            models.scole_tip_block(cli.build_beam_matrices(params, 8), params, port),
            models.control_block(model, cfg.block_parameters()),
            labels=runner.gen.labels,  # the beam layout, as the assemblies give it
        )
        s_hi = 0.5 * ts.mesh_frequency(fresh)
        grid = np.geomspace(cfg.s_lo, s_hi, min(cfg.n_points, 120))
        rep = ts.check_coupled_resolvent_bound(fresh, np.eye(1), grid)
        assert result.evidence["max_ratio"] == rep.max_ratio

    @pytest.mark.parametrize("model", ["tmd", "hydraulic"])
    def test_verify_all_solves_the_beam_pencil_once(self, tmp_path, linalg_calls, model):
        """The feedback-transformed tip block reads the model's cached beam
        modes: one generalized ``eigh`` in the whole run."""
        path = write_config(tmp_path, model=model, n_elements=16, T=0.5)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_OK
        pencils = [shapes for name, shapes in linalg_calls if name == "eigh" and len(shapes) == 2]
        assert pencils == [[(32, 32)] * 2]

    @pytest.mark.parametrize("model", ["tmd", "hydraulic"])
    def test_verify_all_factors_each_gram_once_on_its_band(self, linalg_calls, model):
        """At 64 elements without the simulation, no beam-sized matrix
        (a side of 128 or more) is factored or eigensolved densely but the
        one beam pencil, and each beam-sized Gram is factored once, on its
        band, when it is validated: K and Mrho, the tip block, the model and
        the coupling check's ``sys_k``."""
        checks = {"dissipation_identity": False, "decay": False}
        cfg = cli.RunConfig.from_dict({"model": model, "n_elements": 64, "checks": checks})
        cli.Runner(cfg).run_all()
        big = [(name, s) for name, s in linalg_calls if max(map(max, s), default=0) >= 128]
        dim = 256 + {"tmd": 2, "hydraulic": 3}[model]
        assert [(name, s) for name, s in big if name != "cholesky_banded"] == [
            ("eigh", [(128, 128)] * 2)
        ]
        assert [s for name, s in big if name == "cholesky_banded"] == [
            [(4, 128)], [(4, 128)], [(6, 256)], [(6, dim)], [(6, 256)]
        ]

    @pytest.mark.parametrize("model", ["tmd", "hydraulic"])
    def test_verify_all_factors_no_gram_densely(self, linalg_calls, monkeypatch, model):
        """At 16 elements with the simulation on, counting calls of every
        size, no Gram is factored densely: the only Cholesky factorisations
        are the banded ones of the beam's K and Mrho and of each Gram system
        built, when it is validated."""
        built = []
        init = generator.GramSystem.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(generator.GramSystem, "__init__", counted)
        cfg = cli.RunConfig.from_dict({"model": model, "n_elements": 16})
        runner = cli.Runner(cfg)
        runner.run_all()
        assert all(c.status == "pass" for c in runner.report().checks if c.status != "not run")
        factored = [(name, s) for name, s in linalg_calls if "cholesky" in name]
        assert factored == [("cholesky_banded", [(4, 32)])] * 2 + [
            ("cholesky_banded", [system._band_U.shape]) for system in built
        ]

    @pytest.mark.parametrize("model", ["combined", "torque", "force", "hydraulic_feedback"])
    def test_uncoupled_model_records_why_not_run(self, tmp_path, model):
        runner = cli.Runner(cli.load_config(str(write_config(tmp_path, model=model)), {}))
        runner.check_coupling()
        (result,) = runner.results
        assert result.status == "not run"
        assert result.evidence == {"reason": "model is not a coupling of two passive blocks"}

    def test_disabled_check_stays_bare(self, tmp_path):
        path = write_config(tmp_path, model="torque", checks={"coupling_bound": False})
        runner = cli.Runner(cli.load_config(str(path), {}))
        runner._run_check(("coupling_bound",), "check_coupling")
        (result,) = [c for c in runner.report().checks if c.name == "coupling_bound"]
        assert (result.status, result.evidence) == ("not run", {})


    def test_default_scan_end_computed_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.mesh_frequency
        monkeypatch.setattr(cli, "mesh_frequency", lambda gen: calls.append(gen) or real(gen))
        checks = {"dissipation_identity": False, "decay": False}
        path = write_config(tmp_path, model="tmd", checks=checks)
        runner = cli.Runner(cli.load_config(str(path), {}))
        runner.run_all()
        statuses = {c.name: c.status for c in runner.results}
        assert statuses["scan"] == statuses["coupling_bound"] == "pass"
        assert len(calls) == 1
        assert runner.s_hi == spectral.RELIABLE_BAND_FRACTION * real(runner.gen)


class TestCoarseMesh:
    @pytest.mark.parametrize("checks", [{}, {"scan": False}])
    def test_empty_default_band_fails_scan_and_coupling(self, tmp_path, checks):
        """With one element the reliable band ends near s = 1.68, below
        s_lo = 2: the run completes and both band checks fail, instead of a
        config error from the scan or a coupling pass on a descending grid."""
        path = write_config(tmp_path, model="tmd", n_elements=1, k_modes=2, T=0.5, checks=checks)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        for name in ("scan", "coupling_bound"):
            if checks.get(name, True):
                assert report[name]["status"] == "fail"
                assert "not above s_lo = 2.0" in report[name]["error"]
        assert report["spectrum"]["status"] == "pass"

    @pytest.mark.parametrize("n_elements", [1, 3, 5])
    @pytest.mark.parametrize("model", sorted(models.MODEL_KINDS))
    def test_too_few_modes_fail_the_simulation_checks(self, tmp_path, model, n_elements):
        """The default k_modes = 12 exceeds the 2 n_elements modes of these
        meshes: both simulation checks fail with that reason, and the run
        still writes a report naming every check."""
        cfg = {"model": model, "n_elements": n_elements, "T": 0.5,
               "out_dir": str(tmp_path / "out")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        assert list(report) == sorted(cli.CHECK_NAMES)
        reason = f"k_modes = 12 exceeds the {2 * n_elements} available modes"
        for name in ("dissipation_identity", "decay"):
            assert report[name] == {"status": "fail", "error": reason}


class TestCheckOutcomes:
    """One rule decides what a check records when it produces no result."""

    @staticmethod
    def statuses(tmp_path, **overrides):
        path = write_config(tmp_path, model="tmd", T=0.5, **overrides)
        code = cli.main(["verify-all", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        return code, report

    def test_fit_window_beyond_the_band_fails_only_the_scan(self, tmp_path):
        _, plain = self.statuses(tmp_path)
        code, report = self.statuses(tmp_path, fit_lo=1e5, fit_hi=2e5)
        assert code == cli.EXIT_CHECK_FAILED
        assert report["scan"]["status"] == "fail"
        assert "fit window" in report["scan"]["error"]
        del plain["scan"], report["scan"]
        assert {n: c["status"] for n, c in report.items()} == {
            n: c["status"] for n, c in plain.items()
        }

    def test_numerical_error_in_a_check_fails_that_check(self, tmp_path, monkeypatch):
        _, plain = self.statuses(tmp_path)
        assert plain["kernel"]["status"] == "pass"

        def broken(self):
            raise ts.NumericalError("singular value decomposition did not converge")

        monkeypatch.setattr(cli.Runner, "check_kernel", broken)
        code, report = self.statuses(tmp_path)
        assert code == cli.EXIT_CHECK_FAILED
        assert report["kernel"] == {
            "status": "fail", "error": "singular value decomposition did not converge",
        }
        names = list(cli.CHECK_NAMES)
        for name in names[names.index("kernel") + 1:]:
            assert report[name]["status"] == plain[name]["status"]

    def test_checks_decide_no_outcome_of_their_own(self):
        """No ``Runner.check_*`` method catches an error or records a bare
        "not run": ``Runner._run_check`` and ``Runner.report`` decide those."""
        tree = ast.parse(Path(cli.__file__).read_text())
        (runner,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Runner"
        ]
        methods = [
            node for node in runner.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
        ]
        assert {m.name for m in methods} == {method for _, _, method in cli.CHECKS}
        for method in methods:
            for node in ast.walk(method):
                assert not isinstance(node, ast.Try), method.name
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_record"
                ):
                    status = node.args[1]
                    bare = not node.keywords and len(node.args) == 2
                    assert not (bare and getattr(status, "value", None) == "not run"), (
                        method.name
                    )


class TestExitCodes:
    """Every run ends in a documented exit code: a rejected config is 2, and
    a check that overflows or cannot allocate fails with exit 3 and a report."""

    OVERFLOW = "OverflowError: "
    HYDRAULIC_OVERFLOW = dict.fromkeys(
        ("transfer_cross_validation", "routh_hurwitz", "hydraulic_positivity"), OVERFLOW
    )

    @pytest.mark.parametrize(
        "overrides, argv, code, errors",
        [
            ({"seed": -1}, ["check"], cli.EXIT_VALIDATION, {}),
            ({}, ["verify-all", "--seed", "-3"], cli.EXIT_VALIDATION, {}),
            ({"a": 1e300}, ["verify-all"], cli.EXIT_CHECK_FAILED,
             {"transfer_cross_validation": OVERFLOW}),
            ({"model": "torque", "b": 1e200}, ["verify-all"], cli.EXIT_CHECK_FAILED,
             {"transfer_cross_validation": OVERFLOW}),
            ({"model": "tmd", "d1": 1e200}, ["verify-all"], cli.EXIT_CHECK_FAILED,
             {"transfer_cross_validation": OVERFLOW}),
            ({"model": "hydraulic", "Dp": 1e200}, ["verify-all"], cli.EXIT_CHECK_FAILED,
             HYDRAULIC_OVERFLOW),
            ({"EI": 1e300}, ["verify-all"], cli.EXIT_CHECK_FAILED,
             {"dissipation_identity": "cannot allocate", "decay": "cannot allocate"}),
        ],
        ids=["seed", "seed-flag", "combined-a", "torque-b", "tmd-d1", "hydraulic-Dp", "EI"],
    )
    def test_every_run_ends_in_a_documented_exit_code(
        self, tmp_path, capsys, overrides, argv, code, errors
    ):
        path = write_config(tmp_path, T=0.5, **overrides)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main([*argv, "--config", str(path)]) == code
        report = tmp_path / "out" / "report.json"
        if code == cli.EXIT_VALIDATION:
            assert "config error: seed: must be nonnegative" in capsys.readouterr().err
            assert not report.exists()
            return
        checks = json.loads(report.read_text())["checks"]
        for name, prefix in errors.items():
            assert checks[name]["status"] == "fail"
            assert checks[name]["error"].startswith(prefix), checks[name]

    @pytest.mark.parametrize(
        "overrides", [{"model": "tmd", "d1": 1e308}, {"model": "hydraulic_feedback", "k_fb": 1e308}]
    )
    def test_symmetric_parts_of_a_finite_flux_do_not_overflow(self, tmp_path, overrides):
        """The flux holds -1e308 twice across its diagonal, whose sum
        overflows: halved before the sum, the symmetric parts of the
        dissipation defect and of the passivity form stay finite, and the
        run ends in exit 3 with a status for every check instead of scipy's
        ``ValueError`` on infinite entries."""
        path = write_config(tmp_path, n_elements=4, T=0.5, **overrides)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_CHECK_FAILED
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        assert set(checks) == set(cli.CHECK_NAMES)
        assert checks["dissipativity"]["status"] == "pass"
        assert checks["dissipativity"]["defect"] <= 0.0

    def test_infinite_loop_gain_borders_modes_without_warnings(self, tmp_path):
        """The modal form's ``R`` rows carry the 1e308 loop gain, so the
        bordering weights of the resolvent scan overflow: they read ``inf``
        (every mode bordered) with no numpy warning, and every check keeps
        its status."""
        cfg = {"model": "hydraulic_feedback", "k_fb": 1e308, "n_elements": 4}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(cfg, out_dir=str(tmp_path / "out"))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_CHECK_FAILED
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        failed = {"spectrum", "scan", "kernel", "dissipation_identity", "decay"}
        not_run = {"coupling_bound", "transfer_cross_validation"}
        assert {name: check["status"] for name, check in checks.items()} == {
            name: "fail" if name in failed else "not run" if name in not_run else "pass"
            for name in cli.CHECK_NAMES
        }

    def test_diverging_step_loop_fails_without_warnings(self):
        """A diverging run is decided by the loop's finiteness test alone:
        no numpy warning escapes on the way, and the failure names the step
        (324 here; the step of an overflow moves with the last bits of dt
        and of the initial data, so only its form is asserted)."""
        runner = cli.Runner(cli.RunConfig.from_dict({"model": "tmd", "d1": 1e200}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = runner.run_all()
        (identity,) = [c for c in report.checks if c.name == "dissipation_identity"]
        assert identity.status == "fail"
        assert re.fullmatch(
            r"midpoint solve produced non-finite state or energy at step \d+",
            identity.evidence["error"],
        )

    def test_step_budget_fails_the_simulation_before_any_work(self, tmp_path, monkeypatch):
        """The default step of the desk tmd model at ``EI = 1e6`` is 2.27e-7,
        so ``T = 50`` asks for 2.2e8 steps, over ``timesim.STEP_BUDGET``: both
        simulation checks fail with an error naming the horizon and the
        budget, before any eigensolve or factorization, and the run ends in
        exit 3 with a report."""

        def refuse(*args):
            raise AssertionError("the simulation started work over the step budget")

        monkeypatch.setattr(timesim, "_energy_eigenbasis", refuse)
        monkeypatch.setattr(timesim, "_band_operators", refuse)
        path = write_config(tmp_path, model="tmd", n_elements=16, k_modes=12, T=50.0, EI=1e6)
        assert cli.main(["verify-all", "--config", str(path)]) == cli.EXIT_CHECK_FAILED
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        for name in ("dissipation_identity", "decay"):
            assert checks[name]["status"] == "fail"
            assert checks[name]["error"].startswith("cannot allocate the step arrays of T = 50.0")
            assert checks[name]["error"].endswith("(2.2e+08 steps): the step budget is 1e+07 steps")


class TestKernelEvidence:
    def test_sigma_max_is_the_energy_norm_of_the_generator(self, tmp_path):
        runner = cli.Runner(cli.load_config(str(write_config(tmp_path)), {}))
        runner.check_kernel()
        evidence = runner.results[-1].evidence
        assert evidence["sigma_max"] == energy_norm(runner.gen)


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
        cols = np.load(tmp_path / "out" / "trajectory.npy", allow_pickle=False).dtype.names
        assert cols[:2] == ("t", "E")
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
        # below, at and across the boundaries of the formatting chunks
        for n in (
            cli.CSV_CHUNK_ROWS + 3,
            2 * cli.CSV_CHUNK_ROWS,
            2 * cli.CSV_CHUNK_ROWS + 1,
            3 * cli.CSV_CHUNK_ROWS + 7,
        ):
            x = np.linspace(-1.0, 1.0, n)
            x[:5] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
            x[-3:] = [-0.0, np.inf, 5e-324]
            columns = [x, np.arange(n), 1.0 / 3.0 * x]
            cli.write_columns_csv(tmp_path / "c.csv", ["a", "b", "c"], columns)
            expected = "a,b,c\n" + "".join(
                ",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*columns)
            )
            assert (tmp_path / "c.csv").read_text() == expected, n
            assert [p.name for p in tmp_path.iterdir()] == ["c.csv"], n

    def test_wide_table_is_formatted_in_small_chunks(self, tmp_path, traced_peak):
        """A table with one column per state, like ``A.csv``, is formatted
        a few rows at a time: the traced peak stays near a MB, against
        18 MB for the 500 x 500 table in one chunk."""
        columns = list(np.random.default_rng(0).standard_normal((500, 500)))
        peak = traced_peak(
            lambda: cli.write_columns_csv(tmp_path / "c.csv", [str(j) for j in range(500)], columns)
        ).peak
        assert peak < 3e6, peak
        written = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)
        assert np.array_equal(written, np.array(columns).T)

    def test_columns_npy_is_the_bytes_of_np_save(self, tmp_path):
        """Below, at and across the first boundary of the writer's chunks,
        and empty."""
        names = ["t", "E", "v"]
        chunk = cli.CSV_CHUNK_VALUES // len(names)
        for n in (0, 1, chunk - 1, chunk, chunk + 1):
            x = np.linspace(-1.0, 1.0, n)
            x[:3] = [-0.0, np.nan, 5e-324][:n]
            columns = [x, np.arange(n), 1.0 / 3.0 * x]
            table = np.empty(n, dtype=[(name, "<f8") for name in names])
            for name, column in zip(names, columns):
                table[name] = column
            np.save(tmp_path / "expected.npy", table, allow_pickle=False)
            cli.write_columns_npy(tmp_path / "t.npy", names, columns)
            assert (tmp_path / "t.npy").read_bytes() == (tmp_path / "expected.npy").read_bytes(), n

    def test_columns_npy_is_written_in_chunks(self, tmp_path, traced_peak):
        """10**6 rows of three columns: the traced peak is one chunk of rows,
        against 24 MB for the whole structured table."""
        t = np.linspace(0.0, 1.0, 10**6)
        columns = [t, np.exp(-t), np.sin(t)]
        peak = traced_peak(lambda: cli.write_columns_npy(tmp_path / "t.npy", ["t", "E", "v"], columns)).peak
        assert peak < 2e6, peak

    def test_columns_of_unequal_length_are_rejected(self, tmp_path):
        with pytest.raises(ts.ValidationError, match=r"columns differ in length: \[3, 2\]"):
            cli.write_columns_csv(tmp_path / "c.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


class TestSplitWriter:
    """emit_report when writing a long table fails part way, or cannot start."""

    ARTIFACTS = ("scan.csv", "trajectory.npy")

    @staticmethod
    def runner_with_long_tables(tmp_path):
        runner = cli.Runner(cli.load_config(str(write_config(tmp_path)), {}))
        t = np.linspace(0.0, 1.0, 2 * cli.CSV_CHUNK_ROWS + 1)
        runner.scan = SimpleNamespace(s_values=t, norms=np.exp(t))
        runner.trajectory = SimpleNamespace(times=t, energies=np.exp(-t), channels={"v": np.sin(t)})
        return runner

    @staticmethod
    def disk_fills_up(monkeypatch, name, room=1000):
        """Writes to the artifact ``name`` fail with ENOSPC once ``room``
        bytes of it reached the file."""

        class FillingFile:
            def __init__(self, fh):
                self.fh, self.room = fh, room

            def write(self, data):
                data = data if isinstance(data, str) else bytes(data)
                self.fh.write(data[:self.room])
                self.fh.flush()
                self.room -= len(data)
                if self.room < 0:
                    raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def open_filling(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return FillingFile(fh) if Path(file).name == name else fh

        monkeypatch.setattr(cli, "open", open_filling, raising=False)

    def test_one_process_failing_mid_table(self, tmp_path, monkeypatch):
        """A table whose write fails after its first bytes reached the file
        leaves no partial file, as CSV and as ``.npy``."""
        runner = self.runner_with_long_tables(tmp_path)
        for name in self.ARTIFACTS:
            with monkeypatch.context() as patch:
                self.disk_fills_up(patch, name)
                with pytest.raises(ts.ToolkitError, match="cannot write artifacts.*No space left"):
                    cli.emit_report(runner.report(), tmp_path / name, runner)
            assert not (tmp_path / name / name).exists()

    @pytest.mark.parametrize("name", ["report.json", "labels.txt"])
    def test_text_file_failing_mid_write(self, tmp_path, monkeypatch, name):
        """``report.json`` or ``labels.txt`` whose write fails after its first
        bytes reached the file leaves no partial file."""
        runner = cli.Runner(cli.load_config(str(write_config(tmp_path)), {}))
        self.disk_fills_up(monkeypatch, name, room=100)
        with pytest.raises(ts.ToolkitError, match="cannot write artifacts.*No space left"):
            cli.emit_report(runner.report(), tmp_path / "o", runner, matrices=True)
        assert not (tmp_path / "o" / name).exists()

    def test_csv_that_cannot_be_opened_is_left_alone(self, tmp_path, monkeypatch):
        """``open`` of the table itself fails: the file already there keeps
        its bytes, as CSV and as ``.npy``."""
        runner = self.runner_with_long_tables(tmp_path)
        for name in self.ARTIFACTS:
            out = tmp_path / name
            out.mkdir()
            (out / name).write_text("kept\n")

            def refuse(file, mode="r", **kwargs):
                if Path(file).name == name and mode.startswith("w"):
                    raise PermissionError(errno.EACCES, "Permission denied", str(file))
                return open(file, mode, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(cli, "open", refuse, raising=False)
                with pytest.raises(ts.ToolkitError, match="cannot write artifacts.*Permission denied"):
                    cli.emit_report(runner.report(), out, runner)
            assert (out / name).read_text() == "kept\n"


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

    def test_matrices_are_row_major_17_digit_csv(self, tmp_path):
        """A.csv and gram.csv: a "rows,cols" line, then each row with every
        value formatted to 17 significant digits."""
        path = write_config(tmp_path, model="tmd")
        assert cli.main(["assemble", "--config", str(path)]) == cli.EXIT_OK
        gen = cli.build_generator(cli.load_config(str(path), {}))
        for name, matrix in (("A.csv", gen.A), ("gram.csv", gen.gram)):
            rows, cols = matrix.shape
            expected = f"{rows},{cols}\n" + "".join(
                ",".join(format(v, ".17g") for v in row) + "\n" for row in matrix
            )
            assert (tmp_path / "out" / name).read_bytes() == expected.encode()

    def test_unwritable_out_dir_is_an_artifact_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = write_config(tmp_path)
        argv = ["assemble", "--config", str(path), "--out", str(blocker / "out")]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("error: cannot write artifacts")

    def test_report_is_the_first_written_path(self, tmp_path):
        runner = cli.Runner(cli.load_config(str(write_config(tmp_path)), {}))
        written = cli.emit_report(runner.report(), tmp_path / "o", runner, matrices=True)
        assert [p.name for p in written] == ["report.json", "A.csv", "gram.csv", "labels.txt"]

    def test_report_emitted_even_for_assemble(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["assemble", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["dissipativity"]["status"] == "pass"
        assert report["provenance"]["toolkit_version"]


class TestAssemblyMemory:
    @pytest.mark.parametrize("model, bound_mib", [("combined", 30), ("hydraulic_feedback", 40)])
    def test_runner_peak_at_256_elements(self, traced_peak, model, bound_mib):
        """The loops close on the support of their input maps and the blocks
        couple on the support of ``gram_B L``, with no dim**2 temporaries:
        with them the peak was 44.1 and 52.5 MiB."""
        cfg = cli.load_config(None, {"model": model, "n_elements": 256})
        assert traced_peak(lambda: cli.Runner(cfg)).peak < bound_mib * 2**20

    @pytest.mark.parametrize("model, bound_mib", [("combined", 12.0), ("tmd", 18.7)])
    def test_runner_keeps_bands_only(self, traced_peak, model, bound_mib):
        """Every Gram and flux is stored as its band and written there by the
        assembly, so at 256 elements (dim 1024) a runner keeps under 1 MiB:
        the dense Gram and flux of the model (and, on tmd, of its tip block)
        kept 16.1 and 32.3 MiB.  The peak bound, half of the 24.1 and 37.4
        MiB that the dense assembly traced, was set when the beam's dense K
        and Mrho were in it (1.4 and 2.0 MiB since the beam is banded)."""
        cfg = cli.load_config(None, {"model": model, "n_elements": 256})
        traced = traced_peak(lambda: cli.Runner(cfg))
        assert traced.kept < 2**20
        assert traced.peak <= bound_mib * 2**20

    @pytest.mark.parametrize("model", ["combined", "tmd"])
    def test_runner_at_1024_elements_is_linear_in_n_dof(self, traced_peak, model):
        """The beam is built in band storage and assembled from its bands, so
        no n_dof**2 array exists on the way: at 1024 elements (n_dof 2048)
        a runner keeps at most 2 KiB per beam dof (680 and 1343 bytes
        measured on combined and tmd) and peaks at at most 8 KiB per beam
        dof (2.9 and 4.0 KiB measured), half of one dense n_dof**2 float
        array.  With the dense K and Mrho the peak was 71.3 and 72.0 MiB."""
        n_dof = 2048
        cfg = cli.load_config(None, {"model": model, "n_elements": n_dof // 2})
        traced = traced_peak(lambda: cli.Runner(cfg))
        assert traced.kept <= 2 * 1024 * n_dof
        assert traced.peak <= 8 * 1024 * n_dof


class TestDefaults:
    def test_runs_without_config_file(self, tmp_path):
        assert (
            cli.main(["check", "--out", str(tmp_path / "o"), "--seed", "3"])
            == cli.EXIT_OK
        )
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["provenance"]["seed"] == 3


class TestBenchmarkInterface:
    def test_child_process_reads_every_check(self, tmp_path):
        """The benchmark's child process runs ``verify`` on a tiny config, as
        the benchmark does (working directory of its own, relative out dir),
        and reads the runner's results, spectrum, trajectory and report."""
        root = Path(__file__).resolve().parents[1]
        (tmp_path / "config.json").write_text(
            json.dumps({"model": "tmd", "n_elements": 4, "k_modes": 6, "T": 0.5})
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        ))
        argv = [sys.executable, str(root / "perfbench" / "child.py"), "verify",
                "config.json", "result.json"]
        child = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert child.returncode == 0, child.stderr
        result = json.loads((tmp_path / "result.json").read_text())
        assert set(result["statuses"]) == set(cli.CHECK_NAMES)
        assert result["values"]["spectrum.eigenvalue_count"] > 0
        assert 0.0 < result["values"]["dissipation_identity.final_energy_ratio"] <= 1.0
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert result["report_sha256"] == hashlib.sha256(report).hexdigest()
