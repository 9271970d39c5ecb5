"""Command-line front end: config-driven assembly, checks, scans and reports.

A run is described by a single JSON config file whose defaults reproduce the
desk fixtures (all physical constants 1, ``n_elements`` 16).  Artifacts are
written to the output directory as ``report.json`` plus CSV files; identical
config and seed produce byte-identical JSON (floats are rendered with 17
significant digits).

Exit codes: 0 all checks pass; 2 the config was rejected before any check
ran; 3 at least one check failed, or raised and records why as ``error``;
4 assembling the model or writing the artifacts failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import scipy

from . import __version__
from .beam_fem import (
    BeamParameters,
    build_beam_matrices,
    check_condition_cond,
    check_condition_eq1,
    coefficient_from_spec,
)
from .errors import NumericalError, ToolkitError, ValidationError
from .generator import DISSIPATIVITY_TOL, DiscreteGenerator, energy_norm
from .models import (
    MODEL_KINDS,
    TmdParameters,
    _as_hydraulic,
    assemble_combined,
    assemble_hydraulic,
    assemble_hydraulic_feedback,
    assemble_tmd,
    control_block,
    cross_validate_reH2,
    hydraulic_characteristic,
    hydraulic_positivity_check,
)
from .passive_core import (
    check_coupled_resolvent_bound,
    routh_hurwitz,
    verify_passivity,
)
from .spectral import (
    KERNEL_TOL,
    RELIABLE_BAND_FRACTION,
    _frequency_grid,
    eigen_report,
    kernel_check,
    mesh_frequency,
    scan_resolvent,
)
from .timesim import (
    IDENTITY_RTOL,
    classical_initial_data,
    default_timestep,
    fit_decay_rate,
    simulate,
    verify_dissipation_identity,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3
EXIT_NUMERICAL = 4

#: The checks in report order: (subcommand that runs them besides
#: verify-all, their report names, the ``Runner`` method recording them).
CHECKS = (
    ("check", ("dissipativity",), "check_dissipativity"),
    ("check", ("passivity",), "check_passivity"),
    ("check", ("transfer_cross_validation",), "check_transfer"),
    ("check", ("conditions",), "check_conditions"),
    ("eigens", ("spectrum",), "check_spectrum"),
    ("scan", ("scan",), "check_scan"),
    ("check", ("kernel",), "check_kernel"),
    ("check", ("routh_hurwitz",), "check_routh"),
    (None, ("coupling_bound",), "check_coupling"),
    ("simulate", ("dissipation_identity", "decay"), "check_simulation"),
    ("check", ("hydraulic_positivity",), "check_positivity"),
)
CHECK_NAMES = tuple(name for _, names, _ in CHECKS for name in names)

_POSITIVE = "must be strictly positive"
_NONNEGATIVE = "must be nonnegative"
#: JSON types accepted for each annotated field type; ``Any`` fields are
#: coefficient specs, checked by ``coefficient_from_spec``.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict}


@dataclass
class RunConfig:
    """Validated run description; every field mirrors a config key."""

    model: str = "combined"
    n_elements: int = 16
    rho: Any = 1.0
    EI: Any = 1.0
    m: float = 1.0
    J: float = 1.0
    a: float = 1.0
    b: float = 1.0
    m1: float = 1.0
    k1: float = 1.0
    d1: float = 1.0
    Dp: float = 1.0
    Dm: float = 1.0
    Bp: float = 1.0
    Bm: float = 1.0
    kleak: float = 0.0
    beta: float = 1.0
    V: float = 1.0
    JT: float = 1.0
    JG: float = 1.0
    k_fb: float = 1.0
    s_lo: float = 2.0
    s_hi: float | None = None
    n_points: int = 200
    spacing: str = "log"
    fit_lo: float | None = None
    fit_hi: float | None = None
    T: float = 50.0
    dt: float | None = None
    profile: str = "smooth_modal"
    k_modes: int = 12
    checks: dict = field(default_factory=dict)
    seed: int = 0  # recorded in the provenance; no check reads it
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if kind not in _FIELD_TYPES or (value is None and kind != f.type):
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ValidationError(f"{f.name}: expected {kind}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ValidationError(f"{f.name}: must be finite, got {value!r}")
        if self.model not in MODEL_KINDS:
            raise ValidationError(
                f"model: {self.model!r} is not one of {sorted(MODEL_KINDS)}"
            )
        if self.n_elements < 1:
            raise ValidationError("n_elements: must be at least 1")
        for name in ("m", "J", "m1", "k1", "d1", "Dp", "Dm", "beta", "V", "JT", "JG"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name}: {_POSITIVE}, got {getattr(self, name)}")
        for name in ("a", "b", "Bp", "Bm", "kleak", "k_fb"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name}: {_NONNEGATIVE}, got {getattr(self, name)}")
        if not self.s_lo > 0:
            raise ValidationError(
                f"s_lo: log spacing requires s_lo > 0, got {self.s_lo}"
            )
        if self.s_hi is not None and self.s_hi <= self.s_lo:
            raise ValidationError(f"s_hi: must exceed s_lo, got {self.s_hi}")
        if self.n_points < 2:
            raise ValidationError("n_points: must be at least 2")
        if self.spacing not in ("log", "linear"):
            raise ValidationError(f"spacing: must be 'log' or 'linear', got {self.spacing!r}")
        if (self.fit_lo is None) != (self.fit_hi is None):
            raise ValidationError("fit_lo, fit_hi: give both or neither")
        if self.fit_lo is not None and not self.fit_lo < self.fit_hi:
            raise ValidationError(
                f"fit_hi: must exceed fit_lo, got [{self.fit_lo}, {self.fit_hi}]"
            )
        if not self.T > 0:
            raise ValidationError(f"T: {_POSITIVE}, got {self.T}")
        if self.dt is not None and not self.dt > 0:
            raise ValidationError(f"dt: {_POSITIVE}, got {self.dt}")
        if self.profile not in ("smooth_modal", "tip_kick", "static_bend"):
            raise ValidationError(f"profile: unknown profile {self.profile!r}")
        if self.k_modes < 1:
            raise ValidationError("k_modes: must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed: {_NONNEGATIVE}, got {self.seed}")
        unknown_checks = set(self.checks) - set(CHECK_NAMES)
        if unknown_checks:
            raise ValidationError(f"checks: unknown toggles {sorted(unknown_checks)}")
        for name, on in self.checks.items():
            if not isinstance(on, bool):
                raise ValidationError(f"checks: {name} must be true or false, not {on!r}")

    def enabled(self, check: str) -> bool:
        return self.checks.get(check, True)

    def beam_parameters(self) -> BeamParameters:
        return BeamParameters(
            rho=coefficient_from_spec(self.rho, self.n_elements),
            EI=coefficient_from_spec(self.EI, self.n_elements),
            m=self.m,
            J=self.J,
        )

    def constant_coefficients(self) -> bool:
        def is_const(spec) -> bool:
            return isinstance(spec, (int, float)) or (
                isinstance(spec, Mapping) and spec.get("kind") == "constant"
            )

        return is_const(self.rho) and is_const(self.EI)

    def block_parameters(self) -> dict:
        """Every config value by name, as ``control_block`` reads block parameters."""
        return dataclasses.asdict(self)


def build_generator(cfg: RunConfig, params: BeamParameters | None = None) -> DiscreteGenerator:
    """Assemble the configured model; ``params`` defaults to ``cfg.beam_parameters()``."""
    if params is None:
        params = cfg.beam_parameters()
    beam = build_beam_matrices(params, cfg.n_elements)
    if cfg.model == "combined":
        return assemble_combined(beam, params, cfg.a, cfg.b)
    if cfg.model == "torque":
        return assemble_combined(beam, params, 0.0, cfg.b)
    if cfg.model == "force":
        return assemble_combined(beam, params, cfg.a, 0.0)
    if cfg.model == "tmd":
        return assemble_tmd(beam, params, TmdParameters(cfg.m1, cfg.k1, cfg.d1))
    gen = assemble_hydraulic(beam, params, _as_hydraulic(cfg.block_parameters()))
    if cfg.model == "hydraulic_feedback":
        gen = assemble_hydraulic_feedback(gen, cfg.k_fb)
    return gen


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "not run"
    evidence: dict


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    provenance: dict

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if c.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "checks": {c.name: {"status": c.status, **c.evidence} for c in self.checks},
            "provenance": self.provenance,
        }


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        if not np.isfinite(x):  # JSON has no literal for nan/inf
            return json.dumps(str(x))
        return format(x, ".17g")
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "null"
    return json.dumps(str(x))


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting and sorted keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {render_json(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    return _fmt(obj)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(render_json(dataclasses.asdict(cfg)).encode()).hexdigest()


#: rows formatted per write; bounds the temporary row objects to about a MB.
CSV_CHUNK_ROWS = 4096


def write_columns_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Columns side by side as CSV, floats with 17 significant digits."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = min((c.shape[0] for c in columns), default=0)
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = [c[start:start + CSV_CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join([row_format % row for row in zip(*chunk)]))


class Runner:
    """Executes the configured checks and collects artifacts."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.params = cfg.beam_parameters()
        self.gen = build_generator(cfg, self.params)
        self.results: list[CheckResult] = []
        self.scan = None
        self.spectrum = None
        self.trajectory = None

    @cached_property
    def s_hi(self) -> float:
        """Upper scan frequency: the configured one, else the reliable band's end."""
        if self.cfg.s_hi is not None:
            return self.cfg.s_hi
        return RELIABLE_BAND_FRACTION * mesh_frequency(self.gen)

    def _record(self, name: str, status: str, **evidence) -> None:
        self.results.append(CheckResult(name, status, evidence))

    def _run_check(self, names: tuple[str, ...], method: str) -> None:
        """Call the check ``method`` unless every one of its ``names`` is disabled.

        A :class:`ToolkitError` or ``ArithmeticError`` escaping the check
        fails each enabled name the check has not recorded, with the message
        (an ``ArithmeticError``'s after its type name) as ``error``.
        """
        enabled = [name for name in names if self.cfg.enabled(name)]
        if not enabled:
            return
        try:
            getattr(self, method)()
        except (ToolkitError, ArithmeticError) as exc:
            error = str(exc) if isinstance(exc, ToolkitError) else f"{type(exc).__name__}: {exc}"
            recorded = {c.name for c in self.results}
            for name in enabled:
                if name not in recorded:
                    self._record(name, "fail", error=error)

    # individual checks ---------------------------------------------------

    def check_dissipativity(self) -> None:
        defect = self.gen.dissipation_defect()
        self._record(
            "dissipativity",
            "pass" if defect <= DISSIPATIVITY_TOL else "fail",
            defect=defect,
        )

    def check_passivity(self) -> None:
        cfg = self.cfg
        report = verify_passivity(control_block(cfg.model, cfg.block_parameters()))
        self._record(
            "passivity", "pass" if report.passive else "fail", lambda_max=report.lambda_max
        )

    def check_transfer(self) -> None:
        cfg = self.cfg
        if cfg.model == "hydraulic_feedback":
            return
        grid = np.geomspace(0.01, 100.0, 400)
        cv = cross_validate_reH2(cfg.model, cfg.block_parameters(), grid)
        self._record(
            "transfer_cross_validation",
            "pass" if cv.matches else "fail",
            max_rel_err=cv.max_rel_err,
            observed_ratio=cv.observed_ratio,
        )

    def check_conditions(self) -> None:
        cfg = self.cfg
        grid = np.linspace(0.0, 1.0, max(64, 4 * cfg.n_elements))
        cert = check_condition_eq1(
            self.params, lambda x: 2.0 * x, 0.25, 0.4, grid
        )
        evidence = {"eq1_margin": cert.margin, "eq1_holds": cert.holds}
        status = "pass" if cert.holds else "fail"
        if cfg.constant_coefficients():
            violations = check_condition_cond(
                cfg.J, float(self.params.EI(0.0)), float(self.params.rho(0.0)), 20, 1e-9
            )
            evidence["cond_violations"] = violations
            if violations:
                status = "fail"
        else:
            evidence["cond_violations"] = None
        self._record("conditions", status, **evidence)

    def check_spectrum(self) -> None:
        rep = eigen_report(self.gen)
        self.spectrum = rep
        damped = self._is_damped()
        ok = rep.max_real_part < 0 if damped else rep.max_real_part <= 1e-10
        self._record(
            "spectrum",
            "pass" if ok else "fail",
            max_real_part=rep.max_real_part,
            asymptotic_slope=rep.asymptotic_slope,
            route=rep.route,
            trace_residual=rep.trace_residual,
        )

    def _is_damped(self) -> bool:
        return any(ch.gain > 0 for ch in self.gen.damping_channels)

    def check_scan(self) -> None:
        cfg = self.cfg
        window = None if cfg.fit_lo is None else (cfg.fit_lo, cfg.fit_hi)
        scan = scan_resolvent(
            self.gen, cfg.s_lo, self.s_hi, cfg.n_points, cfg.spacing, fit_window=window
        )
        self.scan = scan
        ok = len(scan.excluded) == 0 and np.all(np.isfinite(scan.norms))
        self._record(
            "scan",
            "pass" if ok else "fail",
            alpha_fit=scan.alpha_fit,
            window=list(scan.window),
            excluded_points=list(scan.excluded),
        )

    def check_kernel(self) -> None:
        dim, smin = kernel_check(self.gen)
        smax = energy_norm(self.gen)
        ok = dim == 0 and smin > KERNEL_TOL * smax
        self._record(
            "kernel", "pass" if ok else "fail", dimension=dim, sigma_min=smin,
            sigma_max=smax,
        )

    def check_routh(self) -> None:
        cfg = self.cfg
        if cfg.model == "tmd":
            poly = [1.0, cfg.d1 / cfg.m1, cfg.k1 / cfg.m1]
        elif cfg.model in ("hydraulic", "hydraulic_feedback"):
            poly = hydraulic_characteristic(_as_hydraulic(cfg.block_parameters()))
        else:
            return
        stable = routh_hurwitz(poly)
        roots = np.roots(poly)
        agrees = stable == bool(np.all(roots.real < 0))
        self._record(
            "routh_hurwitz",
            "pass" if (stable and agrees) else "fail",
            stable=stable,
            companion_agrees=agrees,
        )

    def check_coupling(self) -> None:
        if self.gen.blocks is None:
            reason = "model is not a coupling of two passive blocks"
            self._record("coupling_bound", "not run", reason=reason)
            return
        cfg = self.cfg
        grid = _frequency_grid(cfg.s_lo, self.s_hi, min(cfg.n_points, 120), "log")
        rep = check_coupled_resolvent_bound(self.gen, np.eye(1), grid)
        ok = np.isfinite(rep.max_ratio)
        self._record(
            "coupling_bound",
            "pass" if ok else "fail",
            max_ratio=rep.max_ratio,
            excluded_points=list(rep.excluded),
        )

    def check_simulation(self) -> None:
        cfg = self.cfg
        z0 = classical_initial_data(self.gen, cfg.profile, k_modes=cfg.k_modes)
        dt = cfg.dt if cfg.dt is not None else default_timestep(self.gen, cfg.k_modes)
        traj = simulate(self.gen, z0, cfg.T, dt)
        self.trajectory = traj
        if cfg.enabled("dissipation_identity"):
            residual = verify_dissipation_identity(self.gen, traj)
            scale = traj.energies[0] or 1.0
            monotone = traj.is_monotone()
            ok = residual <= IDENTITY_RTOL * scale and monotone
            self._record(
                "dissipation_identity",
                "pass" if ok else "fail",
                max_dissipation_residual=residual,
                relative_residual=residual / scale,
                monotone=monotone,
            )
        if cfg.enabled("decay"):
            t_hi = traj.times[-1]
            t_lo = max(traj.times[1], 0.1 * t_hi)
            fit = fit_decay_rate(traj, t_lo, t_hi)
            self._record(
                "decay", "pass", slope=fit.slope, window=list(fit.window),
                curvature=fit.curvature, power_law=fit.power_law,
            )

    def check_positivity(self) -> None:
        cfg = self.cfg
        if cfg.model not in ("hydraulic", "hydraulic_feedback"):
            return
        grid = np.geomspace(1e-2, 100.0, 100)
        rep = hydraulic_positivity_check(_as_hydraulic(cfg.block_parameters()), grid)
        self._record(
            "hydraulic_positivity",
            "pass" if rep.ok else "fail",
            a2=rep.a2, a1=rep.a1, a0=rep.a0, n_min=rep.n_min,
        )

    # orchestration --------------------------------------------------------

    def run_all(self) -> VerificationReport:
        for _, names, method in CHECKS:
            self._run_check(names, method)
        return self.report()

    def report(self) -> VerificationReport:
        """Every check in ``CHECK_NAMES`` order; a name not recorded is "not run"."""
        recorded = {c.name: c for c in self.results}
        checks = [recorded.get(name, CheckResult(name, "not run", {})) for name in CHECK_NAMES]
        return VerificationReport(
            checks=checks,
            provenance={
                "config_hash": config_hash(self.cfg),
                "seed": self.cfg.seed,
                "toolkit_version": __version__,
                "model": self.cfg.model,
                "libraries": _library_builds(),
            },
        )


def _library_builds() -> dict:
    """numpy's and scipy's versions and the BLAS and LAPACK builds each loads.

    Read from ``show_config(mode="dicts")``; the two packages ship separate
    OpenBLAS builds, whose versions and threading settings can move the last
    digits of a result.
    """
    builds = {}
    for module in (np, scipy):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        builds[module.__name__] = {
            "version": module.__version__,
            **{
                lib: {key: deps[lib].get(key) for key in ("name", "version", "openblas configuration")}
                for lib in ("blas", "lapack")
            },
        }
    return builds


def emit_report(
    report: VerificationReport,
    out_dir: str | Path,
    runner: Runner | None = None,
    matrices: bool = False,
) -> list[Path]:
    """Write report.json plus whichever CSV artifacts the run produced.

    With ``matrices`` (the ``assemble`` subcommand) it also writes the
    runner's ``A.csv``, ``gram.csv`` and ``labels.txt``.  ``report.json``
    is always the first path returned.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        path = out / "report.json"
        path.write_text(render_json(report.to_dict()) + "\n")
        written.append(path)
        if runner is not None and matrices:
            gen = runner.gen
            for name, matrix in (("A.csv", gen.A), ("gram.csv", gen.gram)):
                # dense row-major, under a one-line "rows,cols" header
                p = out / name
                write_columns_csv(p, [str(k) for k in matrix.shape], matrix.T)
                written.append(p)
            p = out / "labels.txt"
            p.write_text("\n".join(gen.labels) + "\n")
            written.append(p)
        if runner is not None and runner.scan is not None:
            p = out / "scan.csv"
            write_columns_csv(p, ["s", "resolvent_norm"], [runner.scan.s_values, runner.scan.norms])
            written.append(p)
        if runner is not None and runner.spectrum is not None:
            p = out / "spectrum.csv"
            lam = runner.spectrum.eigenvalues
            write_columns_csv(p, ["re", "im"], [lam.real, lam.imag])
            written.append(p)
        if runner is not None and runner.trajectory is not None:
            traj = runner.trajectory
            names = sorted(traj.channels)
            p = out / "trajectory.csv"
            write_columns_csv(
                p,
                ["t", "E"] + names,
                [traj.times, traj.energies] + [traj.channels[n] for n in names],
            )
            written.append(p)
        return written
    except OSError as exc:
        raise ToolkitError(f"cannot write artifacts to {out}: {exc}") from exc


def load_config(path: str | None, overrides: Mapping[str, Any]) -> RunConfig:
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"config {path} must contain a JSON object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(raw)


SUBCOMMANDS = ("assemble", "check", "scan", "eigens", "simulate", "verify-all")


def run(subcommand: str, cfg: RunConfig) -> tuple[int, VerificationReport]:
    """Dispatch one subcommand; returns (exit status, report)."""
    if subcommand not in SUBCOMMANDS:
        raise ValidationError(f"unknown subcommand {subcommand!r}")
    runner = Runner(cfg)
    if subcommand == "verify-all":
        report = runner.run_all()
    else:
        # assemble runs only the dissipativity check
        for sub, names, method in CHECKS:
            if sub == subcommand or (subcommand == "assemble" and "dissipativity" in names):
                runner._run_check(names, method)
        report = runner.report()
    emit_report(report, cfg.out_dir, runner, matrices=subcommand == "assemble")
    status = EXIT_CHECK_FAILED if report.failed() else EXIT_OK
    return status, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="towerstab",
        description="Assemble, check, scan and simulate tower stability models.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="recorded in the report")
    args = parser.parse_args(argv)
    overrides = {"out_dir": args.out, "seed": args.seed}
    try:
        cfg = load_config(args.config, overrides)
        status, report = run(args.subcommand, cfg)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for check in report.checks:
        print(f"{check.name}: {check.status}")
    if status != EXIT_OK:
        print(f"failed checks: {', '.join(report.failed())}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
