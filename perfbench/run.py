"""Benchmark of ``towerstab verify-all`` on fixed workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measurement is a fresh child
process (``child.py``) that imports towerstab from ``src``, validates the
workload config and builds ``Runner(cfg)`` (``setup_s``), then runs
``run_all()`` and ``emit_report`` (``verify_s``).  Processes run one at a
time: a closed loop with a single client and no added threads.  The seed
reaches the program only through the config's ``seed`` key.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced processes and prints the per-layer metrics from the
spans of ``layertrace``.  Every process's outputs are compared with the
statuses and reference values recorded in ``workloads.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Work files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: setup-only processes before each untraced verify process; ``setup_s``
#: is the median over these and the setup phase of every verify process.
SETUP_PROBES = 2
#: a child still running this long after the run started is killed, so
#: that the run ends within the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}

RUNNER_CHECKS = (
    "dissipativity", "passivity", "transfer", "conditions", "spectrum", "scan",
    "kernel", "routh", "coupling", "simulation", "positivity",
)
PER_LAYER_UNITS = {
    "beam_fem.build_s": "s",
    "models.assemble_s": "s",
    "models.cross_validate_s": "s",
    "models.positivity_s": "s",
    "generator.energy_coordinates_calls": "count",
    "generator.energy_coordinates_s": "s",
    "generator.distinct_generators": "count",
    "generator.dissipation_defect_s": "s",
    "spectral.scan_s": "s",
    "spectral.scan_per_freq_ms": "ms",
    "spectral.scan_usable_ratio": "ratio",
    "spectral.eigen_report_s": "s",
    "spectral.mesh_frequency_calls": "count",
    "spectral.kernel_check_s": "s",
    "spectral.resolvent_norm_calls": "count",
    "passive_core.verify_passivity_s": "s",
    "passive_core.coupling_s": "s",
    "passive_core.coupling_per_freq_ms": "ms",
    "passive_core.transfer_function_calls": "count",
    "timesim.simulate_s": "s",
    "timesim.steps": "count",
    "timesim.per_step_us": "us",
    "timesim.initial_data_s": "s",
    "timesim.identity_s": "s",
    "timesim.decay_fit_s": "s",
    **{f"cli.check_{name}_s": "s" for name in RUNNER_CHECKS},
    "cli.emit_report_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.runner_self_s": "s",
    "trace_overhead_s": "s",
}


class SourceMissing(Exception):
    """The checkout holds no towerstab sources to benchmark."""


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256(src: Path) -> str:
    """Hash of the package sources, identifying the code outside git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- output check ------------------------------------------------------------


def check_outputs(expect: dict, result: dict) -> tuple[set, set, list[str]]:
    """Compare one process's outputs with the recorded expectations.

    Returns the attempted and failed operations (check names) and the
    mismatch messages.  A recorded ``fail`` that now passes is not a
    mismatch: the known defects are recorded, and fixing one is allowed.
    """
    statuses = result["statuses"]
    attempted = {name for name, status in statuses.items() if status != "not run"}
    failed = {name for name, status in statuses.items() if status == "fail"}
    mismatches = []
    for name, want in expect["statuses"].items():
        got = statuses.get(name)
        if got != want and not (want == "fail" and got == "pass"):
            failed.add(name)
            mismatches.append(f"{name}: status {got!r}, recorded {want!r}")
    for key, ref in expect["values"].items():
        got = result["values"].get(key)
        owner = key.split(".")[0]
        if got is None or not abs(got - ref["value"]) <= ref["tol"]:
            failed.add(owner)
            mismatches.append(f"{key}: {got!r}, recorded {ref['value']!r} +- {ref['tol']!r}")
    return attempted | failed, failed, mismatches


# -- per-layer metrics from spans ----------------------------------------------


def _outermost(spans: list[dict], names) -> list[dict]:
    """Spans named in ``names`` that have no ancestor also named there."""
    names = {names} if isinstance(names, str) else set(names)
    out = []
    for record in spans:
        if record["name"] not in names:
            continue
        parent = record["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(record)
    return out


def _duration(record: dict) -> float:
    return record["end"] - record["start"]


def _seconds(spans, names) -> float:
    return math.fsum(_duration(r) for r in _outermost(spans, names))


def _calls(spans, name) -> int:
    return sum(1 for r in spans if r["name"] == name)


def _count(spans, name, key) -> int:
    return sum(r.get("counts", {}).get(key, 0) for r in spans if r["name"] == name)


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer was bypassed (``den == 0``)."""
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced process: (timings, exact counts)."""
    scan_points = _count(spans, "spectral.scan_resolvent", "points")
    coupling_points = _count(spans, "passive_core.check_coupled_resolvent_bound", "points")
    steps = _count(spans, "timesim.simulate", "steps")
    verify_index = next(i for i, r in enumerate(spans) if r["name"] == "verify")
    verify_s = _duration(spans[verify_index])
    children = [r for r in spans if r["parent"] == verify_index]
    counts = {
        "generator.energy_coordinates_calls": _calls(spans, "generator.energy_coordinates"),
        "generator.distinct_generators": len(
            {r["arg"] for r in spans if r["name"] == "generator.energy_coordinates"}
        ),
        "spectral.mesh_frequency_calls": _calls(spans, "spectral.mesh_frequency"),
        "spectral.resolvent_norm_calls": _calls(spans, "spectral.resolvent_norm"),
        "passive_core.transfer_function_calls": _calls(spans, "passive_core.transfer_function"),
        "timesim.steps": steps,
        "cli.artifact_bytes": _count(spans, "cli.emit_report", "bytes"),
    }
    scan_s = _seconds(spans, "spectral.scan_resolvent")
    coupling_s = _seconds(spans, "passive_core.check_coupled_resolvent_bound")
    simulate_s = _seconds(spans, "timesim.simulate")
    times = {
        "beam_fem.build_s": _seconds(spans, "beam_fem.build_beam_matrices"),
        "models.assemble_s": _seconds(spans, (
            "models.assemble_combined", "models.assemble_tmd",
            "models.assemble_hydraulic", "models.assemble_hydraulic_feedback",
        )),
        "models.cross_validate_s": _seconds(spans, "models.cross_validate_reH2"),
        "models.positivity_s": _seconds(spans, "models.hydraulic_positivity_check"),
        "generator.energy_coordinates_s": _seconds(spans, "generator.energy_coordinates"),
        "generator.dissipation_defect_s": _seconds(
            spans, "generator.DiscreteGenerator.dissipation_defect"
        ),
        "spectral.scan_s": scan_s,
        "spectral.scan_per_freq_ms": 1e3 * _ratio(scan_s, scan_points),
        "spectral.scan_usable_ratio": _ratio(
            _count(spans, "spectral.scan_resolvent", "usable"), scan_points
        ),
        "spectral.eigen_report_s": _seconds(spans, "spectral.eigen_report"),
        "spectral.kernel_check_s": _seconds(spans, "spectral.kernel_check"),
        "passive_core.verify_passivity_s": _seconds(spans, "passive_core.verify_passivity"),
        "passive_core.coupling_s": coupling_s,
        "passive_core.coupling_per_freq_ms": 1e3 * _ratio(coupling_s, coupling_points),
        "timesim.simulate_s": simulate_s,
        "timesim.per_step_us": 1e6 * _ratio(simulate_s, steps),
        "timesim.initial_data_s": _seconds(
            spans, ("timesim.classical_initial_data", "timesim.default_timestep")
        ),
        "timesim.identity_s": _seconds(spans, "timesim.verify_dissipation_identity"),
        "timesim.decay_fit_s": _seconds(spans, "timesim.fit_decay_rate"),
        **{
            f"cli.check_{name}_s": _seconds(spans, f"cli.Runner.check_{name}")
            for name in RUNNER_CHECKS
        },
        "cli.emit_report_s": _seconds(spans, "cli.emit_report"),
        "cli.runner_self_s": verify_s - math.fsum(_duration(r) for r in children),
        "verify_s": verify_s,
    }
    return times, counts


# -- processes -------------------------------------------------------------------


class NoMeasurement(Exception):
    """Not one child process of the run produced a usable result."""


class RunContext:
    """The work directory, config and child environment of one run."""

    def __init__(self, workload: str, spec: dict, seed: int, trace: bool):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = dict(spec["config"], seed=seed, out_dir="out")
        # out_dir is relative so that report.json (whose config hash covers
        # out_dir) does not depend on where the checkout lives.
        (self.dir / "config.json").write_text(json.dumps(self.config))
        self.env = dict(os.environ)
        # Bytecode is cached, as for an installed package, whatever the
        # caller's shell says, so that setup_s never includes compiling.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        # The library default, one BLAS thread per core, set explicitly so
        # that it is recorded and does not depend on the caller's shell.
        self.blas_threads = str(os.cpu_count())
        self.env["OPENBLAS_NUM_THREADS"] = self.blas_threads
        self.env["OMP_NUM_THREADS"] = self.blas_threads
        self.n_children = 0
        self.errors: list[str] = []

    def child(self, mode: str) -> dict | None:
        """Run one child process; None (with the error kept) if it failed."""
        self.n_children += 1
        tag = f"{mode}-{self.n_children}"
        result_path = self.dir / f"{tag}.json"
        spans_path = self.dir / f"spans-{tag}.json"
        argv = [sys.executable, str(HERE / "child.py"), mode, "config.json", str(result_path)]
        if mode == "trace":
            argv.append(str(spans_path))
        started = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=self.dir, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{tag}: killed after {RUN_LIMIT_S} s")
            return None
        if proc.returncode != 0 or not result_path.is_file():
            self.errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(result_path.read_text())
        result["mode"] = mode
        result["wall_s"] = time.monotonic() - started
        if mode == "trace":
            result["spans"] = json.loads(spans_path.read_text())["spans"]
        return result


def run_processes(ctx: RunContext, seconds: float, trace: bool):
    """Run the child processes of one run, one at a time.

    A first setup process, untimed, compiles the bytecode and records the
    provenance.  Untraced, cycles of ``SETUP_PROBES`` setup processes and
    one verify process repeat while the next cycle is expected to end
    within ``seconds`` (at least one cycle); spreading the setup probes
    over the run exposes them to the same load as the verify processes.
    Traced, traced and untraced verify processes alternate the same way,
    at least traced, untraced, traced, so that the counts of two traced
    processes can be compared and the tracing overhead taken.

    Returns (provenance, verify results, setup results); a verify process
    that failed appears as ``{"mode": ..., "failed": True}``.
    """
    deadline = time.monotonic() + seconds
    warm = ctx.child("setup")
    if warm is None:
        raise NoMeasurement(ctx.errors)
    verifies, setups = [], []
    plan = ["trace", "verify", "trace"] if trace else ["verify"]
    cycle_s = 0.0
    while plan or time.monotonic() + cycle_s <= deadline:
        started = time.monotonic()
        if plan:
            mode = plan.pop(0)
        elif trace:
            mode = "trace" if len(verifies) % 2 == 0 else "verify"
        else:
            mode = "verify"
        for _ in range(0 if trace else SETUP_PROBES):
            probe = ctx.child("setup")
            if probe is not None:
                setups.append(probe)
        result = ctx.child(mode)
        verifies.append(result or {"mode": mode, "failed": True})
        if len(ctx.errors) > 1:
            break
        cycle_s = time.monotonic() - started
    return warm["provenance"], verifies, setups


def summarise(spec: dict, trace: bool, verifies: list[dict], setups: list[dict], errors: list[str]):
    """Output check and metrics of one run: (summary line, details).

    The run is correct when every output matches the record, no child
    process failed and, traced, the counts of all traced processes agree.
    """
    expect = spec["expect"]
    expected_attempted = sum(1 for s in expect["statuses"].values() if s != "not run")
    attempted = failed = 0
    mismatches = []
    for result in verifies:
        if result.get("failed"):
            attempted += expected_attempted
            failed += expected_attempted
            continue
        att, fail, mis = check_outputs(expect, result)
        attempted += len(att)
        failed += len(fail)
        mismatches += [f"{result['mode']}: {m}" for m in mis]
    ok = [r for r in verifies if not r.get("failed")]
    untraced = [r for r in ok if r["mode"] == "verify"]
    details = {
        "fail_share": failed / attempted,
        "mismatches": mismatches,
        "samples": {
            "setup_s": [r["setup_s"] for r in setups + untraced],
            "verify_s": [r["verify_s"] for r in untraced],
            "traced_verify_s": [r["verify_s"] for r in ok if r["mode"] == "trace"],
        },
        "report_sha256": sorted({r["report_sha256"] for r in ok}),
    }
    if not untraced:
        raise NoMeasurement(["no untraced verify process succeeded"])
    if trace:
        traced = [layer_metrics(r["spans"]) for r in ok if r["mode"] == "trace"]
        if len(traced) < 2:
            raise NoMeasurement(["fewer than two traced verify processes succeeded"])
        details["counts_repeat"] = all(counts == traced[0][1] for _, counts in traced)
        if not details["counts_repeat"]:
            mismatches.append("trace counts differ between traced processes")
        values = dict(traced[0][1])
        for key in traced[0][0]:
            values[key] = statistics.median(times[key] for times, _ in traced)
        values["trace_overhead_s"] = values.pop("verify_s") - statistics.median(
            details["samples"]["verify_s"]
        )
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(details["samples"]["setup_s"]),
            "verify_s": statistics.median(details["samples"]["verify_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    summary = {
        "correct": not mismatches and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return summary, details


def run(workload: str, spec: dict, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (summary line, details)."""
    if not (ROOT / "src" / "towerstab" / "__init__.py").is_file():
        raise SourceMissing(f"no towerstab sources under {ROOT / 'src'}")
    ctx = RunContext(workload, spec, seed, trace)
    try:
        provenance, verifies, setups = run_processes(ctx, seconds, trace)
    finally:
        shutil.rmtree(ctx.dir / "out", ignore_errors=True)
    summary, details = summarise(spec, trace, verifies, setups, ctx.errors)
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "config": ctx.config,
        **details,
        "errors": ctx.errors,
        "provenance": dict(
            provenance,
            git_commit=git_commit(ROOT),
            source_sha256=source_sha256(ROOT / "src"),
            cpu_count=os.cpu_count(),
            blas_threads_env=ctx.blas_threads,
            report_sha256=details.pop("report_sha256"),
        ),
    }
    (ctx.dir / "result.json").write_text(json.dumps(dict(details, result=summary), indent=1))
    return summary, details


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, details = run(
            args.workload, workloads[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except NoMeasurement as exc:
        print("perfbench: no usable measurement", *exc.args[0], sep="\n", file=sys.stderr)
        return 1
    for message in details["mismatches"] + details["errors"]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"provenance": details["provenance"]}))
    for name, metric in summary["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_share {details['fail_share']:.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} operations)")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
