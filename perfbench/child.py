"""One fresh process of the benchmark: set up, optionally verify, report.

Usage: ``python3 child.py MODE CONFIG RESULT [SPANS]`` with MODE one of

* ``setup``: import towerstab, validate the config and build ``Runner``;
* ``verify``: the same, then ``run_all()`` and ``emit_report`` exactly as
  ``towerstab verify-all`` does;
* ``trace``: ``verify`` with every layer wrapped by ``layertrace``; the
  spans go to SPANS.

The result (timings, statuses, reference values, report hash, provenance)
is written as JSON to RESULT.  The timer starts before ``import towerstab``,
so ``setup_s`` covers the import, config validation and generator assembly.
"""

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext

T_START = time.perf_counter()

import towerstab  # noqa: E402
import towerstab.cli as cli  # noqa: E402


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return out
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[path.rsplit("/", 1)[-1]] = fn()
                break
    return out


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    def blas(mod) -> dict:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "toolkit_version": towerstab.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_loaded": _openblas_threads(),
    }


def reference_values(runner) -> dict:
    """Physics values the output check compares with the recorded ones."""
    values = {}
    for check in runner.results:
        for key in ("asymptotic_slope", "max_ratio", "alpha_fit", "slope"):
            if key in check.evidence:
                values[f"{check.name}.{key}"] = check.evidence[key]
    if runner.spectrum is not None:
        values["spectrum.eigenvalue_count"] = int(runner.spectrum.eigenvalues.size)
    if runner.trajectory is not None:
        energies = runner.trajectory.energies
        values["dissipation_identity.final_energy_ratio"] = float(energies[-1] / energies[0])
    return values


def main(argv: list[str]) -> int:
    mode, config_path, result_path = argv[:3]
    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if mode == "trace":
        import layertrace

        tracer = layertrace.Tracer(run_id=argv[3].rsplit("/", 1)[-1].removesuffix(".json"))
        layertrace.install(tracer)
        span = tracer.span
    with span("setup"):
        # Calls go through the module so that the traced bindings are used.
        cfg = cli.load_config(config_path, {})
        runner = cli.Runner(cfg)
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - T_START}
    if mode == "setup":
        result["provenance"] = provenance()
    else:
        with span("verify"):
            report = runner.run_all()
            written = cli.emit_report(report, cfg.out_dir, runner)
        t_verify = time.perf_counter()
        result.update(
            verify_s=t_verify - t_setup,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            statuses={c.name: c.status for c in report.checks},
            values=reference_values(runner),
            report_sha256=hashlib.sha256(written[0].read_bytes()).hexdigest(),
            artifact_bytes=sum(p.stat().st_size for p in written),
        )
        if tracer is not None:
            tracer.dump(argv[3])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
