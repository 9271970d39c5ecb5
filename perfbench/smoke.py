"""Smoke test of the benchmark on a tiny config; finishes in seconds.

Usage, from the root of the checkout::

    python3 perfbench/smoke.py

Runs the untraced and the traced measurement on a four-element damper
model and asserts that every metric of ``BENCHMARK.json`` is emitted with
its unit, that the output check runs and can fail, and that two traced
processes give identical counts.  Exits 0 on success.
"""

from __future__ import annotations

import copy
import json
import sys

import run

TINY = {
    "config": {"model": "tmd", "n_elements": 4, "T": 0.5, "k_modes": 4, "n_points": 20},
    "expect": {
        "statuses": {
            "dissipativity": "pass", "passivity": "pass", "transfer_cross_validation": "pass",
            "conditions": "pass", "spectrum": "pass", "scan": "pass", "kernel": "pass",
            "routh_hurwitz": "pass", "coupling_bound": "pass", "dissipation_identity": "pass",
            "decay": "pass", "hydraulic_positivity": "not run",
        },
        "values": {"spectrum.eigenvalue_count": {"value": 18, "tol": 0}},
    },
}


def metric_units(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted_units(summary: dict) -> dict:
    return {name: metric["unit"] for name, metric in summary["metrics"].items()}


def require(condition: bool, detail) -> None:
    if not condition:
        raise AssertionError(detail)


def main() -> int:
    summary, details = run.run("smoke", TINY, seed=0, seconds=0.1, trace=False)
    require(summary["correct"], details["mismatches"] + details["errors"])
    require(summary["attempted"] >= 11 and summary["failed"] == 0, summary)
    require(emitted_units(summary) == metric_units("end_to_end"), summary["metrics"])
    require(all(m["value"] > 0 for m in summary["metrics"].values()), summary["metrics"])
    require(len(details["provenance"]["report_sha256"]) == 1, details["provenance"])

    wrong = copy.deepcopy(TINY)
    wrong["expect"]["values"]["spectrum.eigenvalue_count"]["value"] = 17
    summary, details = run.run("smoke", wrong, seed=0, seconds=0.1, trace=False)
    require(not summary["correct"] and summary["failed"] >= 1, summary)
    require(any("spectrum.eigenvalue_count" in m for m in details["mismatches"]), details)

    summary, details = run.run("smoke", TINY, seed=0, seconds=0.1, trace=True)
    require(summary["correct"] and details["counts_repeat"], details)
    require(emitted_units(summary) == metric_units("per_layer"), summary["metrics"])
    metrics = summary["metrics"]
    require(metrics["timesim.steps"]["value"] > 0, metrics)
    require(metrics["spectral.resolvent_norm_calls"]["value"] > 0, metrics)
    print("perfbench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
