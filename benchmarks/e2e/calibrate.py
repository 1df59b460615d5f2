#!/usr/bin/env python3
"""Calibrate the benchmark: back-to-back runs, spread per metric x workload.

    python3 benchmarks/e2e/calibrate.py --runs 10 --out results/baseline.json

runs ``run.py`` the way the driver does (one process per run, a different
``--seed`` each time), untraced and traced, and records for every metric of
every workload its values, median, quartiles and spread (distance between
the first and third quartile of ``statistics.quantiles(values, n=4)`` as a
share of the median).  An end-to-end metric is fit to gate on only while
its spread stays well inside its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from run import provenance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Candidates for an end-to-end bound that calibration showed cannot hold
#: the bound planned for them (the spread to expect is above it); reported
#: per-layer (ungated) instead.  README.md, "Calibration".
DEMOTED = {
    "throughput_cps": "client.throughput_cps, planned bound 0.10",
    "cpu_us_per_cmd": "proc.cpu_us_per_cmd, planned bound 0.05",
    "bottleneck_cpu_us_per_cmd":
        "proc.bottleneck_cpu_us_per_cmd, planned bound 0.07",
    "lat_p50_ms": "client.lat_p50_ms, planned bound 0.15",
    "lat_p99_ms": "client.lat_p99_ms, planned bound 0.30 (more than the "
                  "0.25 a bound may be)",
    "failed_frac": "failed_frac: 0 on every healthy run, so a bound relative "
                   "to the parent's median is undefined; also on every "
                   "result line as attempted/failed",
}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    began = time.monotonic()
    details = HERE / ".work" / "calibrate-run.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(details)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited "
            f"{done.returncode}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - began
    # The demoted candidates' full-length untraced values ride along.
    diagnostics = json.loads(details.read_text())[0]["diagnostics"]
    result["ungated"] = diagnostics.get("ungated", {})
    details.unlink()
    return result


def summarize(values: List[float]) -> Dict[str, Any]:
    median = statistics.median(values)
    summary: Dict[str, Any] = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3,
                       spread=(q3 - q1) / abs(median) if median else None)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(HERE / "results" / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    report: Dict[str, Any] = {
        "provenance": {
            **provenance(), "run_seconds": seconds, "runs": args.runs,
            "seeds": list(range(1, args.runs + 1)),
        },
        "demoted": DEMOTED,
        "workloads": {},
    }
    for workload in workloads:
        entry: Dict[str, Any] = {"loadavg_before": list(os.getloadavg())}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = [one_run(workload, 1 + index, seconds, trace)
                       for index in range(args.runs)]
            entry[key] = {
                name: summarize([r["metrics"][name]["value"] for r in results])
                | {"unit": results[0]["metrics"][name]["unit"]}
                for name in results[0]["metrics"]}
            if trace == 0:
                entry["ungated_untraced"] = {
                    name: summarize([r["ungated"][name] for r in results])
                    for name in results[0]["ungated"]}
                for name, summary in entry["ungated_untraced"].items():
                    print(f"{workload:15s} ({name + ')':35s} median "
                          f"{summary['median']:12.4f}  spread "
                          f"{round(summary['spread'], 4)}", flush=True)
            entry[f"{key}_runs"] = {
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "wall_s": [round(r["wall_s"], 2) for r in results],
            }
            for name, summary in entry[key].items():
                flag = ""
                if trace == 0 and summary.get("spread") is not None:
                    summary["bound"] = bounds[name]
                    if summary["spread"] > bounds[name] / 3:
                        flag = "  <-- above a third of its bound"
                spread = summary.get("spread")
                print(f"{workload:15s} {name:36s} median {summary['median']:12.4f}"
                      f"  spread {spread if spread is None else round(spread, 4)}"
                      f"{flag}", flush=True)
        report["workloads"][workload] = entry
    report["provenance"]["loadavg_end"] = list(os.getloadavg())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
