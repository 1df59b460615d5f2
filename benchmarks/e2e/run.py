#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the replicated state machine.

    python3 benchmarks/e2e/run.py --workload smr-mixed --seed 1 \\
        --seconds 28 --trace 0

runs one workload (or, with ``--workload all``, each in turn) against the
real deployment, checks the outputs, prints every metric by name with its
unit, and ends with one JSON result line per workload:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
workload with metric endpoints on and benchmark-side spans recording, runs
the layer probes, and reports the per-layer metrics instead.  See
README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# ``repro`` is not installed; a checkout keeps it under src/.
sys.path.insert(0, str(HERE.parents[1] / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import cached_property  # noqa: E402
from statistics import median  # noqa: E402
from typing import Any, Dict, Iterable, List, Optional, Tuple  # noqa: E402

from deploy import SmrDeployment  # noqa: E402
from loadgen import Record, SliceClock, phase_stats  # noqa: E402
from probes import ScrapeDelta, run_probes  # noqa: E402
from standalone import StandaloneDeployment  # noqa: E402
from workloads import SLICES, WORKERS, WORKLOADS, Workload  # noqa: E402

#: The contract at the repository root names every metric and its unit.
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Shape:
    """How long and how finely one run measures."""

    #: Measured seconds, split evenly between the saturated and paced phase.
    seconds: float
    #: Slices per phase; a wall-clock metric is the median of its slices.
    slices: int = SLICES
    warmup: float = 1.5
    #: Times the cluster is set up; ``setup_s`` is the median (the first
    #: set-up of a run is up to twice as slow as the rest).  The in-process
    #: replica sets up in ~2 ms, so it repeats 5x as often.
    setup_repeats: int = 5


#: ``--smoke``: one 2 s slice per phase, one set-up — a CI-sized check.
SMOKE = Shape(seconds=4.0, slices=1, warmup=0.5, setup_repeats=1)


class Phase:
    """One measured phase: its slice clock, records and per-slice figures."""

    def __init__(self, clock: SliceClock, records: Iterable[Record],
                 send_costs: List[float]):
        self.clock = clock
        self.send_costs = send_costs
        self._records = records

    @cached_property
    def stats(self) -> Dict[str, List[float]]:
        # On first use, which is after the run has read its peak memory:
        # the in-process replica shares its process with these lists.
        return phase_stats(self._records, self.clock)

    def throughput(self) -> List[float]:
        return [done / seconds for done, seconds
                in zip(self.stats["completed"], self.stats["seconds"])]

    def cpu_us_per_cmd(self, processes: Optional[List[str]] = None,
                       busiest: bool = False) -> List[float]:
        """Per slice: CPU the chosen processes burnt per completed command."""
        samples = self.clock.samples
        values = []
        for k, done in enumerate(self.stats["completed"]):
            burnt = [samples[k + 1][name] - samples[k][name]
                     for name in (processes or samples[k])]
            cpu = max(burnt) if busiest else sum(burnt)
            values.append(cpu / max(done, 1.0) * 1e6)
        return values


def make_deployment(workload: Workload, seed: int, workdir: Path,
                    traced: bool):
    if workload.standalone:
        return StandaloneDeployment(workload, seed, traced)
    return SmrDeployment(workload, seed, workdir, traced)


def warm_up(deployment, shape: Shape) -> None:
    deployment.run_closed(shape.warmup, 1, deployment.cpu_sample)
    deployment.take_records()


def saturate(deployment, shape: Shape, seconds: float) -> Phase:
    """Closed loop: as many commands as the deployment will take."""
    clock = deployment.run_closed(
        seconds, shape.slices, deployment.cpu_sample)
    return Phase(clock, *deployment.take_records())


def pace(deployment, workload: Workload, shape: Shape,
         seconds: float) -> Phase:
    """Open loop at the workload's fixed rate."""
    clock = deployment.run_paced(
        workload.paced_rate, seconds, shape.slices, deployment.cpu_sample)
    return Phase(clock, *deployment.take_records())


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def book(self, deployment) -> None:
        """Verify the deployment's outputs and add up its request counts."""
        deployment.verify()
        self.attempted += deployment.attempted
        self.failed += deployment.failed


def run_untraced(workload: Workload, seed: int, shape: Shape,
                 workdir: Path) -> Outcome:
    outcome = Outcome()
    setups = []
    repeats = shape.setup_repeats * (5 if workload.standalone else 1)
    deployment = None
    try:
        for _ in range(repeats):
            if deployment is not None:
                deployment.stop()
            deployment = make_deployment(workload, seed, workdir, traced=False)
            setups.append(deployment.start())
        warm_up(deployment, shape)
        sat = saturate(deployment, shape, shape.seconds / 2)
        paced = pace(deployment, workload, shape, shape.seconds / 2)
        outcome.book(deployment)
        rss_mb = deployment.rss_mb()
    finally:
        if deployment is not None:
            deployment.stop()
    outcome.metrics = {"rss_mb": rss_mb, "setup_s": median(setups)}
    outcome.diagnostics.update({
        # Every timing is too unsteady on a shared machine to hold the bound
        # planned for it (README, Calibration).  The traced run reports them
        # per-layer as client.throughput_cps, proc.cpu_us_per_cmd,
        # proc.bottleneck_cpu_us_per_cmd, client.lat_p50_ms / lat_p99_ms;
        # these are the full-length, untraced values.
        "ungated": {
            "throughput_cps": median(sat.throughput()),
            "cpu_us_per_cmd": median(sat.cpu_us_per_cmd()),
            "bottleneck_cpu_us_per_cmd":
                median(sat.cpu_us_per_cmd(busiest=True)),
            "lat_p50_ms": median(paced.stats["lat_p50"]) * 1e3,
            "lat_p99_ms": median(paced.stats["lat_p99"]) * 1e3,
        },
        "setup_s_each": setups,
        "sat": sat.stats, "paced": paced.stats,
        "sat_cpu_us_per_cmd": sat.cpu_us_per_cmd(),
        "paced_cpu_us_per_cmd": paced.cpu_us_per_cmd(),
        "paced_late_p99_ms": median(paced.stats["late_p99"]) * 1e3,
    })
    return outcome


def layer_metrics(workload: Workload, sat: Phase, paced: Phase,
                  scrapes: List[List[Dict[str, Any]]]) -> Dict[str, float]:
    """Scraped and span-derived per-layer figures of the traced run.

    Per-command ratios cover the saturated phase, as the end-to-end CPU
    figures do; replica-side series are read at the contact replica (0).
    """
    delta = ScrapeDelta(scrapes[0], scrapes[1])
    commands = max(sum(sat.stats["completed"]), 1.0)
    seconds = sum(sat.stats["seconds"])
    inserts = delta.count("cos_inserts_total", [0])
    gets = delta.count("cos_gets_total", [0])
    instances = delta.count("paxos_batch_fill", [0], "count")
    decided = delta.count("paxos_decided_total", [0])
    metrics = {
        "transport.frames_per_cmd":
            delta.count("net_frames_sent_total") / commands,
        "transport.bytes_per_cmd":
            delta.count("net_bytes_sent_total") / commands,
        "transport.outbox_drops": delta.count("net_outbox_drops_total"),
        "transport.reconnects": delta.count("net_reconnects_total"),
        "ordering.msgs_per_decide":
            delta.count("paxos_msgs_total") / decided if decided else 0.0,
        "ordering.cmds_per_instance":
            delta.count("paxos_batch_fill", [0], "sum") / instances
            if instances else 0.0,
        "ordering.lease_read_frac":
            delta.count("paxos_lease_reads_total", [0]) / commands,
        "cos.inserts_per_cmd": inserts / commands,
        "cos.insert_visits_per_insert":
            delta.count("cos_insert_visits_total", [0]) / inserts
            if inserts else 0.0,
        "cos.cas_retries_per_kcmd":
            delta.count("cos_cas_retries_total", [0]) / commands * 1e3,
        "cos.space_wait_ms_per_cmd":
            delta.count("cos_space_wait_seconds", [0], "sum")
            / commands * 1e3,
        "cos.ready_wait_ms_per_get":
            delta.count("cos_ready_wait_seconds", [0], "sum") / gets * 1e3
            if gets else 0.0,
        "replica.insert_p50_us":
            delta.quantile("replica_insert_seconds", 0, 0.5) * 1e6,
        "replica.worker_busy_frac":
            delta.count("worker_busy_seconds", [0], "sum")
            / (WORKERS * seconds),
        "loadgen.late_p99_ms": median(paced.stats["late_p99"]) * 1e3,
        "client.wait_p50_ms": median(paced.stats["wait_p50"]) * 1e3,
        "client.lat_p50_ms": median(paced.stats["lat_p50"]) * 1e3,
        "client.lat_p99_ms": median(paced.stats["lat_p99"]) * 1e3,
        "client.throughput_cps": median(sat.throughput()),
        "client.send_us_per_req":
            median(paced.send_costs) * 1e6 if paced.send_costs else 0.0,
        "proc.cpu_us_per_cmd": median(sat.cpu_us_per_cmd()),
        "proc.bottleneck_cpu_us_per_cmd":
            median(sat.cpu_us_per_cmd(busiest=True)),
    }
    if workload.standalone:
        # One process: the generator and the "leader" are the same CPU.
        metrics["loadgen.cpu_us_per_cmd"] = 0.0
        metrics["proc.leader_cpu_us_per_cmd"] = median(sat.cpu_us_per_cmd())
        metrics["proc.follower_cpu_us_per_cmd"] = 0.0
    else:
        metrics["loadgen.cpu_us_per_cmd"] = median(
            sat.cpu_us_per_cmd(["loadgen"]))
        metrics["proc.leader_cpu_us_per_cmd"] = median(
            sat.cpu_us_per_cmd(["replica0"]))
        metrics["proc.follower_cpu_us_per_cmd"] = median(
            sat.cpu_us_per_cmd(["replica1", "replica2"])) / 2
    return metrics


def run_traced(workload: Workload, seed: int, shape: Shape,
               workdir: Path) -> Outcome:
    """Half-length slices, metric endpoints on, spans recording, probes.

    A half-length untraced closed loop runs first, on a deployment of its
    own: ``trace.overhead_frac`` compares the two throughputs.
    """
    outcome = Outcome()
    phase_seconds = shape.seconds / 4
    reference = make_deployment(workload, seed, workdir, traced=False)
    try:
        reference.start()
        warm_up(reference, shape)
        untraced = saturate(reference, shape, phase_seconds)
        outcome.book(reference)
    finally:
        reference.stop()
    deployment = make_deployment(workload, seed, workdir, traced=True)
    try:
        deployment.start()
        warm_up(deployment, shape)
        scrapes = [deployment.scrape()]
        sat = saturate(deployment, shape, phase_seconds)
        scrapes.append(deployment.scrape())
        paced = pace(deployment, workload, shape, phase_seconds)
        outcome.book(deployment)
    finally:
        deployment.stop()
    metrics = layer_metrics(workload, sat, paced, scrapes)
    metrics.update(run_probes(workload, seed))
    # Only the layers the workload's median command crosses: nothing is on
    # the wire standalone, and a leased read (the median command unless
    # most are writes) is never ordered.
    layers_us = metrics["replica.deliver_to_response_p50_us"]
    if not workload.standalone:
        layers_us += (metrics["client.send_us_per_req"]
                      + metrics["transport.rtt_p50_us"])
        if workload.write_pct > 50.0:
            layers_us += metrics["ordering.submit_to_deliver_p50_us"]
    layers_ms = layers_us / 1e3
    metrics["budget.layers_sum_p50_ms"] = layers_ms
    metrics["budget.unexplained_frac"] = (
        1.0 - layers_ms / metrics["client.lat_p50_ms"])
    metrics["trace.overhead_frac"] = 1.0 - (
        median(sat.throughput()) / median(untraced.throughput()))
    metrics["failed_frac"] = outcome.failed / outcome.attempted
    outcome.metrics = metrics
    outcome.diagnostics.update({
        "sat": sat.stats, "paced": paced.stats,
        "throughput_cps_traced": median(sat.throughput()),
        "throughput_cps_untraced": median(untraced.throughput()),
    })
    return outcome


def provenance() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def run_workload(workload: Workload, seed: int, shape: Shape, traced: bool,
                 workdir: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns (result line, diagnostics)."""
    before = provenance()
    runner = run_traced if traced else run_untraced
    outcome = runner(workload, seed, shape, workdir)
    units = PER_LAYER if traced else END_TO_END
    missing = set(units) ^ set(outcome.metrics)
    if missing:
        raise RuntimeError(f"metric names out of step: {sorted(missing)}")
    for name, unit in units.items():
        print(f"{workload.name:15s} {name:36s} "
              f"{outcome.metrics[name]:14.4f} {unit}")
    extras = "".join(
        f" {name}={value:.3f}"
        for name, value in outcome.diagnostics.get("ungated", {}).items())
    print(f"# {workload.name}: attempted={outcome.attempted} "
          f"failed={outcome.failed} loadavg={before['loadavg'][0]:.2f}"
          f"{extras}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    diagnostics = {"workload": workload.name, "seed": seed,
                   "seconds": shape.seconds, "traced": traced,
                   "provenance": before, **outcome.diagnostics}
    return result, diagnostics


def _interrupt(signum: int, frame: Any) -> None:
    # Unwind through the ``finally`` blocks that reap replica processes.
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measured seconds per run, split evenly "
                             "between the saturated and the paced phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run, per-layer metrics and probes")
    parser.add_argument("--smoke", action="store_true",
                        help="one 2 s slice per phase (CI check)")
    parser.add_argument("--out", help="write results and diagnostics here")
    args = parser.parse_args(argv)
    shape = SMOKE if args.smoke else Shape(seconds=args.seconds)
    if shape.seconds < 2.0:
        parser.error("--seconds must be at least 2")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    # Everything the run writes (replica logs, the supervisor's config
    # file) stays inside the checkout and is removed at exit.
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    tempfile.tempdir = str(workdir)
    report = []
    all_correct = True
    try:
        for name in names:
            result, diagnostics = run_workload(
                WORKLOADS[name], args.seed, shape, bool(args.trace),
                workdir)
            all_correct = all_correct and result["correct"]
            report.append({"result": result, "diagnostics": diagnostics})
            print(json.dumps(result))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
