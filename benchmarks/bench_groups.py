"""Partitioned scale-out: consensus-group scaling and cross-partition cost.

Three panels around the ``repro.groups`` subsystem (docs/partitioning.md):

* **scaling** — a deterministic virtual-time model of a partitioned
  deployment: every consensus group is a serial ordering pipeline that
  decides one log item per ``DELTA`` time units, and the ordered streams
  feed the *real* :class:`~repro.groups.merge.GroupMerger` via the real
  :class:`~repro.groups.partition.PartitionMap` routing over a real
  :class:`~repro.workload.generator.WorkloadGenerator` stream.  With zero
  cross-partition traffic, G groups order G items per ``DELTA``, so
  throughput should scale with the group count minus key-imbalance; the
  gate requires 4 groups to deliver at least ``SCALING_GATE``x a single
  group.  The model is deliberately sequential-bottleneck-shaped: it
  isolates what partitioning buys (parallel ordering pipelines) from what
  this host cannot show (true multi-core wall clock; see the wall panel).

* **cross** — the same model at 4 groups with 5%/20%/50% of commands
  crossing partitions.  A cross command consumes an ordering slot in
  every involved group *and* holds back every later item of those groups
  until all its markers surface, so throughput must degrade as the
  fraction grows (gated: 50% cross strictly below 0%); the panel also
  records the rendezvous hold-wait distribution (release minus first
  marker arrival, in ``DELTA`` units).

* **wall** — an honest, *ungated* wall-clock sanity panel: a real
  threaded :class:`~repro.smr.cluster.ThreadedCluster` at
  ``ClusterConfig(n_groups=1)`` vs ``n_groups=2`` on this host.  Under one
  CPython GIL on a small box, grouped ordering adds threads rather than
  cores, so no speedup is claimed or asserted —
  the number is recorded so EXPERIMENTS.md can show what the simulation
  abstracts away (see the scaling-panel caveats there).

Run as a pytest benchmark (``pytest benchmarks/bench_groups.py``) or
directly (``python benchmarks/bench_groups.py [--smoke]``).  Results land
in ``benchmarks/results/groups.txt`` and the machine-readable
``BENCH_groups.json``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(__file__))  # conftest when run directly

from conftest import emit

from repro.bench import FigureData
from repro.core.command import Command, MultiKeyedConflicts
from repro.groups.merge import GroupMerger
from repro.groups.messages import Rendezvous, rendezvous_xid
from repro.groups.partition import PartitionMap
from repro.smr.cluster import ClusterConfig, ThreadedCluster
from repro.workload import WorkloadGenerator

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Commands per virtual-time model run.
COMMANDS = 2_000 if SMOKE else (40_000 if FULL else 10_000)
#: Write commands per wall-clock cluster run.
WALL_COMMANDS = 60 if SMOKE else (600 if FULL else 200)
#: Virtual seconds one consensus instance takes (the unit of the model).
DELTA = 1.0
#: 4 groups must beat 1 group by at least this factor at 0% cross.
SCALING_GATE = 2.5
GROUP_COUNTS = (1, 2, 4)
CROSS_FRACTIONS = (0.0, 0.05, 0.20, 0.50)


# ------------------------------------------------------- virtual-time model

def _generator(n_groups: int, cross: float, seed: int = 7,
               key_space: int = 4_096) -> WorkloadGenerator:
    return WorkloadGenerator(
        write_pct=100.0,
        key_space=key_space,
        seed=seed,
        client_id="bench",
        cross_partition_fraction=cross,
        n_partitions=n_groups if cross > 0 else None,
    )


def simulate(n_groups: int, cross: float,
             commands: int = COMMANDS) -> Dict[str, float]:
    """One virtual-time run; real routing + merge, modeled ordering.

    Each group decides its i-th log item at virtual time ``(i+1)*DELTA``
    (serial pipeline, all commands admitted at time zero).  Events are fed
    to one real merger in time order; an emission's release time is the
    event time that produced it, so held markers delay their group's
    backlog exactly as the merge rule dictates.
    """
    conflicts = MultiKeyedConflicts()
    partition_map = PartitionMap(conflicts, n_groups)
    generator = _generator(n_groups, cross)
    logs: List[List[object]] = [[] for _ in range(n_groups)]
    first_arrival: Dict[str, float] = {}
    n_cross = 0
    for command in generator.commands(commands):
        groups = partition_map.groups_of(command)
        if len(groups) == 1:
            logs[groups[0]].append(command)
            continue
        n_cross += 1
        marker = Rendezvous(rendezvous_xid(command), groups, command)
        for group in groups:
            logs[group].append(marker)

    events: List[Tuple[float, int, int, object]] = []
    seq = 0
    for group, log in enumerate(logs):
        for index, item in enumerate(log):
            events.append(((index + 1) * DELTA, seq, group, item))
            seq += 1
    events.sort()

    merger = GroupMerger(n_groups, conflicts=conflicts)
    released = 0
    makespan = 0.0
    waits: List[float] = []
    for now, _seq, group, item in events:
        if isinstance(item, Rendezvous):
            first_arrival.setdefault(item.xid, now)
        for emission in merger.offer(group, item):
            released += 1
            makespan = now
            if emission.xid is not None:
                waits.append(now - first_arrival[emission.xid])
    assert merger.idle(), "model run left unreleased items"
    assert released == commands, (released, commands)

    waits.sort()
    longest = max(len(log) for log in logs)
    return {
        "groups": n_groups,
        "cross_fraction": cross,
        "commands": commands,
        "cross_commands": n_cross,
        "makespan": makespan,
        "throughput": commands / makespan,
        "longest_log": longest,
        "hold_wait_mean": (sum(waits) / len(waits)) if waits else 0.0,
        "hold_wait_p95": waits[int(len(waits) * 0.95)] if waits else 0.0,
        "hold_wait_max": waits[-1] if waits else 0.0,
    }


def measure_scaling() -> Dict[str, object]:
    runs = {groups: simulate(groups, 0.0) for groups in GROUP_COUNTS}
    return {
        "runs": {str(groups): run for groups, run in runs.items()},
        "speedup_4_over_1": runs[4]["throughput"] / runs[1]["throughput"],
    }


def measure_cross() -> Dict[str, object]:
    runs = {cross: simulate(4, cross) for cross in CROSS_FRACTIONS}
    return {
        "runs": {f"{cross:.2f}": run for cross, run in runs.items()},
        "degradation_50": (runs[0.50]["throughput"]
                           / runs[0.0]["throughput"]),
    }


# ------------------------------------------------------------- wall clock

def _wall_run(n_groups: int) -> Dict[str, float]:
    config = ClusterConfig(
        n_groups=n_groups,
        n_replicas=3,
        service="linked-list-keyed",
        lease_reads=False,
    )
    # Keys enumerate the space directly; stable_hash spreads them evenly
    # over the groups, so both runs order the same single-partition load.
    commands = [Command("add", (key,), client_id=None, writes=True)
                for key in range(WALL_COMMANDS)]
    with ThreadedCluster(config) as cluster:
        client = cluster.client()
        begun = time.perf_counter()
        for start in range(0, len(commands), 10):
            client.execute_batch(commands[start:start + 10])
        elapsed = time.perf_counter() - begun
        assert cluster.wait_converged(len(commands), timeout=20.0)
    return {
        "groups": n_groups,
        "commands": len(commands),
        "seconds": elapsed,
        "throughput": len(commands) / elapsed,
    }


def measure_wall() -> Dict[str, object]:
    runs = {groups: _wall_run(groups) for groups in (1, 2)}
    return {
        "runs": {str(groups): run for groups, run in runs.items()},
        "speedup_2_over_1": runs[2]["throughput"] / runs[1]["throughput"],
        "cpus": os.cpu_count(),
    }


# ------------------------------------------------------------------ figure

def groups_figure() -> FigureData:
    figure = FigureData(
        name="groups",
        title="Partitioned SMR: group scaling and cross-partition cost",
        x_label="groups (scaling) / cross fraction (cross)",
        y_label="throughput (model: cmds per DELTA; wall: cmds/s)",
    )
    scaling = measure_scaling()
    cross = measure_cross()
    wall = measure_wall()
    for groups in GROUP_COUNTS:
        figure.add_point("scaling", "model", groups,
                         scaling["runs"][str(groups)]["throughput"])
    for fraction in CROSS_FRACTIONS:
        run = cross["runs"][f"{fraction:.2f}"]
        figure.add_point("cross", "throughput", fraction, run["throughput"])
        figure.add_point("cross", "hold-wait-mean", fraction,
                         run["hold_wait_mean"])
    for groups in (1, 2):
        figure.add_point("wall", "threaded-1cpu", groups,
                         wall["runs"][str(groups)]["throughput"])
    figure.extra = {
        "scaling": scaling,
        "cross": cross,
        "wall": wall,
        "smoke": SMOKE,
        "gates": {"scaling_4_over_1": SCALING_GATE,
                  "cross_50_must_degrade": True},
    }
    return figure


def _check_gate(figure: FigureData) -> None:
    scaling = figure.extra["scaling"]
    cross = figure.extra["cross"]
    wall = figure.extra["wall"]
    print(f"[groups] model scaling 4g/1g: "
          f"{scaling['speedup_4_over_1']:.2f}x (gate {SCALING_GATE}x); "
          f"throughput at 50% cross is "
          f"{cross['degradation_50']:.2f}x the 0% baseline; "
          f"wall-clock 2g/1g on {wall['cpus']} cpu(s): "
          f"{wall['speedup_2_over_1']:.2f}x (recorded, not gated)")
    # The model is deterministic (virtual clock, seeded workload): both
    # gates run at full strength even in smoke.
    assert scaling["speedup_4_over_1"] >= SCALING_GATE, (
        f"4 groups deliver only {scaling['speedup_4_over_1']:.2f}x one "
        f"group at 0% cross; the gate is {SCALING_GATE}x")
    assert cross["degradation_50"] < 1.0, (
        f"50% cross-partition traffic did not degrade throughput "
        f"({cross['degradation_50']:.2f}x the 0% baseline)")


def test_groups(benchmark):
    figure = benchmark.pedantic(groups_figure, rounds=1, iterations=1)
    emit(figure)
    _check_gate(figure)


def main() -> int:
    global SMOKE, COMMANDS, WALL_COMMANDS
    if "--smoke" in sys.argv[1:]:
        SMOKE, COMMANDS, WALL_COMMANDS = True, 2_000, 60
    figure = groups_figure()
    emit(figure)
    _check_gate(figure)
    return 0


if __name__ == "__main__":
    sys.exit(main())
