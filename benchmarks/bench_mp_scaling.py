"""Throughput-vs-workers curve for the multiprocess execution engine.

The experiment behind the repo's "true multi-core speedup" claim
(docs/parallel_execution.md): one replica executes the paper's 0%-write
linked-list workload on the ``mp`` engine at increasing shard counts,
against the ``threaded`` engine as the GIL-bound baseline.  On a
multi-core host the mp curve rises with workers while the threaded curve
stays flat; on a single-CPU host both are flat and the mp engine only
pays IPC overhead, so the speedup assertion is guarded on
``os.cpu_count()``.

Run as a pytest benchmark (``pytest benchmarks/bench_mp_scaling.py``) or
directly (``python benchmarks/bench_mp_scaling.py [--smoke]``).  Results
land in ``benchmarks/results/mp_scaling.txt`` and the machine-readable
``BENCH_mp_scaling.json``.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(__file__))  # conftest when run directly

from conftest import emit

from repro.apps import build_service
from repro.bench import FigureData
from repro.obs.registry import MetricsRegistry
from repro.par import MpService
from repro.smr.replica import ParallelReplica
from repro.workload import WorkloadGenerator

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Shard counts swept for the mp curve (thread counts for the baseline).
WORKER_COUNTS = [1, 2] if SMOKE else ([1, 2, 4, 8] if FULL else [1, 2, 4])
#: Each command walks a list this long on average half-way — real CPU work.
KEY_SPACE = 500 if SMOKE else 4_000
MEASURE_OPS = 300 if SMOKE else 2_000
WARM_OPS = 50 if SMOKE else 200
#: Commands per ``on_deliver`` call: one atomic-broadcast instance.
DELIVER_BATCH = 32
TIMEOUT = 120.0

#: Measured series (engines): the threaded baseline, and the mp engine,
#: which ships each same-shard batch the replica drains from the COS ready
#: set in one pickle and one queue wakeup.
SERIES = ("threaded", "mp")


def run_point(engine: str, workers: int) -> dict:
    """Execute the workload on one replica and time it on the wall clock.

    A feeder thread plays the atomic broadcast: ordered ``on_deliver``
    calls of ``DELIVER_BATCH`` commands, paced by COS backpressure as in
    a real replica.  The window runs from the ``WARM_OPS``-th response to
    the last one, both stamped by the replica's response callback.
    """
    registry = MetricsRegistry()
    total = WARM_OPS + MEASURE_OPS
    commands = WorkloadGenerator(
        0.0, key_space=KEY_SPACE, seed=1).commands(total)
    service_kwargs = {"initial_size": KEY_SPACE}
    engine_service = None
    if engine == "mp":
        engine_service = MpService("linked-list", service_kwargs,
                                   workers=workers, registry=registry)
        service = engine_service.start()
    else:
        service = build_service("linked-list", **service_kwargs)
    responses = itertools.count(1)
    stamps = {}
    done = threading.Event()

    def on_response(command, response, replica_id) -> None:
        count = next(responses)
        if count in (WARM_OPS, total):
            stamps[count] = time.perf_counter()
        if count == total:
            done.set()

    replica = ParallelReplica(0, service, workers=workers,
                              registry=registry, on_response=on_response)

    def feeder() -> None:
        for offset in range(0, total, DELIVER_BATCH):
            replica.on_deliver(offset, commands[offset:offset + DELIVER_BATCH])

    replica.start()
    feeder_thread = threading.Thread(target=feeder, name="mp-bench-feeder",
                                     daemon=True)
    feeder_thread.start()
    try:
        if not done.wait(TIMEOUT):
            raise TimeoutError(f"{engine} executed only {replica.executed}/"
                               f"{total} commands within {TIMEOUT}s")
        feeder_thread.join(5.0)
    finally:
        replica.stop()
        if engine_service is not None:
            engine_service.stop()

    duration = stamps[total] - stamps[WARM_OPS]
    dispatch = registry.histogram("mp_dispatch_seconds")
    return {
        "engine": engine,
        "workers": workers,
        "throughput": MEASURE_OPS / duration,
        "dispatch_p50": dispatch.quantile(0.50),
        "dispatch_p99": dispatch.quantile(0.99),
        # Fraction of the window each shard spent executing; a sum above
        # 1.0 is the engine using more than one core.
        "shard_busy": [
            registry.histogram("mp_shard_busy_seconds", shard=str(shard)).sum
            / duration
            for shard in range(workers if engine == "mp" else 0)],
        "barrier_rounds": int(
            registry.counter("mp_barrier_rounds_total").value),
    }


def mp_scaling() -> FigureData:
    figure = FigureData(
        name="mp_scaling",
        title="Multiprocess engine: throughput vs workers "
              "(0% writes, linked list)",
        x_label="workers",
        y_label="cmds/s",
    )
    points = []
    for engine in SERIES:
        for workers in WORKER_COUNTS:
            point = run_point(engine, workers)
            points.append(point)
            figure.add_point("wall-clock", engine, workers,
                             point["throughput"])
    figure.extra = {
        "points": points,
        "worker_counts": WORKER_COUNTS,
        "key_space": KEY_SPACE,
        "measure_ops": MEASURE_OPS,
        "smoke": SMOKE,
    }
    return figure


def _check_scaling(figure: FigureData) -> None:
    mp_points = dict(figure.panels["wall-clock"]["mp"])
    low, high = min(mp_points), max(mp_points)
    cores = os.cpu_count() or 1
    if cores >= 4 and high >= 4 and not SMOKE:
        # The tentpole claim, only checkable on real cores: >1.5x speedup
        # from 1 to 4+ shard processes on the read-only workload.
        speedup = mp_points[high] / mp_points[low]
        assert speedup > 1.5, (
            f"mp engine speedup {speedup:.2f}x from {low} to {high} workers "
            f"on a {cores}-core host; expected > 1.5x")
    else:
        print(f"[mp_scaling] speedup assertion skipped "
              f"(cpu_count={cores}, max_workers={high}, smoke={SMOKE})")


def test_mp_scaling(benchmark):
    figure = benchmark.pedantic(mp_scaling, rounds=1, iterations=1)
    emit(figure)
    _check_scaling(figure)
    # Engine sanity holds on any host: every configured point measured.
    assert len(figure.panels["wall-clock"]["mp"]) == \
        len(WORKER_COUNTS)


def main() -> int:
    global SMOKE, WORKER_COUNTS, KEY_SPACE, MEASURE_OPS, WARM_OPS
    if "--smoke" in sys.argv[1:]:
        SMOKE = True
        WORKER_COUNTS = [1, 2]
        KEY_SPACE, MEASURE_OPS, WARM_OPS = 500, 300, 50
    figure = mp_scaling()
    emit(figure)
    _check_scaling(figure)
    return 0


if __name__ == "__main__":
    sys.exit(main())
