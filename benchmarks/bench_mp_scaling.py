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

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))  # conftest when run directly

from conftest import emit

from repro.bench import FigureData
from repro.par.bench import MpBenchConfig, run_mp_bench

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Shard counts swept for the mp curve (thread counts for the baseline).
WORKER_COUNTS = [1, 2] if SMOKE else ([1, 2, 4, 8] if FULL else [1, 2, 4])
#: Each command walks a list this long on average half-way — real CPU work.
KEY_SPACE = 500 if SMOKE else 4_000
MEASURE_OPS = 300 if SMOKE else 2_000
WARM_OPS = 50 if SMOKE else 200


#: Measured series: the threaded baseline plus the mp engine with batched
#: dispatch (ParallelReplica's default drain of the COS ready set — one
#: pickle and one queue wakeup per same-shard batch) and with batching
#: disabled (``dispatch_batch=1`` — one IPC round trip per command, the
#: pre-batching behavior).
SERIES = (
    ("threaded", "threaded", None),
    ("mp-batched", "mp", None),
    ("mp-unbatched", "mp", 1),
)


def _point(label: str, engine: str, workers: int, dispatch_batch) -> dict:
    config = MpBenchConfig(
        engine=engine,
        mp_workers=workers,
        workers=workers if engine == "threaded" else 2 * workers,
        write_pct=0.0,              # the paper's best-scaling workload
        key_space=KEY_SPACE,
        warm_ops=WARM_OPS,
        measure_ops=MEASURE_OPS,
        dispatch_batch=dispatch_batch,
    )
    result = run_mp_bench(config)
    return {
        "series": label,
        "engine": engine,
        "workers": workers,
        "dispatch_batch": dispatch_batch,
        "throughput": result.throughput,
        "dispatch_p50": result.dispatch_p50,
        "dispatch_p99": result.dispatch_p99,
        "shard_busy": result.shard_busy,
        "barrier_rounds": result.barrier_rounds,
    }


def _crossover(mp_points: dict, threaded_points: dict):
    """Worker count where the mp curve reaches the threaded baseline.

    Returns the smallest measured worker count whose mp/threaded ratio is
    >= 1.  When no measured point crosses (the single-CPU case: the mp
    engine pays IPC overhead with no cores to win back), the ratio trend
    of the last two points is extrapolated linearly to 1.0 — a *projected*
    crossover, recorded as such.  A flat or falling trend projects to
    ``None`` (never crosses).
    """
    counts = sorted(set(mp_points) & set(threaded_points))
    ratios = [(w, mp_points[w] / threaded_points[w]) for w in counts]
    for workers, ratio in ratios:
        if ratio >= 1.0:
            return {"workers": workers, "ratio": ratio,
                    "projected": False, "ratios": ratios}
    if len(ratios) >= 2:
        (w_lo, r_lo), (w_hi, r_hi) = ratios[-2], ratios[-1]
        slope = (r_hi - r_lo) / (w_hi - w_lo)
        if slope > 0:
            return {"workers": w_hi + (1.0 - r_hi) / slope,
                    "ratio": 1.0, "projected": True, "ratios": ratios}
    return {"workers": None, "ratio": ratios[-1][1] if ratios else 0.0,
            "projected": True, "ratios": ratios}


def mp_scaling() -> FigureData:
    figure = FigureData(
        name="mp_scaling",
        title="Multiprocess engine: throughput vs workers "
              "(0% writes, linked list)",
        x_label="workers",
        y_label="cmds/s",
    )
    points = []
    for label, engine, dispatch_batch in SERIES:
        for workers in WORKER_COUNTS:
            point = _point(label, engine, workers, dispatch_batch)
            points.append(point)
            figure.add_point("wall-clock", label, workers,
                             point["throughput"])
    curves = {label: dict(figure.panels["wall-clock"][label])
              for label, _, _ in SERIES}
    crossovers = {
        "batched": _crossover(curves["mp-batched"], curves["threaded"]),
        "unbatched": _crossover(curves["mp-unbatched"], curves["threaded"]),
    }
    figure.extra = {
        "points": points,
        "worker_counts": WORKER_COUNTS,
        "key_space": KEY_SPACE,
        "measure_ops": MEASURE_OPS,
        "smoke": SMOKE,
        "crossover": crossovers,
    }
    return figure


def _check_scaling(figure: FigureData) -> None:
    mp_points = dict(figure.panels["wall-clock"]["mp-batched"])
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
    _check_crossover(figure)


def _check_crossover(figure: FigureData) -> None:
    crossovers = figure.extra["crossover"]
    batched = crossovers["batched"]
    unbatched = crossovers["unbatched"]
    for label, data in (("batched", batched), ("unbatched", unbatched)):
        mark = "projected " if data["projected"] else ""
        where = ("never" if data["workers"] is None
                 else f"{data['workers']:.2f} workers")
        print(f"[mp_scaling] {label} mp-vs-threaded crossover: "
              f"{mark}{where} (last ratio {data['ratios'][-1][1]:.3f})")
    if SMOKE:
        return
    # Batched dispatch amortizes the per-command IPC round trip, so the mp
    # engine must reach (or project to reach) the threaded baseline at a
    # strictly lower worker count than unbatched dispatch.  ``None`` means
    # "never crosses" and compares as +inf.
    inf = float("inf")
    batched_at = batched["workers"] if batched["workers"] is not None else inf
    unbatched_at = (unbatched["workers"]
                    if unbatched["workers"] is not None else inf)
    assert batched_at < unbatched_at, (
        f"batched dispatch did not lower the mp-vs-threaded crossover "
        f"(batched {batched_at}, unbatched {unbatched_at})")


def test_mp_scaling(benchmark):
    figure = benchmark.pedantic(mp_scaling, rounds=1, iterations=1)
    emit(figure)
    _check_scaling(figure)
    # Engine sanity holds on any host: every configured point measured.
    assert len(figure.panels["wall-clock"]["mp-batched"]) == \
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
