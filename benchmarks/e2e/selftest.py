#!/usr/bin/env python3
"""Self-test of the benchmark itself (ready for a CI job to call).

    python3 benchmarks/e2e/selftest.py

1. The load generator never has two requests outstanding on one
   ``client_id``, fails (and never retries) a request that gets no reply,
   counts a late reply to a retired identity as a stray, and does not take
   another replica's reply for the answer of the replica it asked.
2. ``run.py --smoke`` runs all four workloads, untraced and traced, and
   prints every metric BENCHMARK.json names exactly once per workload, with
   its unit, under a well-formed name, with no failed request.
"""

from __future__ import annotations

import json
import queue
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

import run  # noqa: F401  (puts src/ on sys.path before repro is imported)
from loadgen import CLIENT_NODE_ID, ClientPool
from repro.net import ClientResponse
from repro.net.config import loopback_config
from repro.workload import WorkloadGenerator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeCluster:
    """In-memory stand-in for the transport and the contact replica.

    Answers each request after a short random delay from a thread of its
    own; every ``drop_every``-th request is answered only after the
    client's timeout, so the pool must fail it and retire the identity.
    Every ``misroute_every``-th request is answered by a replica other than
    the one asked, which must not count as its answer either.
    """

    def __init__(self, drop_every: int, late_after: float,
                 misroute_every: int):
        self.pool: ClientPool = None  # set once the pool exists
        self._drop_every = drop_every
        self._late_after = late_after
        self._misroute_every = misroute_every
        self.misrouted = 0
        self._rng = random.Random(7)
        self._inbox: "queue.Queue[Any]" = queue.Queue()
        self._outstanding: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.violations: List[str] = []
        self.requests = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def send(self, src: int, dst: int, request: Any) -> None:
        with self._lock:
            self.requests += 1
            late = self.requests % self._drop_every == 0
            if request.client_id in self._outstanding:
                self.violations.append(request.client_id)
            self._outstanding[request.client_id] = request.payload[0].request_id
            answering = dst
            if not late and self.requests % self._misroute_every == 0:
                self.misrouted += 1
                answering = dst + 1
        delay = self._late_after if late else self._rng.uniform(0.0, 0.003)
        self._inbox.put((time.perf_counter() + delay, request, answering))

    def _serve(self) -> None:
        pending: List[Any] = []
        while True:
            try:
                item = self._inbox.get(timeout=0.001)
                if item is None:
                    return
                pending.append(item)
            except queue.Empty:
                pass
            now = time.perf_counter()
            for item in [p for p in pending if p[0] <= now]:
                pending.remove(item)
                command = item[1].payload[0]
                with self._lock:
                    self._outstanding.pop(command.client_id, None)
                self.pool.on_message(
                    item[2],
                    ClientResponse(command, command.args[0] < 50, item[2]))

    def close(self) -> None:
        self._inbox.put(None)
        self._thread.join(timeout=5)


def check_loadgen() -> None:
    config = loopback_config(3, client_timeout=0.15)
    # Reads only: the fake keeps no state, so ``contains(k)`` is ``k < 50``.
    commands = iter(WorkloadGenerator(0.0, key_space=500, seed=3))
    fake = FakeCluster(drop_every=150, late_after=0.4, misroute_every=170)
    pool = ClientPool(config, commands, size=64, initial_keys=50,
                      transport=fake)
    fake.pool = pool
    try:
        pool.run_closed(16, 0.8, 2, dict)
        pool.run_paced(800.0, 64, 0.8, 2, dict)
        time.sleep(0.5)  # let the late replies arrive: they must be strays
    finally:
        fake.close()
    assert not fake.violations, (
        f"client ids with two requests outstanding: {fake.violations[:5]}")
    assert pool.attempted == fake.requests, "a request was retried or lost"
    unanswered = fake.requests // 150 + fake.misrouted
    assert fake.misrouted > 0
    assert pool.timeouts == unanswered, (
        f"{pool.timeouts} timeouts for {unanswered} requests the replica "
        f"asked never answered in time")
    assert pool.strays == pool.timeouts, (
        f"{pool.strays} strays for {pool.timeouts} late or misrouted replies")
    assert pool.wrong == 0
    assert len(pool.records) == pool.attempted - pool.timeouts
    assert CLIENT_NODE_ID >= config.n_replicas
    print(f"loadgen ok: {pool.attempted} requests, {pool.timeouts} timed "
          f"out and failed ({fake.misrouted} answered by the wrong replica), "
          f"{pool.strays} stray replies ignored")


def check_smoke(spec: Dict[str, Any], trace: int) -> None:
    expected = {metric["name"]: metric["unit"]
                for metric in spec["per_layer" if trace else "end_to_end"]}
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.splitlines()
    for workload in (entry["name"] for entry in spec["workloads"]):
        printed: Dict[str, List[str]] = {}
        for line in lines:
            fields = line.split()
            if len(fields) == 4 and fields[0] == workload:
                printed.setdefault(fields[1], []).append(fields[3])
        assert set(printed) == set(expected), (
            workload, sorted(set(printed) ^ set(expected)))
        for name, units in printed.items():
            assert units == [expected[name]], (workload, name, units)
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(spec["workloads"])
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(expected)
    print(f"smoke --trace {trace} ok: {len(results)} workloads, "
          f"{len(expected)} metrics each, {time.monotonic() - began:.0f}s")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), f"malformed name {name!r}"
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    check_loadgen()
    check_smoke(spec, trace=0)
    check_smoke(spec, trace=1)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
