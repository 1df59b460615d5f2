"""Loopback TCP benchmark: throughput/latency over a real process cluster.

``python -m repro net bench`` spawns ``n`` replica processes through the
:class:`~repro.net.supervisor.Supervisor`, drives them with closed-loop TCP
clients (one thread per client, batched commands — the paper's §7.1 client
model), optionally crash-stops and restarts one replica mid-run, and writes
a JSON artifact with throughput and latency percentiles.

This is a *deployment smoke benchmark*: localhost sockets and a handful of
clients, not the paper's 1 Gbps LAN.  The figures that reproduce the paper
stay on the simulator (``python -m repro figures``); this artifact tracks
the real-deployment path end to end.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.net.client import NetClient
from repro.net.config import NetConfig
from repro.net.supervisor import Supervisor
from repro.obs import MetricsRegistry
from repro.smr.client import run_closed_loop
from repro.workload import WorkloadGenerator

__all__ = ["NetBenchConfig", "NetBenchResult", "run_net_bench"]


#: How long a bench client waits for a batch before counting it timed out
#: (longer than a deployment's default: a crash under load stalls a batch
#: for a whole leader election).
CLIENT_TIMEOUT = 3.0


@dataclass(frozen=True)
class NetBenchConfig:
    """One loopback bench run: the deployment it spawns and its workload."""

    deployment: NetConfig
    n_clients: int = 4
    batch: int = 8
    ops: int = 400                  # total commands across all clients
    write_pct: float = 30.0
    seed: int = 1
    #: Crash-stop this replica mid-run, then restart it.
    crash_replica: Optional[int] = None
    #: Record client-side per-command spans and write them here (JSONL,
    #: one event per line — see docs/observability.md); None records none.
    trace_path: Optional[str] = None


@dataclass(frozen=True)
class NetBenchResult:
    """Measured outcome (all times in seconds, wall clock)."""

    config: NetBenchConfig
    executed: int
    errors: int
    duration: float
    throughput: float               # commands per second
    latency_mean: float             # per-batch round trip
    latency_p50: float
    latency_p99: float
    #: One (throughput kops/s, latency ms) coordinate — the shape of one
    #: paper Fig. 6 point, measured on the real deployment.
    fig6_point: Dict[str, float] = field(default_factory=dict)
    #: Client-side latency histogram snapshot (fixed log-spaced buckets).
    latency_histogram: Dict[str, Any] = field(default_factory=dict)
    trace_events: int = 0

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


def run_net_bench(config: NetBenchConfig,
                  out_path: Optional[str] = None) -> NetBenchResult:
    """Run one loopback bench; optionally write the JSON artifact."""
    net = config.deployment
    # Client-side registry: latency histogram always, spans when tracing.
    trace = config.trace_path is not None
    registry = MetricsRegistry(trace=trace)

    def trace_batch(index, client, commands, started):
        # execute_batch re-stamps the commands with this client's identity
        # and the next request_ids, so the wire-stable keys
        # (client_id#request_id) are known before the call — unlike the
        # process-local uids.
        base = client.requests_issued
        span_keys = tuple(f"bench-{index}#{base + 1 + offset}"
                          for offset in range(len(commands)))
        for key in span_keys:
            registry.span(key, "submitted", at=started)

        def answered(finished: float) -> None:
            for key in span_keys:
                registry.span(key, "responded", at=finished)

        return answered

    with Supervisor(net) as supervisor:
        supervisor.wait_ready()

        def crash_and_recover() -> None:
            # Let the run warm up, then crash-stop one replica under load.
            time.sleep(0.5)
            supervisor.kill(config.crash_replica)
            time.sleep(0.5)
            supervisor.restart(config.crash_replica)

        clients = [
            NetClient(f"bench-{index}", net, contact=index % net.n_replicas,
                      timeout=CLIENT_TIMEOUT)
            for index in range(config.n_clients)]
        try:
            stats = run_closed_loop(
                clients,
                [WorkloadGenerator(config.write_pct, key_space=500,
                                   seed=config.seed * 1_000 + index)
                 for index in range(config.n_clients)],
                batches=max(
                    1, config.ops // (config.n_clients * config.batch)),
                batch=config.batch,
                observe=trace_batch if trace else None,
                meanwhile=(crash_and_recover
                           if config.crash_replica is not None else None))
        finally:
            for client in clients:
                client.close()

    if trace:
        registry.spans.write_jsonl(config.trace_path)
    latency_hist = registry.histogram("client_batch_latency_seconds")
    for latency in stats.latencies:
        latency_hist.observe(latency)
    result = NetBenchResult(
        config=config,
        executed=stats.executed,
        errors=stats.errors,
        duration=stats.duration,
        throughput=stats.throughput,
        latency_mean=stats.latency_mean,
        latency_p50=stats.latency_quantile(0.50),
        latency_p99=stats.latency_quantile(0.99),
        fig6_point={
            "throughput_kops": stats.throughput / 1e3,
            "latency_ms": stats.latency_mean * 1e3,
        },
        latency_histogram=latency_hist.snapshot(),
        trace_events=len(registry.spans.events()),
    )
    if out_path is not None:
        with open(out_path, "w") as handle:
            json.dump(result.to_json(), handle, indent=2)
    return result
