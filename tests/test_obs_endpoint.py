"""End-to-end observability over the TCP deployment.

Covers the CI ``tcp-cluster-smoke`` contract: a live replica serves
``/metrics`` with the core series present, the series move monotonically
under load, JSON snapshots land on disk, and the loopback bench's
``--trace`` path produces a span log plus a Fig. 6-shaped point.
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.net.bench import NetBenchConfig, run_net_bench
from repro.net.cluster import TcpCluster
from repro.net.config import loopback_config
from repro.obs import SnapshotWriter, MetricsRegistry
from repro.workload import WorkloadGenerator

#: Series every replica process must expose (the CI smoke asserts these).
CORE_SERIES = (
    "replica_scheduled_total",
    "replica_executed_total",
    "cos_inserts_total",
    "cos_removes_total",
    "cos_graph_size",
    "net_frames_received_total",
)


def _scrape(address) -> str:
    host, port = address
    with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=5) as response:
        assert response.status == 200
        return response.read().decode()


def _series_value(text: str, name: str) -> float:
    """Sum every sample of ``name`` (labelled series add up)."""
    total, found = 0.0, False
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        match = re.match(rf"{re.escape(name)}(?:{{[^}}]*}})? (\S+)$", line)
        if match:
            total += float(match.group(1))
            found = True
    if not found:
        raise AssertionError(f"series {name} absent from exposition")
    return total


@pytest.fixture(scope="module")
def cluster():
    with TcpCluster(n_replicas=3, metrics=True, workers=2) as running:
        yield running


class TestMetricsEndpoint:
    def test_scrape_core_series_present_and_monotone(self, cluster):
        address = cluster.servers[0].metrics_address
        assert address is not None
        client = cluster.client()
        commands = WorkloadGenerator(30.0, key_space=100, seed=9).commands(8)
        client.execute_batch(commands)
        cluster.wait_converged(8)

        before = _scrape(address)
        for name in CORE_SERIES:
            _series_value(before, name)  # raises when absent
        executed_before = _series_value(before, "replica_executed_total")
        assert executed_before >= 8

        more = WorkloadGenerator(30.0, key_space=100, seed=10).commands(8)
        client.execute_batch(more)
        cluster.wait_converged(16)
        after = _scrape(address)
        assert (_series_value(after, "replica_executed_total")
                >= executed_before + 8)
        assert (_series_value(after, "replica_scheduled_total")
                >= _series_value(before, "replica_scheduled_total"))
        assert (_series_value(after, "net_frames_received_total")
                >= _series_value(before, "net_frames_received_total"))

    def test_every_replica_serves_metrics(self, cluster):
        for server in cluster.servers:
            text = _scrape(server.metrics_address)
            assert "replica_executed_total" in text

    def test_json_snapshot_endpoint(self, cluster):
        host, port = cluster.servers[0].metrics_address
        with urllib.request.urlopen(
                f"http://{host}:{port}/metrics.json", timeout=5) as response:
            snapshot = json.loads(response.read())
        assert snapshot["replica_executed_total"]["kind"] == "counter"
        assert "cos_graph_size" in snapshot

    def test_unknown_path_is_404(self, cluster):
        host, port = cluster.servers[0].metrics_address
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=5)
        assert info.value.code == 404


class TestSnapshotWriter:
    def test_periodic_file_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("executed").inc(5)
        path = tmp_path / "metrics.json"
        writer = SnapshotWriter(registry, str(path), interval=0.05).start()
        try:
            deadline = 100
            while not path.exists() and deadline:
                deadline -= 1
                time.sleep(0.02)
        finally:
            writer.stop()
        data = json.loads(path.read_text())
        assert data["executed"]["value"] == 5

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SnapshotWriter(MetricsRegistry(), "x.json", interval=0.0)


class TestBenchTrace:
    def test_bench_trace_produces_spans_and_fig6_point(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        artifact_path = tmp_path / "bench.json"
        config = NetBenchConfig(
            deployment=loopback_config(
                n_replicas=1, cos_algorithm="lock-free", workers=2),
            n_clients=1, batch=4, ops=16, trace_path=str(trace_path),
        )
        result = run_net_bench(config, out_path=str(artifact_path))

        assert result.executed == 16
        assert result.errors == 0
        # Fig. 6 shape: one (throughput, latency) coordinate.
        assert result.fig6_point["throughput_kops"] > 0
        assert result.fig6_point["latency_ms"] > 0
        # Latency histogram on the shared fixed-bucket ladder.
        assert result.latency_histogram["count"] == 4  # 4 batches
        assert result.latency_histogram["buckets"][-1]["le"] == "+Inf"
        # Span log: submitted + responded per command.
        assert result.trace_events == 2 * 16
        lines = [json.loads(line)
                 for line in trace_path.read_text().splitlines()]
        assert len(lines) == 2 * 16
        stages = {line["stage"] for line in lines}
        assert stages == {"submitted", "responded"}
        # Per-command round trips are recoverable and positive.
        by_uid = {}
        for line in lines:
            by_uid.setdefault(line["uid"], {})[line["stage"]] = line["t"]
        assert all(span["responded"] >= span["submitted"]
                   for span in by_uid.values())
        # The JSON artifact embeds the same observability fields.
        artifact = json.loads(artifact_path.read_text())
        assert artifact["trace_events"] == 32
        assert artifact["fig6_point"]["throughput_kops"] > 0


class TestSpanJoin:
    def test_client_and_replica_spans_join_on_stable_key(self):
        """Client- and replica-side spans share ``client_id#request_id``.

        The join is the whole point of stable span keys: a client process
        records ``submitted``/``responded`` while each replica process
        records ``delivered``..``responded``, and the two logs must line
        up per command without sharing a uid counter.
        """
        with TcpCluster(n_replicas=1, workers=2, trace=True) as cluster:
            client = cluster.client(client_id="joiner")
            base = client.requests_issued
            commands = WorkloadGenerator(
                50.0, key_space=10, seed=5).commands(6)
            client.execute_batch(commands)
            cluster.wait_converged(6)
            replica_spans = cluster.servers[0].registry.spans.spans()

        expected = {f"joiner#{base + 1 + offset}" for offset in range(6)}
        assert expected <= set(replica_spans), (
            f"replica trace missing keys: {expected - set(replica_spans)}")
        for key in expected:
            stages = replica_spans[key]
            for stage in ("delivered", "scheduled", "ready",
                          "executing", "responded"):
                assert stage in stages, f"{key} missing stage {stage}"
            assert (stages["delivered"] <= stages["scheduled"]
                    <= stages["executing"] <= stages["responded"])
        # No span leaked under a bare process-local uid: every key of a
        # client-stamped command is the wire-stable string form.
        assert all(isinstance(key, str) and "#" in key
                   for key in replica_spans)
