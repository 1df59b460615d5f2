"""Multi-process deployment smoke tests.

These spawn one real interpreter per replica through the
:class:`~repro.net.supervisor.Supervisor` — the process-per-replica
deployment of docs/deployment.md — then crash one with SIGKILL and check
the cluster keeps serving.  This file is the CI cluster smoke job.
"""

import json
import time
import urllib.request

from repro.broadcast.paxos import LOG_RETAIN
from repro.core.command import Command
from repro.net.bench import NetBenchConfig, run_net_bench
from repro.net.client import NetClient
from repro.net.config import loopback_config
from repro.net.supervisor import Supervisor
from repro.net.transport import DEFAULT_QUEUE_LIMIT


def write(key):
    return Command("add", (key,), writes=True)


def read(key):
    return Command("contains", (key,), writes=False)


def test_cluster_survives_replica_crash():
    config = loopback_config(n_replicas=3, client_timeout=3.0)
    with Supervisor(config) as supervisor:
        supervisor.wait_ready()
        assert sorted(supervisor.alive()) == [0, 1, 2]
        with NetClient("proc-smoke", config, timeout=3.0) as client:
            first = client.execute_batch([write(100 + key)
                                          for key in range(8)])
            assert first == [True] * 8

            supervisor.kill(2)  # SIGKILL: crash-stop, nothing flushed
            assert sorted(supervisor.alive()) == [0, 1]
            second = client.execute_batch([write(200 + key)
                                           for key in range(8)])
            assert second == [True] * 8

            supervisor.restart(2)
            assert sorted(supervisor.alive()) == [0, 1, 2]
            assert client.execute(write(300)) is True
            assert client.execute(read(207)) is True
    assert supervisor.alive() == []  # context exit tore the fleet down


def _scrape(config, replica_id):
    host, port = config.metrics_addresses[replica_id]
    with urllib.request.urlopen(
            f"http://{host}:{port}/metrics.json", timeout=5) as reply:
        return json.load(reply)


def test_blank_restarted_process_is_brought_back_by_snapshot():
    """SIGKILL a follower, decide more instances than any log retains,
    restart it: the blank process must answer reads of writes it never
    saw — from installed state, not by replaying the run."""
    config = loopback_config(n_replicas=3, metrics=True, client_timeout=5.0)
    # More instances than the leader's outbox for the dead peer holds
    # frames: with fewer, whether an Accept under the floor is lost (first
    # write into the dead socket) or kept and replayed on reconnect — no
    # snapshot needed — is a race (1 run in 8 took the replay path).
    missed = max(LOG_RETAIN, DEFAULT_QUEUE_LIMIT) + 40
    with Supervisor(config) as supervisor:
        supervisor.wait_ready()
        with NetClient("proc-log", config, timeout=5.0) as client:
            assert client.execute(write(1000)) is True
            supervisor.kill(2)
            for key in range(missed):  # one instance each
                client.execute(write(2000 + key))
            supervisor.restart(2)
            assert client.execute(write(2000 + missed)) is True
        with NetClient("proc-log-reader", config, contact=2,
                       timeout=5.0) as reader:
            # Only replica 2 knows this client's endpoint, so only its
            # own state can answer.  (One command per request: the dedup
            # table a snapshot carries keeps one response per client.)
            for key in (1000, 2000, 2000 + missed - 1, 2000 + missed):
                assert reader.execute(read(key)) is True
        deadline = time.monotonic() + 5
        while True:
            metrics = _scrape(config, 2)
            if metrics["paxos_snapshots_installed_total"]["value"] >= 1:
                break
            assert time.monotonic() < deadline, "no snapshot was installed"
            time.sleep(0.05)
        assert metrics["replica_executed_total"]["value"] < missed
        leader = _scrape(config, 0)
        assert leader["paxos_log_len"]["value"] <= LOG_RETAIN + 32
        assert leader["paxos_snapshots_sent_total"]["value"] >= 1


def test_net_bench_writes_artifact(tmp_path):
    out = tmp_path / "net-bench.json"
    config = NetBenchConfig(deployment=loopback_config(n_replicas=3),
                            n_clients=2, batch=4, ops=48, seed=7)
    result = run_net_bench(config, out_path=str(out))
    assert result.executed == 48
    assert result.errors == 0
    assert result.throughput > 0

    data = json.loads(out.read_text())
    assert data["executed"] == 48
    assert data["throughput"] > 0
    assert data["config"]["crash_replica"] is None
