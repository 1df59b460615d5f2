"""Multi-process deployment smoke tests.

These spawn one real interpreter per replica through the
:class:`~repro.net.supervisor.Supervisor` — the process-per-replica
deployment of docs/deployment.md — then crash one with SIGKILL and check
the cluster keeps serving.  This file is the CI cluster smoke job.
"""

import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.broadcast.paxos import LOG_RETAIN
from repro.core.command import Command
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


def test_concurrent_client_processes_are_all_answered(tmp_path):
    """Two ``net client`` processes at once against one deployment: each
    gets every batch answered, and every replica executes each of their
    writes exactly once — none is swallowed as a duplicate of the other
    client's requests or answered from its cache."""
    ops = 60
    config = loopback_config(n_replicas=3, metrics=True)
    path = tmp_path / "cluster.json"
    path.write_text(config.to_json())
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with Supervisor(config) as supervisor:
        supervisor.wait_ready()
        clients = [subprocess.Popen(
            [sys.executable, "-m", "repro", "net", "client", "--config",
             str(path), "--ops", str(ops), "--batch", "4", "--write-pct",
             "100", "--seed", str(seed), "--contact", str(seed)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for seed in (1, 2)]
        try:
            outputs = [client.communicate(timeout=60) for client in clients]
        finally:
            for client in clients:
                client.kill()
                client.wait()
        for client, (out, err) in zip(clients, outputs):
            assert client.returncode == 0, out + err
            assert re.fullmatch(rf"executed {ops} commands in .*, "
                                rf"0 timed out\n", out), out
        deadline = time.monotonic() + 10
        while True:
            executed = [_scrape(config, replica)["replica_executed_total"]
                        ["value"] for replica in range(3)]
            if executed == [2 * ops] * 3 or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert executed == [2 * ops] * 3
