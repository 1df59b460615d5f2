"""Process lifecycle of a supervised deployment.

:class:`~repro.net.supervisor.Supervisor` forks every replica from one
fork server (:mod:`repro.net.forkserver`).  These tests hold the process
model to its promises: no process of the deployment outlives
``Supervisor.stop()`` or the death of the process that owns the
supervisor, a killed replica comes back from the warm server and serves
what was written before, and a supervised ``engine="mp"`` cluster reaps
its shard processes too.  Processes are found through ``/proc``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.command import Command
from repro.net.client import NetClient
from repro.net.config import loopback_config
from repro.net.supervisor import Supervisor

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="finds processes through /proc")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _parent(pid):
    """Parent pid and state letter of ``pid``; None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[1]), fields[0]


def _running(pid):
    """True while ``pid`` exists and is not a zombie (an orphan's zombie
    waits for whoever adopted it to reap it; it runs nothing)."""
    found = _parent(pid)
    return found is not None and found[1] != "Z"


def _descendants(root):
    """Every live process below ``root`` in the process tree."""
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            found = _parent(int(entry))
            if found is not None and found[1] != "Z":
                children.setdefault(found[0], []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def _deployment(supervisor):
    """The fork server (every replica's parent) and all processes below."""
    replica = next(iter(supervisor.group("replicas").pids().values()))
    server = _parent(replica)[0]
    return [server, *_descendants(server)]


def _wait_gone(pids, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        left = [pid for pid in pids if _running(pid)]
        if not left:
            return []
        time.sleep(0.02)
    return [pid for pid in pids if _running(pid)]


def write(key):
    return Command("add", (key,), writes=True)


def read(key):
    return Command("contains", (key,), writes=False)


def test_stop_leaves_no_process_of_the_deployment():
    config = loopback_config(n_replicas=3)
    supervisor = Supervisor(config).start()
    try:
        supervisor.wait_ready()
        processes = _deployment(supervisor)
        replicas = set(supervisor.group("replicas").pids().values())
        # The fork server and its three children.
        assert replicas < set(processes) and len(processes) == 4
    finally:
        supervisor.stop()
    assert [pid for pid in processes if _running(pid)] == []


_OWNER = """
import json, os, sys, time
from repro.net.config import loopback_config
from repro.net.supervisor import Supervisor
supervisor = Supervisor(loopback_config(n_replicas=3)).start()
supervisor.wait_ready()
print(json.dumps(sorted(supervisor.group("replicas").pids().values())),
      flush=True)
time.sleep(60)
"""


def test_replicas_die_with_the_supervisors_owner():
    """SIGKILL the process that owns a Supervisor: its fork server and
    replicas must not wait for a SIGTERM that never comes."""
    owner = subprocess.Popen(
        [sys.executable, "-c", _OWNER], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    processes = []
    try:
        replicas = json.loads(owner.stdout.readline())
        processes = _descendants(owner.pid)
        assert set(replicas) < set(processes)
        owner.kill()
        owner.wait(timeout=5)
        left = _wait_gone(processes, timeout=5.0)
        assert left == [], (
            f"processes {left} of a dead supervisor still run")
    finally:
        owner.kill()
        owner.wait(timeout=5)
        owner.stdout.close()
        for pid in processes:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def test_killed_replica_restarts_from_the_warm_server_three_times():
    """Each restart is a fork of the already-warm server; report how long
    one takes (not gated: it is a wall-clock figure)."""
    config = loopback_config(n_replicas=3, client_timeout=5.0)
    took = []
    with Supervisor(config) as supervisor:
        supervisor.wait_ready()
        with NetClient("lifecycle", config, timeout=5.0) as client:
            assert client.execute(write(1000)) is True
            for cycle in range(3):
                before = supervisor.group("replicas").pids()[2]
                supervisor.kill(2)
                assert sorted(supervisor.alive()) == [0, 1]
                began = time.perf_counter()
                supervisor.restart(2)
                took.append(time.perf_counter() - began)
                assert supervisor.group("replicas").pids()[2] != before
                assert client.execute(write(2000 + cycle)) is True
                with NetClient(f"reader-{cycle}", config, contact=2,
                               timeout=5.0) as reader:
                    assert reader.execute(read(1000)) is True
    print(f"restart from the warm fork server: "
          f"{', '.join(f'{s * 1e3:.1f} ms' for s in took)}")


def test_supervised_mp_cluster_serves_and_reaps_its_shards():
    config = loopback_config(n_replicas=3, engine="mp", mp_workers=2,
                             client_timeout=10.0)
    supervisor = Supervisor(config).start()
    try:
        supervisor.wait_ready()
        with NetClient("mp-supervised", config, timeout=10.0) as client:
            assert client.execute(write(1000)) is True
            assert client.execute(read(1000)) is True
        processes = _deployment(supervisor)
        replicas = supervisor.group("replicas").pids().values()
        shards = [pid for replica in replicas
                  for pid in _descendants(replica)]
        # The fork server, three replicas, two shard workers each.
        assert len(shards) == 6 and len(processes) == 10
    finally:
        supervisor.stop()
    assert _wait_gone(processes, timeout=5.0) == []


def test_fork_server_refuses_to_fork_with_a_second_thread(monkeypatch):
    """A fork copies only the calling thread; whatever lock another thread
    held would stay held in the replica forever."""
    from repro.net import forkserver

    server = forkserver.ForkServer(loopback_config(n_replicas=3))
    monkeypatch.setattr(forkserver.os, "fork",
                        lambda: pytest.fail("forked with two threads"))
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        with pytest.raises(RuntimeError, match="single-threaded"):
            server.spawn(0, None)
    finally:
        stop.set()
        helper.join()
    assert server.poll([0]) == {}
