"""The system under test: a 3-process TCP cluster, or one in-process replica.

Both deployments expose the same few things to ``run.py``: ``start()``
(returns the set-up time, constructor to first successful reply),
``cpu_sample()`` (cumulative CPU seconds per process), ``rss_mb()``,
``scrape()`` (metric registry snapshots, traced runs only) and ``stop()``.
"""

from __future__ import annotations

import json
import os
import socket
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.net import Supervisor
from repro.net.config import loopback_config
from repro.workload import WorkloadGenerator

from loadgen import ClientPool, Sample, SliceClock
from workloads import (CLOSED_CLIENTS, COS_ALGORITHM, KEY_SPACE, N_REPLICAS,
                       PACED_CLIENTS, SERVICE, WORKERS, Workload)

__all__ = ["SetupError", "SmrDeployment", "pin_process", "placement",
           "process_cpu_seconds", "process_rss_mb"]

#: A workload that has no reply this long after its constructor fails.
SETUP_TIMEOUT = 20.0

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


class SetupError(RuntimeError):
    """The deployment did not answer a first request in time."""


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may contain spaces; fields resume after ")".
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def process_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


#: The CPUs this process may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))


def pin_process(pid: int, cpus: Iterable[int]) -> None:
    """Bind every thread of a process to ``cpus``.

    Left to itself the kernel moves the four busy processes between the
    two cores, differently on every run; a third of the CPU per command
    is then migration cost and run-to-run spread doubles.
    """
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:
            pass  # the thread ended while we looked


def placement() -> Tuple[int, List[int]]:
    """(CPU of the generator, CPU of each replica).

    The contact replica, busiest on every workload, gets the last CPU;
    the generator and the followers take the others in turn (on two
    cores: replica 0 on one, everything else on the other).
    """
    others = CPUS[:-1] or CPUS
    return others[0], [CPUS[-1]] + [
        others[index % len(others)] for index in range(1, N_REPLICAS)]


def _accepts(address: Tuple[str, int]) -> bool:
    try:
        with socket.create_connection(address, timeout=0.25):
            return True
    except OSError:
        return False


class SmrDeployment:
    """``repro.net.Supervisor`` cluster plus the load generator's pool."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 traced: bool):
        self._workload = workload
        self._seed = seed
        self._log_dir = workdir / f"logs-{time.monotonic_ns()}"
        self._traced = traced
        self._supervisor: Optional[Supervisor] = None
        self.pool: Optional[ClientPool] = None
        self._pids: Dict[int, int] = {}

    def start(self) -> float:
        began = time.perf_counter()
        # Replicas inherit this process's CPUs; they start on all of them.
        pin_process(os.getpid(), CPUS)
        self._log_dir.mkdir(parents=True)
        while True:
            config = loopback_config(
                N_REPLICAS, metrics=self._traced, service=SERVICE,
                protocol="paxos", cos_algorithm=COS_ALGORITHM, workers=WORKERS,
                wire="binary")
            # free_port() binds and releases, so the kernel may hand out
            # one port twice (seen once in ~50 set-ups): draw again.
            ports = config.addresses + config.metrics_addresses
            if len(set(ports)) == len(ports):
                break
        self._config = config
        self._supervisor = Supervisor(config, log_dir=str(self._log_dir))
        try:
            self._supervisor.start()
            self._wait_ready(began + SETUP_TIMEOUT)
            self._pids = self._supervisor.group("replicas").pids()
            generator_cpu, replica_cpus = placement()
            pin_process(os.getpid(), {generator_cpu})
            for replica_id, pid in self._pids.items():
                pin_process(pid, {replica_cpus[replica_id]})
            commands = iter(WorkloadGenerator(
                self._workload.write_pct, key_space=KEY_SPACE,
                seed=self._seed))
            self.pool = ClientPool(
                config, commands, size=PACED_CLIENTS,
                initial_keys=self._workload.initial_size)
            if not self.pool.first_reply(began + SETUP_TIMEOUT):
                raise SetupError("no reply from the cluster")
        except Exception as error:
            # stop() closes the replica logs; read their tails first.
            tails = self._log_tails()
            raise SetupError(
                f"{self._workload.name}: set-up failed within "
                f"{SETUP_TIMEOUT:.0f}s: {error}\n{tails}") from error
        return time.perf_counter() - began

    def _wait_ready(self, deadline: float) -> None:
        """Block until every replica's endpoint accepts connections.

        ``Supervisor.wait_ready`` polls every 50 ms, which quantises a
        ~0.4 s ``setup_s`` in steps of an eighth of its value; this polls
        every 5 ms.
        """
        pending = list(self._config.addresses)
        while pending:
            if len(self._supervisor.alive()) < N_REPLICAS:
                raise SetupError("a replica exited during start-up")
            if time.perf_counter() > deadline:
                raise SetupError(f"endpoints {pending} not accepting")
            time.sleep(0.005)
            pending = [address for address in pending
                       if not _accepts(address)]

    def _log_tails(self, lines: int = 15) -> str:
        tails = []
        for path in sorted(self._log_dir.glob("replica-*.log")):
            text = path.read_text(errors="replace").splitlines()[-lines:]
            tails.append(f"--- {path.name} ---\n" + "\n".join(text))
        return "\n".join(tails)

    def stop(self) -> None:
        """Reap the client transport and every replica process."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None

    # The measured phases and the request counts are the pool's.

    def run_closed(self, duration: float, slices: int,
                   sample: Callable[[], Sample]) -> SliceClock:
        return self.pool.run_closed(CLOSED_CLIENTS, duration, slices, sample)

    def run_paced(self, rate: float, duration: float, slices: int,
                  sample: Callable[[], Sample]) -> SliceClock:
        return self.pool.run_paced(
            rate, PACED_CLIENTS, duration, slices, sample)

    def take_records(self):
        return self.pool.take_records()

    def verify(self) -> None:
        """Every acknowledged write must be readable through every replica;
        a check that fails counts as a failed request."""
        self.pool.verify(range(N_REPLICAS))

    @property
    def attempted(self) -> int:
        return self.pool.attempted

    @property
    def failed(self) -> int:
        return self.pool.failed

    def cpu_sample(self) -> Sample:
        sample = {f"replica{replica_id}": process_cpu_seconds(pid)
                  for replica_id, pid in self._pids.items()}
        sample["loadgen"] = time.process_time()
        return sample

    def rss_mb(self) -> float:
        return max(process_rss_mb(pid) for pid in self._pids.values())

    def scrape(self) -> List[Dict[str, Any]]:
        """``/metrics.json`` of every replica (traced deployments only)."""
        snapshots = []
        for host, port in self._config.metrics_addresses:
            with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics.json", timeout=5) as reply:
                snapshots.append(json.load(reply))
        return snapshots
