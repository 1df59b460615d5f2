"""Multi-process cluster launcher.

:class:`Supervisor` spawns one OS process per replica (``python -m repro
net replica --id I --config FILE``), waits until every replica's TCP
endpoint accepts connections, and tears the fleet down cleanly.  Each
replica process has its own interpreter — under CPython this is the only
way replicas stop sharing one GIL (DESIGN.md §2), which is why the
ROADMAP's production path runs process-per-replica.

The process-management machinery lives in :class:`ProcessGroup` — a named
subset of the fleet with its own spawn/ready/kill/restart lifecycle.  A
supervisor manages one group (``"replicas"``) by default; callers can
carve the fleet into several named groups (``groups={"left": [0],
"right": [1, 2]}``) and bounce one group without disturbing the others'
processes — the deployment shape partitioned experiments want
(docs/partitioning.md).

Crash/recovery: :meth:`kill` delivers SIGKILL (crash-stop, nothing flushed)
and :meth:`restart` re-spawns the same replica id on the same endpoint.  A
restarted replica boots blank and catches up through the protocol's
anti-entropy (heartbeat frontier + catch-up requests).  Single-group Paxos
replicas compact their log, so after any real run the peer it asks answers
with its checkpoint in one ``Snapshot`` frame instead of the decided
prefix: the replica installs that state and executes only what was decided
since (docs/ordering.md, *Log compaction*).  Grouped and sequencer
deployments keep every instance and replay them all.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ShutdownError
from repro.net.config import NetConfig

__all__ = ["ProcessGroup", "Supervisor"]

#: Pause between readiness probes.  A replica is up ~0.4 s after its spawn,
#: so a coarser poll quantises every start a caller (or a test) sees.
_READY_POLL = 0.005


def _repro_pythonpath() -> str:
    """PYTHONPATH entry that makes ``import repro`` work in children."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


def _port_open(host: str, port: int, timeout: float = 0.25) -> bool:
    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False


class ProcessGroup:
    """A named set of replica subprocesses of one deployment.

    Owns the full lifecycle of its members — spawn, readiness wait,
    SIGKILL crash, restart, teardown — and nothing of any other group's:
    restarting this group never touches processes it does not own.  The
    config file is shared deployment-wide and owned by the caller
    (normally :class:`Supervisor`).
    """

    def __init__(self, name: str, config: NetConfig, config_path: str,
                 members: Sequence[int], python: Optional[str] = None,
                 log_dir: Optional[str] = None):
        if not members:
            raise ConfigurationError(f"process group {name!r} is empty")
        for replica_id in members:
            if not 0 <= replica_id < config.n_replicas:
                raise ConfigurationError(
                    f"process group {name!r}: replica {replica_id} out of "
                    f"range for {config.n_replicas} replicas")
        if len(set(members)) != len(members):
            raise ConfigurationError(
                f"process group {name!r} lists a replica twice: {members}")
        self.name = name
        self.config = config
        self.members = tuple(sorted(members))
        self._config_path = config_path
        self._python = python or sys.executable
        self._log_dir = log_dir
        self._procs: Dict[int, subprocess.Popen] = {}
        #: replica id -> its open ``replica-N.log`` handle (one per member).
        self._logs: Dict[int, Any] = {}

    # -------------------------------------------------------------- lifecycle

    def spawn(self) -> "ProcessGroup":
        if self._procs:
            raise ShutdownError(f"process group {self.name!r} already spawned")
        for replica_id in self.members:
            self._spawn(replica_id)
        return self

    def _spawn(self, replica_id: int) -> None:
        env = dict(os.environ)
        src_root = _repro_pythonpath()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_root if not existing
                             else src_root + os.pathsep + existing)
        stdout: Any = subprocess.DEVNULL
        if self._log_dir is not None:
            log = open(Path(self._log_dir) / f"replica-{replica_id}.log", "ab")
            # A re-spawn supersedes the previous process's handle.
            previous = self._logs.pop(replica_id, None)
            if previous is not None:
                previous.close()
            self._logs[replica_id] = stdout = log
        self._procs[replica_id] = subprocess.Popen(
            [self._python, "-m", "repro", "net", "replica",
             "--id", str(replica_id), "--config", self._config_path],
            env=env,
            stdout=stdout,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout: float = 15.0) -> None:
        """Block until every live member's endpoint accepts connections."""
        deadline = time.monotonic() + timeout
        pending = set(self._procs)
        while pending and time.monotonic() < deadline:
            for replica_id in sorted(pending):
                proc = self._procs[replica_id]
                if proc.poll() is not None:
                    raise ConfigurationError(
                        f"replica {replica_id} exited with "
                        f"{proc.returncode} during startup")
                host, port = self.config.addresses[replica_id]
                if _port_open(host, port):
                    pending.discard(replica_id)
            if pending:
                time.sleep(_READY_POLL)
        if pending:
            raise ConfigurationError(
                f"replicas {sorted(pending)} not ready within {timeout}s")

    def stop(self) -> None:
        """Terminate every member process.  Idempotent."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5
        for proc in self._procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._procs.clear()
        for log in self._logs.values():
            log.close()
        self._logs.clear()

    # ------------------------------------------------------------------ faults

    def kill(self, replica_id: int) -> None:
        """Crash-stop a member process (SIGKILL; nothing gets flushed)."""
        proc = self._procs.get(replica_id)
        if proc is None:
            raise ConfigurationError(
                f"replica {replica_id} is not a member of group "
                f"{self.name!r}")
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5)

    def restart(self, replica_id: int, timeout: float = 15.0) -> None:
        """Re-spawn a crashed member on its original endpoint."""
        proc = self._procs.get(replica_id)
        if replica_id not in self.members:
            raise ConfigurationError(
                f"replica {replica_id} is not a member of group "
                f"{self.name!r}")
        if proc is not None and proc.poll() is None:
            raise ConfigurationError(
                f"replica {replica_id} is still running; kill it first")
        self._spawn(replica_id)
        host, port = self.config.addresses[replica_id]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if _port_open(host, port):
                return
            if self._procs[replica_id].poll() is not None:
                break
            time.sleep(_READY_POLL)
        raise ConfigurationError(
            f"replica {replica_id} did not come back within {timeout}s")

    def restart_all(self, timeout: float = 15.0) -> None:
        """Bounce the whole group: kill every member, re-spawn, wait ready."""
        for replica_id in self.members:
            if replica_id in self._procs:
                self.kill(replica_id)
        for replica_id in self.members:
            proc = self._procs.pop(replica_id, None)
            if proc is not None:
                proc.wait(timeout=5)
            self._spawn(replica_id)
        self.wait_ready(timeout=timeout)

    def alive(self) -> List[int]:
        return [replica_id for replica_id, proc in self._procs.items()
                if proc.poll() is None]

    def pids(self) -> Dict[int, int]:
        """replica id -> OS pid of its current process (live or not)."""
        return {replica_id: proc.pid
                for replica_id, proc in self._procs.items()}


class Supervisor:
    """Spawns and manages one replica subprocess per cluster member."""

    def __init__(self, config: NetConfig, python: Optional[str] = None,
                 log_dir: Optional[str] = None,
                 groups: Optional[Dict[str, Sequence[int]]] = None):
        config.validate()
        self.config = config
        self._python = python or sys.executable
        self._log_dir = log_dir
        self._config_path: Optional[str] = None
        if groups is None:
            groups = {"replicas": list(range(config.n_replicas))}
        seen: Dict[int, str] = {}
        for name, members in groups.items():
            for replica_id in members:
                if replica_id in seen:
                    raise ConfigurationError(
                        f"replica {replica_id} is in groups "
                        f"{seen[replica_id]!r} and {name!r}")
                seen[replica_id] = name
        missing = sorted(set(range(config.n_replicas)) - set(seen))
        if missing:
            raise ConfigurationError(
                f"replicas {missing} belong to no process group")
        self._group_spec = {name: tuple(members)
                            for name, members in groups.items()}
        self._groups: Dict[str, ProcessGroup] = {}

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "Supervisor":
        if self._groups:
            raise ShutdownError("supervisor already started")
        fd, self._config_path = tempfile.mkstemp(
            prefix="repro-net-", suffix=".json")
        with os.fdopen(fd, "w") as handle:
            handle.write(self.config.to_json())
        for name, members in self._group_spec.items():
            self._groups[name] = ProcessGroup(
                name, self.config, self._config_path, members,
                python=self._python, log_dir=self._log_dir).spawn()
        return self

    def wait_ready(self, timeout: float = 15.0) -> None:
        """Block until every live replica's endpoint accepts connections."""
        deadline = time.monotonic() + timeout
        for group in self._groups.values():
            group.wait_ready(
                timeout=max(0.1, deadline - time.monotonic()))

    def stop(self) -> None:
        """Terminate every replica process and clean up.  Idempotent."""
        for group in self._groups.values():
            group.stop()
        self._groups.clear()
        if self._config_path is not None:
            try:
                os.unlink(self._config_path)
            except OSError:
                pass
            self._config_path = None

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ groups

    def group(self, name: str) -> ProcessGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown process group {name!r}; have "
                f"{sorted(self._groups)}") from None

    def group_names(self) -> List[str]:
        return sorted(self._groups)

    def restart_group(self, name: str, timeout: float = 15.0) -> None:
        """Bounce one named group; other groups' processes are untouched."""
        self.group(name).restart_all(timeout=timeout)

    def _owning_group(self, replica_id: int) -> ProcessGroup:
        for group in self._groups.values():
            if replica_id in group.members:
                return group
        raise ConfigurationError(f"unknown replica {replica_id}")

    # ------------------------------------------------------------------ faults

    def kill(self, replica_id: int) -> None:
        """Crash-stop a replica process (SIGKILL; nothing gets flushed)."""
        self._owning_group(replica_id).kill(replica_id)

    def restart(self, replica_id: int, timeout: float = 15.0) -> None:
        """Re-spawn a crashed replica on its original endpoint."""
        self._owning_group(replica_id).restart(replica_id, timeout=timeout)

    def alive(self) -> List[int]:
        live: List[int] = []
        for group in self._groups.values():
            live.extend(group.alive())
        return sorted(live)
