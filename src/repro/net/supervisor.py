"""Multi-process cluster launcher.

:class:`Supervisor` runs one OS process per replica, waits until every
replica's TCP endpoint accepts connections, and tears the fleet down
cleanly.  Each replica process has its own interpreter — under CPython
this is the only way replicas stop sharing one GIL (DESIGN.md §2), which
is why the ROADMAP's production path runs process-per-replica.

Process model: the supervisor starts one **fork server**
(:mod:`repro.net.forkserver`), a single interpreter that imports the
replica stack, loads the deployment file and builds the COS kernel's
direct-threaded class once, then ``os.fork()``s one child per replica.
Each child runs :func:`repro.net.replica.run_replica`, the code ``python
-m repro net replica`` runs.  The supervisor talks to the fork server over
its stdin/stdout pipe, one JSON line each way per request; the fork server
is the replicas' parent and the only process that signals or reaps them.
When that pipe closes — :meth:`Supervisor.stop`, or the supervisor's
process dies — the fork server SIGTERMs its replicas, reaps them and
exits.

What forked replicas share: the code and data the fork server loaded
(copy-on-write pages, the same hash seed, the same module set, which is a
``net replica`` process's less ``argparse``).  What they do not share:
everything a replica builds after its fork — its ``ReplicaServer``,
sockets, threads, metrics registry, mp shard processes, ``random`` state
(reseeded at fork) and its log file.  One replica's crash, SIGKILL or
restart touches no other replica's process; a restart is one more fork
of the same warm server.

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

import json
import os
import select
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ShutdownError
from repro.net.config import NetConfig

__all__ = ["ProcessGroup", "Supervisor"]

#: Pause between readiness probes.  A forked replica accepts connections
#: ~10 ms after its fork (three at once, ~20 ms on 2 CPUs), so a coarser
#: poll quantises every start a caller (or a test) sees.
_READY_POLL = 0.005

#: Interpreter arguments that run the fork server; the deployment file's
#: path follows them.
_FORK_SERVER = ("-c", "from repro.net.forkserver import main; main()")


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


class _ForkServer:
    """The supervisor's end of the fork server's stdin/stdout pipe."""

    #: Seconds to wait for one answer: the first waits for the server's
    #: imports, a ``stop`` for its grace period (forkserver.STOP_GRACE).
    TIMEOUT = 30.0

    def __init__(self, config_path: str, python: str,
                 log_dir: Optional[str]):
        env = dict(os.environ)
        src_root = _repro_pythonpath()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_root if not existing
                             else src_root + os.pathsep + existing)
        stderr = None
        if log_dir is not None:
            stderr = open(Path(log_dir) / "forkserver.log", "ab")
        try:
            self._proc = subprocess.Popen(
                [python, *_FORK_SERVER, config_path], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr)
        finally:
            if stderr is not None:
                stderr.close()
        self._pending = b""
        self._lock = threading.Lock()

    def request(self, op: str, *args: Any) -> Any:
        """Send one request and return its answer."""
        with self._lock:
            try:
                self._proc.stdin.write(json.dumps([op, *args]).encode()
                                       + b"\n")
                self._proc.stdin.flush()
                reply = json.loads(self._read_line())
            except (OSError, ValueError) as error:
                raise ShutdownError(
                    f"fork server gone ({error}); exit status "
                    f"{self._proc.poll()}") from None
        if "error" in reply:
            raise ConfigurationError(reply["error"])
        return reply["ok"]

    def _read_line(self) -> bytes:
        deadline = time.monotonic() + self.TIMEOUT
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [],
                                                   remaining)[0]:
                raise OSError(f"no answer within {self.TIMEOUT}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise OSError("end of file")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def close(self) -> None:
        """Close the pipe: the server stops what it still runs and exits."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=self.TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class ProcessGroup:
    """A named set of replica processes of one deployment.

    Owns the full lifecycle of its members — spawn, readiness wait,
    SIGKILL crash, restart, teardown — and nothing of any other group's:
    restarting this group never touches processes it does not own.  Every
    request goes to the deployment's fork server (``server``), which forks,
    signals and reaps the processes; the group keeps their pids.
    """

    def __init__(self, name: str, config: NetConfig, server: _ForkServer,
                 members: Sequence[int], log_dir: Optional[str] = None):
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
        self._server = server
        self._log_dir = log_dir
        #: replica id -> pid of its current process (live or not).
        self._pids: Dict[int, int] = {}

    # -------------------------------------------------------------- lifecycle

    def spawn(self) -> "ProcessGroup":
        if self._pids:
            raise ShutdownError(f"process group {self.name!r} already spawned")
        for replica_id in self.members:
            self._spawn(replica_id)
        return self

    def _spawn(self, replica_id: int) -> None:
        log = None
        if self._log_dir is not None:
            log = str(Path(self._log_dir) / f"replica-{replica_id}.log")
        self._pids[replica_id] = self._server.request(
            "spawn", replica_id, log)

    def _statuses(self) -> Dict[int, Optional[int]]:
        """replica id -> exit status, None while it runs."""
        replies = self._server.request("poll", sorted(self._pids))
        return {int(replica_id): status
                for replica_id, status in replies.items()}

    def wait_ready(self, timeout: float = 15.0) -> None:
        """Block until every live member's endpoint accepts connections."""
        deadline = time.monotonic() + timeout
        pending = set(self._pids)
        while pending and time.monotonic() < deadline:
            statuses = self._statuses()
            for replica_id in sorted(pending):
                if statuses[replica_id] is not None:
                    raise ConfigurationError(
                        f"replica {replica_id} exited with "
                        f"{statuses[replica_id]} during startup")
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
        if self._pids:
            self._server.request("stop", sorted(self._pids))
        self._pids.clear()

    # ------------------------------------------------------------------ faults

    def kill(self, replica_id: int) -> None:
        """Crash-stop a member process (SIGKILL; nothing gets flushed)."""
        if replica_id not in self._pids:
            raise ConfigurationError(
                f"replica {replica_id} is not a member of group "
                f"{self.name!r}")
        self._server.request("kill", replica_id)

    def restart(self, replica_id: int, timeout: float = 15.0) -> None:
        """Re-spawn a crashed member on its original endpoint."""
        if replica_id not in self.members:
            raise ConfigurationError(
                f"replica {replica_id} is not a member of group "
                f"{self.name!r}")
        if replica_id in self.alive():
            raise ConfigurationError(
                f"replica {replica_id} is still running; kill it first")
        self._spawn(replica_id)
        host, port = self.config.addresses[replica_id]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if _port_open(host, port):
                return
            if self._statuses()[replica_id] is not None:
                break
            time.sleep(_READY_POLL)
        raise ConfigurationError(
            f"replica {replica_id} did not come back within {timeout}s")

    def restart_all(self, timeout: float = 15.0) -> None:
        """Bounce the whole group: kill every member, re-spawn, wait ready."""
        for replica_id in self.members:
            if replica_id in self._pids:
                self.kill(replica_id)
        for replica_id in self.members:
            self._spawn(replica_id)
        self.wait_ready(timeout=timeout)

    def alive(self) -> List[int]:
        if not self._pids:
            return []
        return [replica_id for replica_id, status in self._statuses().items()
                if status is None]

    def pids(self) -> Dict[int, int]:
        """replica id -> OS pid of its current process (live or not)."""
        return dict(self._pids)


class Supervisor:
    """Runs one replica process per cluster member, all forked by one
    fork server."""

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
        self._server: Optional[_ForkServer] = None

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "Supervisor":
        if self._server is not None:
            raise ShutdownError("supervisor already started")
        fd, self._config_path = tempfile.mkstemp(
            prefix="repro-net-", suffix=".json")
        with os.fdopen(fd, "w") as handle:
            handle.write(self.config.to_json())
        try:
            self._server = _ForkServer(self._config_path, self._python,
                                       self._log_dir)
            for name, members in self._group_spec.items():
                self._groups[name] = ProcessGroup(
                    name, self.config, self._server, members,
                    log_dir=self._log_dir).spawn()
        except BaseException:
            self.stop()
            raise
        return self

    def wait_ready(self, timeout: float = 15.0) -> None:
        """Block until every live replica's endpoint accepts connections."""
        deadline = time.monotonic() + timeout
        for group in self._groups.values():
            group.wait_ready(
                timeout=max(0.1, deadline - time.monotonic()))

    def stop(self) -> None:
        """Terminate every replica process and the fork server, and clean
        up.  Idempotent; no process of the deployment outlives it."""
        try:
            for group in self._groups.values():
                group.stop()
        finally:
            self._groups.clear()
            if self._server is not None:
                self._server.close()
                self._server = None
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
