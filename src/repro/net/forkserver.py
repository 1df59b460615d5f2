"""The fork server: one warm interpreter that forks every replica.

A :class:`~repro.net.supervisor.Supervisor` starts one fork server per
deployment (``python -c "from repro.net.forkserver import main; main()"
CONFIG``).  It imports the replica stack once, loads and validates the
deployment file once, builds one throwaway execution stage so that every
lazy import and the COS kernel's direct-threaded class
(:func:`repro.core.threaded.direct_class`) are done, and then ``os.fork()``s
one child per replica.  A child runs :func:`repro.net.replica.run_replica`
— the code ``net replica`` runs — and never returns into the server.

The server is the replicas' parent: it alone signals and reaps them.  It
takes one request per line on stdin and answers each with one line on
stdout, both JSON: ``["spawn", id, log_path]`` answers the child's pid,
``["kill", id]`` (SIGKILL, then reap) and ``["stop", ids]`` (SIGTERM, a
grace period, SIGKILL) answer exit statuses, ``["poll", ids]`` answers
each one's exit status or ``null`` while it runs.  An exit status is
``subprocess``'s ``returncode`` (``-N`` for signal ``N``).  End of file on
stdin — the supervisor stopped, or its process died — makes the server
stop every replica it forked and exit, so no replica outlives its owner.

This module is imported only by the fork server process, so it imports
nothing a replica does not: the forked replica has ``net replica``'s
module set less ``argparse`` (tests/test_import_budget.py).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.net.config import NetConfig
from repro.net.replica import run_replica
from repro.smr.stack import build_execution

__all__ = ["ForkServer", "main"]

#: Seconds a stopped replica gets between SIGTERM and SIGKILL.
STOP_GRACE = 5.0
#: Pause between non-blocking reaps while waiting for replicas to exit.
_REAP_POLL = 0.002


def _threads() -> int:
    """Threads of this process, native ones included where /proc says."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class ForkServer:
    """Forks, signals and reaps the replicas of one deployment."""

    def __init__(self, config: NetConfig):
        config.validate()
        self.config = config
        # One throwaway execution stage: the imports and the direct class
        # every replica would otherwise do and build after its fork.
        build_execution(config, 0, on_response=None)
        #: replica id -> pid of its latest child.
        self._pids: Dict[int, int] = {}
        #: replica id -> exit status, once its latest child is reaped.
        self._exited: Dict[int, int] = {}

    # ---------------------------------------------------------------- requests

    def spawn(self, replica_id: int, log_path: Optional[str]) -> int:
        """Fork replica ``replica_id``; its stdout and stderr go to
        ``log_path`` (appended) or nowhere."""
        if not 0 <= replica_id < self.config.n_replicas:
            raise ConfigurationError(f"unknown replica {replica_id}")
        if replica_id in self._pids and self._reap(
                replica_id, block=False) is None:
            raise ConfigurationError(
                f"replica {replica_id} is still running; kill it first")
        log = os.open(log_path or os.devnull,
                      os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # A fork copies only the calling thread: any other would leave
            # the locks it holds held forever in the child.
            if _threads() != 1:
                raise RuntimeError("the fork server must fork single-threaded")
            pid = os.fork()
            if pid == 0:
                self._child(replica_id, log)
        finally:
            os.close(log)
        self._pids[replica_id] = pid
        self._exited.pop(replica_id, None)
        return pid

    def kill(self, replica_id: int) -> int:
        """SIGKILL replica ``replica_id`` (crash-stop) and reap it."""
        if replica_id not in self._pids:
            raise ConfigurationError(f"replica {replica_id} was never spawned")
        return self._end([replica_id], signal.SIGKILL, grace=None)[replica_id]

    def stop(self, replica_ids: Iterable[int]) -> Dict[int, int]:
        """SIGTERM, then after :data:`STOP_GRACE` SIGKILL; reap all."""
        ids = [replica_id for replica_id in replica_ids
               if replica_id in self._pids]
        statuses = self._end(ids, signal.SIGTERM, grace=STOP_GRACE)
        for replica_id in ids:
            del self._pids[replica_id]
            del self._exited[replica_id]
        return statuses

    def poll(self, replica_ids: Iterable[int]) -> Dict[int, Optional[int]]:
        """Each replica's exit status, or None while it runs."""
        return {replica_id: self._reap(replica_id, block=False)
                for replica_id in replica_ids if replica_id in self._pids}

    # ----------------------------------------------------------------- serving

    def serve(self, requests: Any, reply_fd: int) -> None:
        """Answer one line per request line until end of file."""
        handlers = {"spawn": self.spawn, "kill": self.kill,
                    "stop": self.stop, "poll": self.poll}
        for line in requests:
            op, *args = json.loads(line)
            try:
                reply: Dict[str, Any] = {"ok": handlers[op](*args)}
            except (ConfigurationError, OSError) as error:
                reply = {"error": f"{op}: {error}"}
            os.write(reply_fd, json.dumps(reply).encode() + b"\n")

    # -------------------------------------------------------------- internals

    def _child(self, replica_id: int, log: int) -> None:
        """The forked replica: fresh stdio, then the replica's whole life."""
        status = 1
        try:
            devnull = os.open(os.devnull, os.O_RDONLY)
            os.dup2(devnull, 0)     # the request pipe is the server's
            os.close(devnull)
            os.dup2(log, 1)         # the reply pipe too
            os.dup2(log, 2)
            os.close(log)
            # The server's own dispositions; run_replica installs its own.
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            status = run_replica(replica_id, self.config)
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)

    def _reap(self, replica_id: int, block: bool) -> Optional[int]:
        if replica_id in self._exited:
            return self._exited[replica_id]
        pid, status = os.waitpid(self._pids[replica_id],
                                 0 if block else os.WNOHANG)
        if pid == 0:
            return None
        self._exited[replica_id] = os.waitstatus_to_exitcode(status)
        return self._exited[replica_id]

    def _end(self, replica_ids: List[int], signum: int,
             grace: Optional[float]) -> Dict[int, int]:
        for replica_id in replica_ids:
            if self._reap(replica_id, block=False) is None:
                os.kill(self._pids[replica_id], signum)
        if grace is not None:
            deadline = time.monotonic() + grace
            while (time.monotonic() < deadline and any(
                    self._reap(replica_id, block=False) is None
                    for replica_id in replica_ids)):
                time.sleep(_REAP_POLL)
            for replica_id in replica_ids:
                if self._reap(replica_id, block=False) is None:
                    os.kill(self._pids[replica_id], signal.SIGKILL)
        return {replica_id: self._reap(replica_id, block=True)
                for replica_id in replica_ids}


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(0)


def main() -> None:
    """Serve the deployment file named by ``sys.argv[1]`` until stdin
    closes, then stop every replica forked and exit."""
    # Ctrl-C in a terminal reaches the whole process group; the supervisor
    # decides what stops.  SIGTERM stops the fleet as end of file does.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _terminate)
    with open(sys.argv[1]) as handle:
        server = ForkServer(NetConfig.from_json(handle.read()))
    try:
        server.serve(sys.stdin.buffer, sys.stdout.fileno())
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        server.stop(list(server._pids))
