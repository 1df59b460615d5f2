"""A replica process loads a replica — and nothing else.

``python -m repro net replica`` is how the supervisor starts every replica,
so whatever that path imports is resident in each of them: before this
budget existed that was 282 modules and 27.6 MB ahead of ``main()`` —
asyncio, ssl, http.server, the figure, bench, DES and check stacks — for a
process that runs one ``ReplicaServer`` (docs/deployment.md, *Transport*).
The probe below runs the real ``net replica`` handler in a fresh
interpreter and reports ``sys.modules`` at the point where the handler
would wait for SIGTERM.  The supervisor does not start replicas that way:
its fork server (repro.net.forkserver) forks them, so a second probe runs
a real ``Supervisor`` whose fork server reports the same thing from its
first replica.  That replica must load what ``net replica`` loads less
the command line — ``argparse``, and ``shutil``, ``bz2`` and ``lzma``
behind it.

The probe interpreter starts with ``-S`` and its first line is ``import
site``: that loads ``site`` and ``_sitebuiltins`` but runs no
``site.main()``, so no ``.pth`` file in the host's site-packages is
processed.  The count then starts from CPython's stock start-up (32
modules on 3.11.7, the same as a fresh ``python -m venv``), not from
whatever a host's site hooks import before ``repro`` is touched (a
certifi CA hook alone adds 22 modules to every process).  Those hooks are
not the replica's imports.  With no site-packages on the path, a
third-party import on the replica path fails the probe outright.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.net.config import loopback_config

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Nothing a started replica may have imported (prefix match on packages).
FORBIDDEN = (
    "asyncio", "ssl", "http", "email", "concurrent.futures",
    "multiprocessing", "repro.cli", "repro.bench", "repro.sim",
    "repro.check", "repro.spec", "repro.par", "repro.net.bench",
    "repro.net.supervisor", "repro.net.cluster", "repro.smr.cluster",
    "repro.smr.client",
)

#: ``len(sys.modules)`` of a started replica, counted from a stock
#: interpreter start-up (CPython 3.11.7: 168 measured; before the budget
#: existed a replica loaded 282).  Raise it only for a module a replica
#: actually runs.
MODULE_BUDGET = 176

_PROBE = """
import site
import sys
startup = sorted(sys.modules)
import json
print(json.dumps(startup))
import repro.net.cli as cli
import repro.net.replica as replica
# The handler is the real one; only its wait for SIGTERM is replaced.
replica.wait_for_signal = lambda: print(json.dumps(sorted(sys.modules)))
for path in sys.argv[1:]:
    assert cli.main(["replica", "--id", "0", "--config", path]) == 0
"""


#: The forked replica's report, spliced in ahead of the fork server's own
#: code: the wait for SIGTERM first prints ``sys.modules``, then waits.
_FORKED_PROBE = """
import site
import json
import sys
import repro.net.replica as replica
wait = replica.wait_for_signal
def report():
    print(json.dumps(sorted(sys.modules)), flush=True)
    wait()
replica.wait_for_signal = report
"""

#: What ``net replica`` loads for its command line and a forked replica
#: never does.
CLI_ONLY = ("argparse", "shutil", "bz2", "lzma")


def _run(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, text=True,
                          capture_output=True, timeout=60, **kwargs)


def _loaded(modules, name):
    return [m for m in modules if m == name or m.startswith(name + ".")]


def _net_replica_modules(tmp_path, *configs):
    """``sys.modules`` of started ``net replica`` handlers, one list per
    config, after the interpreter's own start-up list."""
    paths = []
    for name, config in configs:
        path = tmp_path / f"{name}.json"
        path.write_text(config.to_json())
        paths.append(str(path))
    result = _run("-S", "-c", _PROBE, *paths)
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()
            if line.startswith("[")]


def test_started_replica_imports_only_what_it_runs(tmp_path):
    startup, plain, with_metrics = _net_replica_modules(
        tmp_path, ("plain", loopback_config(3, wire="binary")),
        ("metrics", loopback_config(3, wire="binary", metrics=True)))
    assert "repro.net.replica" in plain and "repro.net.transport" in plain
    leaked = {name: _loaded(plain, name) for name in FORBIDDEN}
    assert not any(leaked.values()), (
        f"a replica process imported {leaked}")
    assert len(plain) <= MODULE_BUDGET, (
        f"{len(plain)} modules in a started replica, budget "
        f"{MODULE_BUDGET}; the replica path added "
        f"{sorted(set(plain) - set(startup))}")
    # Lazy, not gone: the same process serves /metrics when asked to.
    assert "http.server" in with_metrics


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork server")
def test_forked_replica_imports_net_replica_less_the_cli(tmp_path,
                                                          monkeypatch):
    from repro.net import supervisor

    config = loopback_config(3, wire="binary")
    startup, plain = _net_replica_modules(tmp_path, ("plain", config))
    flag, code = supervisor._FORK_SERVER
    monkeypatch.setattr(supervisor, "_FORK_SERVER",
                        ("-S", flag, _FORKED_PROBE + code))
    log = tmp_path / "replica-0.log"

    def reports():
        return [line for line in log.read_text().splitlines()
                if line.startswith("[") and line.endswith("]")]

    with supervisor.Supervisor(config, log_dir=str(tmp_path)) as fleet:
        fleet.wait_ready()
        deadline = time.monotonic() + 30
        while not reports() and time.monotonic() < deadline:
            time.sleep(0.01)
    forked = json.loads(reports()[0])
    leaked = {name: _loaded(forked, name) for name in FORBIDDEN + CLI_ONLY}
    assert not any(leaked.values()), (
        f"a forked replica imported {leaked}")
    assert len(forked) <= MODULE_BUDGET, (
        f"{len(forked)} modules in a forked replica, budget "
        f"{MODULE_BUDGET}; the replica path added "
        f"{sorted(set(forked) - set(startup))}")
    # The same module set as ``net replica``, less its command line.
    assert set(forked) - set(plain) == {"repro.net.forkserver"}
    cli_only = set(plain) - set(forked)
    assert "argparse" in cli_only and "repro.net.cli" in cli_only
    print(f"net replica loads {len(plain)} modules, a forked replica "
          f"{len(forked)}; only net replica: {sorted(cli_only)}")


@pytest.mark.parametrize("argv", [["net", "replica", "--help"],
                                  ["net", "--help"]])
def test_net_entry_point_bypasses_the_top_level_cli(argv):
    result = _run("-X", "importtime", "-m", "repro", *argv)
    assert result.returncode == 0, result.stderr
    assert "usage: repro net" in result.stdout
    imported = {line.rsplit("|", 1)[1].strip()
                for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "repro.net.cli" in imported
    assert not imported & {"repro.cli", "repro.bench", "repro.sim",
                           "repro.net.supervisor", "repro.net.bench"}
