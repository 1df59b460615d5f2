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

The ``net replica`` probe interpreter starts with ``-S`` and its first
line is ``import site``: that loads ``site`` and ``_sitebuiltins`` but
runs no ``site.main()``, so no ``.pth`` file in the host's site-packages
is processed.  The count then starts from CPython's stock start-up (32
modules on 3.11.7, the same as a fresh ``python -m venv``), not from
whatever a host's site hooks import before ``repro`` is touched (a
certifi CA hook alone adds 22 modules to every process).  Those hooks are
not the replica's imports.  With no site-packages on the path, a
third-party import on the replica path fails the probe outright.  The
fork server itself runs with ``-S`` and no ``import site`` at all.

The fork server loads what a replica of its deployment runs, and only
that: before its first fork it imports everything the replica will (a
forked replica imports nothing after its fork), and the package
``__init__``s re-export lazily, so a deployment's configuration decides
which scheduler, service, protocol and group stages are loaded.
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
    "repro.check", "repro.spec", "repro.par",
    "repro.net.supervisor", "repro.net.cluster", "repro.smr.cluster",
    "repro.smr.client",
)

#: Partitioned ordering's stages; a single-group replica loads only its
#: wire payloads (``repro.groups.messages``, which the codec registers).
GROUP_STAGES = (
    "repro.groups.merge", "repro.groups.partition", "repro.groups.stage",
)

#: What a single-group Paxos, lock-free, linked-list replica never runs:
#: the other schedulers, services and protocol, partitioned ordering, the
#: workload generator and the ``/metrics`` exposition.
LEAN_FORBIDDEN = (
    "repro.core.early", "repro.core.indexed", "repro.core.class_based",
    "repro.core.coarse_grained", "repro.core.fine_grained",
    "repro.core.history", "repro.core.sequential", *GROUP_STAGES,
    "repro.broadcast.sequencer", "repro.apps.bank", "repro.apps.kvstore",
    "repro.workload", "repro.obs.expose",
)

#: ``len(sys.modules)`` of a started replica, counted from a stock
#: interpreter start-up (CPython 3.11.7: 151 measured; before the budget
#: existed a replica loaded 282, before the lazy package re-exports 168).
#: Raise it only for a module a replica actually runs.
MODULE_BUDGET = 153

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
#: The fork server reports its own to its log as it starts serving, which
#: is after its imports and before its first fork.
_FORKED_PROBE = """
import json
import sys
import repro.net.forkserver as forkserver
import repro.net.replica as replica
wait = replica.wait_for_signal
def report():
    print(json.dumps(sorted(sys.modules)), flush=True)
    wait()
replica.wait_for_signal = report
serve = forkserver.ForkServer.serve
def serve_reporting(self, *args):
    print(json.dumps(sorted(sys.modules)), file=sys.stderr, flush=True)
    serve(self, *args)
forkserver.ForkServer.serve = serve_reporting
"""

#: The modules a fork server loads for one deployment file, in an
#: interpreter started as the supervisor starts it.
_SERVER_PROBE = """
import json
import sys
from repro.net.config import NetConfig
from repro.net.forkserver import ForkServer
with open(sys.argv[1]) as handle:
    ForkServer(NetConfig.from_json(handle.read()))
print(json.dumps(sorted(sys.modules)))
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


def _reports(path):
    """The ``sys.modules`` lists a probe printed to the file at ``path``."""
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.startswith("[") and line.endswith("]")]


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
        tmp_path, ("plain", loopback_config(3)),
        ("metrics", loopback_config(3, metrics=True)))
    assert "repro.net.replica" in plain and "repro.net.transport" in plain
    leaked = {name: _loaded(plain, name)
              for name in FORBIDDEN + LEAN_FORBIDDEN}
    assert not any(leaked.values()), (
        f"a replica process imported {leaked}")
    assert len(plain) <= MODULE_BUDGET, (
        f"{len(plain)} modules in a started replica, budget "
        f"{MODULE_BUDGET}; the replica path added "
        f"{sorted(set(plain) - set(startup))}")
    # Lazy, not gone: the same process serves /metrics when asked to.
    assert "http.server" in with_metrics


@pytest.mark.parametrize("overrides, loads, never", [
    ({}, (), LEAN_FORBIDDEN),
    ({"protocol": "sequencer"}, ("repro.broadcast.sequencer",),
     GROUP_STAGES),
    ({"n_groups": 2, "service": "linked-list-keyed"},
     ("repro.groups.stage",), ("repro.broadcast.sequencer",)),
    ({"cos_algorithm": "early", "service": "kv"},
     ("repro.core.early", "repro.apps.kvstore"),
     ("repro.core.indexed", "repro.apps.linked_list")),
], ids=["paxos-lock-free-linked-list", "sequencer", "two-groups",
        "early-kv"])
def test_fork_server_loads_what_its_deployment_runs(tmp_path, overrides,
                                                    loads, never):
    from repro.net import supervisor

    path = tmp_path / "deployment.json"
    path.write_text(loopback_config(3, **overrides).to_json())
    flags = supervisor._FORK_SERVER[:-2]
    result = _run(*flags, "-c", _SERVER_PROBE, str(path))
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    for name in loads:
        assert name in modules, f"{overrides}: {name} not loaded"
    leaked = {name: _loaded(modules, name) for name in never + FORBIDDEN}
    assert not any(leaked.values()), f"{overrides}: loaded {leaked}"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork server")
def test_forked_replica_imports_net_replica_less_the_cli(tmp_path,
                                                          monkeypatch):
    from repro.net import supervisor

    config = loopback_config(3)
    startup, plain = _net_replica_modules(tmp_path, ("plain", config))
    *flags, code = supervisor._FORK_SERVER
    assert "-S" in flags, "the fork server must run no site hooks"
    monkeypatch.setattr(supervisor, "_FORK_SERVER",
                        (*flags, _FORKED_PROBE + code))
    log = tmp_path / "replica-0.log"

    with supervisor.Supervisor(config, log_dir=str(tmp_path)) as fleet:
        fleet.wait_ready()
        deadline = time.monotonic() + 30
        while not _reports(log) and time.monotonic() < deadline:
            time.sleep(0.01)
    forked = _reports(log)[0]
    server = _reports(tmp_path / "forkserver.log")[0]
    leaked = {name: _loaded(forked, name)
              for name in FORBIDDEN + CLI_ONLY + LEAN_FORBIDDEN}
    assert not any(leaked.values()), (
        f"a forked replica imported {leaked}")
    assert len(forked) <= MODULE_BUDGET, (
        f"{len(forked)} modules in a forked replica, budget "
        f"{MODULE_BUDGET}; the replica path added "
        f"{sorted(set(forked) - set(startup))}")
    # Nothing is imported (so nothing compiled) after the fork: the fork
    # server loaded all of it first.
    assert set(forked) <= set(server), (
        f"imported after the fork: {sorted(set(forked) - set(server))}")
    # The same module set as ``net replica``, less its command line; the
    # fork server adds itself and ``gc`` (it collects its throwaway
    # replica before forking).
    assert set(forked) - set(plain) == {"repro.net.forkserver", "gc"}
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
                           "repro.net.supervisor"}
