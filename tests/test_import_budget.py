"""A replica process loads a replica — and nothing else.

``python -m repro net replica`` is how the supervisor starts every replica,
so whatever that path imports is resident in each of them: before this
budget existed that was 282 modules and 27.6 MB ahead of ``main()`` —
asyncio, ssl, http.server, the figure, bench, DES and check stacks — for a
process that runs one ``ReplicaServer`` (docs/deployment.md, *Transport*).
The probe below runs the real ``net replica`` handler in a fresh
interpreter and reports ``sys.modules`` at the point where the handler
would wait for SIGTERM.
"""

import json
import os
import subprocess
import sys
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

#: ``len(sys.modules)`` of a started replica (CPython 3.11: 170 measured;
#: the parent commit loaded 282).  Raise it only for a module a replica
#: actually runs.
MODULE_BUDGET = 176

_PROBE = """
import json, sys
import repro.net.cli as cli
# The handler is the real one; only its wait for SIGTERM is replaced.
cli._wait_for_signal = lambda: print(json.dumps(sorted(sys.modules)))
for path in sys.argv[1:]:
    assert cli.main(["replica", "--id", "0", "--config", path]) == 0
"""


def _run(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, text=True,
                          capture_output=True, timeout=60, **kwargs)


def _loaded(modules, name):
    return [m for m in modules if m == name or m.startswith(name + ".")]


def test_started_replica_imports_only_what_it_runs(tmp_path):
    paths = []
    for name, metrics in (("plain", False), ("metrics", True)):
        path = tmp_path / f"{name}.json"
        path.write_text(
            loopback_config(3, wire="binary", metrics=metrics).to_json())
        paths.append(str(path))
    result = _run("-c", _PROBE, *paths)
    assert result.returncode == 0, result.stderr
    plain, with_metrics = [
        json.loads(line) for line in result.stdout.splitlines()
        if line.startswith("[")]
    assert "repro.net.replica" in plain and "repro.net.transport" in plain
    leaked = {name: _loaded(plain, name) for name in FORBIDDEN}
    assert not any(leaked.values()), (
        f"a replica process imported {leaked}")
    assert len(plain) <= MODULE_BUDGET, (
        f"{len(plain)} modules in a started replica, budget "
        f"{MODULE_BUDGET}: {plain}")
    # Lazy, not gone: the same process serves /metrics when asked to.
    assert "http.server" in with_metrics


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
