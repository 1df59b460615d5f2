"""Deterministic counterexample replay files, one format for every checker.

A replay file is a small JSON document freezing everything a violation
needs to reproduce: the checker's configuration (the system under check is
derived deterministically from it) and the exact decision sequence::

    {
      "version": 2,
      "harness": "paxos-lease",
      "config": {"n_nodes": 3, "lease_duration": 0.16, ...},
      "decisions": ["iso:0", "lt:1", "lt:1", "deliver:42", ...],
      "violation": {"kind": "lease-overlap", "message": "...", "step": 4}
    }

``"harness"`` names the protocol-level harness
(:func:`~repro.check.mutants.protocol_harnesses`) the file belongs to, and
``"version"`` is that harness's own.  A file without the key is a COS
replay (version 1): its decisions are process names, and its replay is
*strict* — a decision naming a non-runnable process is an error, never a
silent divergence.  A protocol harness's decisions cannot stop applying
(those that do not fit are deterministic no-ops), so its recorded list
re-runs as it stands.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.check.explorer import run_schedule
from repro.check.harness import CheckConfig, run_with_decisions
from repro.check.mutants import harness_of, protocol_harnesses
from repro.check.oracle import Violation
from repro.errors import SimulationError

__all__ = ["save_replay", "load_replay", "replay"]

#: Version of COS replay files (the ones without a ``"harness"`` key).
_COS_VERSION = 1


def save_replay(path: str, config: Any, decisions: List[str],
                violation: Violation) -> None:
    """Write a counterexample replay file for any checker's config."""
    if isinstance(config, CheckConfig):
        document: Dict[str, Any] = {"version": _COS_VERSION}
    else:
        harness = harness_of(config)
        document = {"version": harness.version, "harness": harness.name}
    document.update(
        config=asdict(config),
        decisions=list(decisions),
        violation={
            "kind": violation.kind,
            "message": violation.message,
            "step": violation.step,
        },
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def load_replay(path: str) -> Tuple[Any, List[str], Violation]:
    """Read a replay file back into (config, decisions, recorded violation).

    The config's type says which checker the file belongs to: a
    :class:`~repro.check.harness.CheckConfig` for a COS replay.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document: Dict[str, Any] = json.load(handle)
    name = document.get("harness")
    if name is None:
        config_type, version = CheckConfig, _COS_VERSION
    elif name in protocol_harnesses():
        harness = protocol_harnesses()[name]
        config_type, version = harness.config, harness.version
    else:
        raise SimulationError(f"{path}: unknown replay harness {name!r}")
    if document.get("version") != version:
        raise SimulationError(
            f"unsupported replay file version {document.get('version')!r}")
    config = config_type(**document["config"])
    recorded = document["violation"]
    violation = Violation(recorded["kind"], recorded["message"],
                          recorded.get("step"))
    return config, list(document["decisions"]), violation


def replay(path: str, *, max_steps: int = 50_000) -> Optional[Violation]:
    """Re-execute a replay file; returns the violation observed.

    Returns ``None`` if the recorded schedule no longer violates the
    specification (e.g. the bug was fixed).  A COS replay raises
    :class:`~repro.errors.SimulationError` if the recorded decisions no
    longer apply to the program (the implementation's effect sequence
    changed); ``max_steps`` bounds its run.
    """
    config, decisions, _recorded = load_replay(path)
    if not isinstance(config, CheckConfig):
        return run_schedule(config, decisions)
    exe = run_with_decisions(config, decisions, strict=True,
                             max_steps=max_steps)
    if exe.violation is not None:
        return exe.violation
    if not exe.runnable():
        return exe.terminal_violation()
    return None
