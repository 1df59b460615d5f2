"""The one description of a deployment.

:class:`DeploymentSpec` says *what is replicated and how it is ordered,
scheduled and executed* (the paper's §7.1 deployment: one service, one
ordering protocol, one COS, N workers).  Both live runtimes are configured
by a thin subclass that adds only what that runtime needs —
:class:`~repro.smr.cluster.ClusterConfig` the in-process test hooks,
:class:`~repro.net.config.NetConfig` the endpoints and the wire codec — and
:mod:`repro.smr.stack` builds every replica from the fields declared here.
They are declared, documented and validated once, in this file.

A field whose metadata carries a ``flag`` is settable from the command
line: :func:`add_flags` turns those fields into ``argparse`` options
(spelling, choices and help come from the metadata, the default from the
field) and :func:`flag_values` reads them back by field name, so a flag
cannot exist without reaching the replicas.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional, Sequence

from repro.apps import SERVICES
from repro.core import COS_ALGORITHMS
from repro.errors import ConfigurationError

__all__ = ["ENGINES", "PROTOCOLS", "DeploymentSpec", "add_flags",
           "cli_flag", "flag_values"]

PROTOCOLS = ("paxos", "sequencer")
ENGINES = ("threaded", "mp")


def cli_flag(*names: str, help: str,
             choices: Optional[Sequence[str]] = None,
             type: Optional[type] = None) -> Dict[str, Any]:
    """Field metadata declaring a command-line flag (see :func:`add_flags`).

    ``type`` is only needed where the default (``None``) does not show it.
    """
    return {"flag": names, "help": help, "choices": choices, "type": type}


@dataclass(frozen=True, kw_only=True)
class DeploymentSpec:
    """What a deployment replicates and how (see the module docstring)."""

    #: Registered service name (repro.apps.SERVICES) + factory kwargs.
    #: Process boundaries (replica processes, mp shard workers) rebuild the
    #: service from this pair; live instances do not cross them.
    service: str = field(default="linked-list", metadata=cli_flag(
        "--service", choices=SERVICES, help="replicated service"))
    service_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Consensus groups (state partitions).  1 is the classic single-order
    #: deployment; > 1 runs one ordering protocol per partition and merges
    #: the streams per replica, with cross-partition commands coordinated
    #: by deterministic rendezvous (docs/partitioning.md).
    n_groups: int = field(default=1, metadata=cli_flag(
        "--groups", help="consensus groups (state partitions) per replica "
                         "(docs/partitioning.md)"))
    #: Record merged positions + per-class release order on every grouped
    #: replica (differential suites; state grows with the run — leave off
    #: in long-lived deployments).  Ignored when ``n_groups == 1``.
    record_history: bool = False
    protocol: str = field(default="paxos", metadata=cli_flag(
        "--protocol", choices=PROTOCOLS, help="ordering protocol"))
    cos_algorithm: str = field(default="lock-free", metadata=cli_flag(
        "--algorithm", "--scheduler", choices=COS_ALGORITHMS,
        help="COS scheduler; 'sequential' is classic SMR "
             "(docs/scheduling.md)"))
    workers: int = field(default=4, metadata=cli_flag(
        "--workers", help="worker threads per replica"))
    #: Execution engine per replica: "threaded" (worker threads call the
    #: service in-process) or "mp" (repro.par shard worker processes — true
    #: multi-core execution; see docs/parallel_execution.md).
    engine: str = field(default="threaded", metadata=cli_flag(
        "--engine", choices=ENGINES,
        help="execution engine: worker threads, or shard worker processes "
             "(docs/parallel_execution.md)"))
    mp_workers: int = field(default=2, metadata=cli_flag(
        "--mp-workers", help="shard processes per replica with --engine mp"))
    #: Optimistic (speculative) execution over the sequencer fast path:
    #: replicas execute on optimistic delivery and withhold responses
    #: until the conservative order confirms (repro.spec,
    #: docs/speculation.md).
    speculative: bool = False
    batch_size: int = 64
    heartbeat_interval: float = 0.05
    leader_timeout: float = 0.25
    #: Nagle-style proposer linger (paxos only): a sub-full batch waits this
    #: long for more arrivals while earlier instances are in flight.
    #: ``None`` picks a tenth of the heartbeat interval; 0 disables.
    propose_linger: Optional[float] = field(default=None, metadata=cli_flag(
        "--propose-linger", type=float,
        help="Nagle-style proposer linger in seconds; default is a tenth "
             "of the heartbeat interval (docs/ordering.md)"))
    #: One cumulative ack per batch window instead of per-instance Decide
    #: broadcasts (docs/ordering.md); saves ~a third of ordering messages.
    cumulative_acks: bool = field(default=True, metadata=cli_flag(
        "--no-cumulative-acks",
        help="broadcast a Decide per instance instead of piggybacking "
             "cumulative acks"))
    #: Leader-lease window (paxos only).  ``None`` picks 0.8x the leader
    #: timeout; 0 disables leases and local lease reads.  The leader stops
    #: serving an eighth of it early (the clock-skew margin).
    lease_duration: Optional[float] = field(default=None, metadata=cli_flag(
        "--lease-duration", type=float,
        help="leader-lease window in seconds; default is 0.8x the leader "
             "timeout, 0 disables leases (docs/ordering.md)"))
    #: Serve all-read client batches at the leaseholder without a
    #: consensus round (requires leases).
    lease_reads: bool = field(default=True, metadata=cli_flag(
        "--no-lease-reads",
        help="order read-only batches instead of serving them locally at "
             "the leaseholder"))
    #: How long this deployment's clients wait for a reply before retrying.
    client_timeout: float = 2.0

    @property
    def n_replicas(self) -> int:
        """Replica count; every runtime's subclass says where it comes
        from (a field in process, the endpoint list over TCP)."""
        raise NotImplementedError

    def validate(self) -> None:
        """The only check of the fields above (subclasses add their own)."""
        if self.n_replicas < 1:
            raise ConfigurationError("need at least one replica")
        for f in fields(self):
            # What the command line may choose from is what is accepted.
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ConfigurationError(
                    f"unknown {f.name} {getattr(self, f.name)!r}; choose "
                    f"from {tuple(choices)}")
        if self.protocol == "paxos" and self.n_replicas % 2 == 0:
            raise ConfigurationError(
                f"paxos needs an odd replica count, got {self.n_replicas}")
        for name in ("n_groups", "workers", "mp_workers", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.client_timeout <= 0:
            raise ConfigurationError("client_timeout must be > 0")
        for name in ("propose_linger", "lease_duration"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.speculative:
            if self.protocol != "sequencer":
                raise ConfigurationError(
                    "speculative execution rides the sequencer's optimistic "
                    "delivery; use protocol='sequencer'")
            if self.engine != "threaded":
                raise ConfigurationError(
                    "speculative execution requires the threaded engine "
                    "(undo capture is not plumbed through shard processes)")
            if self.n_groups > 1:
                raise ConfigurationError(
                    "speculative execution is single-group only (the merge "
                    "stage has no optimistic stream)")

    # ------------------------------------------------------------- JSON I/O

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        """Parse :meth:`to_json` output.  It is outside input: whatever is
        wrong with it is a :class:`ConfigurationError`."""
        try:
            return cls(**json.loads(text))
        except (TypeError, ValueError) as error:
            # Not JSON, not an object, or — named in the TypeError — a key
            # that is no field or a required field that is missing.
            raise ConfigurationError(
                f"not a deployment document: {error}") from None


def add_flags(parser: Any, spec: type) -> None:
    """Add one ``argparse`` option per flagged field of ``spec``.

    The option's ``dest`` is the field name.  A boolean field's flag flips
    its default (``--no-lease-reads`` for a field that defaults to true).
    """
    for f in fields(spec):
        meta = f.metadata
        if "flag" not in meta:
            continue
        if isinstance(f.default, bool):
            parser.add_argument(
                *meta["flag"], dest=f.name, help=meta["help"],
                action="store_false" if f.default else "store_true")
        else:
            parser.add_argument(
                *meta["flag"], dest=f.name, default=f.default,
                type=meta["type"] or type(f.default),
                choices=meta["choices"], help=meta["help"])


def flag_values(args: Any, spec: type) -> Dict[str, Any]:
    """The parsed :func:`add_flags` options of ``spec``, by field name."""
    return {f.name: getattr(args, f.name) for f in fields(spec)
            if "flag" in f.metadata}
