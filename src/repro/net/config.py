"""Shared deployment description for the TCP cluster.

One :class:`NetConfig` describes a whole deployment — replica endpoints and
the service/protocol/scheduler parameters every replica process needs.  It
round-trips through JSON so the supervisor can hand it to replica
subprocesses as a file.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.apps import SERVICES
from repro.core.cos import DEFAULT_MAX_SIZE
from repro.errors import ConfigurationError
from repro.net.codec import WIRE_NAMES

__all__ = ["NetConfig", "SERVICES", "free_port", "free_ports",
           "loopback_config"]


def free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """``count`` distinct ephemeral ports, bound-and-released together.

    Every probe socket stays bound until all ports are drawn, so the kernel
    cannot hand the same port out twice within one call (it can, and does,
    across separate bind-and-release calls).  Another process may still
    grab a port between release and use; that race is rare.
    """
    with contextlib.ExitStack() as probes:
        ports = []
        for _ in range(count):
            sock = probes.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            ports.append(sock.getsockname()[1])
        return ports


def free_port(host: str = "127.0.0.1") -> int:
    """One ephemeral port; draw several at once with :func:`free_ports`."""
    return free_ports(1, host)[0]


@dataclass(frozen=True)
class NetConfig:
    """Parameters of one TCP cluster deployment."""

    #: ``addresses[i]`` is replica ``i``'s (host, port) listen endpoint.
    addresses: Tuple[Tuple[str, int], ...]
    service: str = "linked-list"
    protocol: str = "paxos"            # "paxos" | "sequencer"
    #: Consensus groups (state partitions).  1 is the classic single-group
    #: deployment; > 1 runs one ordering protocol per partition behind the
    #: same replica endpoints, with cross-partition commands coordinated by
    #: deterministic rendezvous (docs/partitioning.md).
    n_groups: int = 1
    #: Record merged positions + per-class release order on every grouped
    #: replica (differential suites; state grows with the run — leave off
    #: in long-lived deployments).  Ignored when ``n_groups == 1``.
    record_merge_history: bool = False
    cos_algorithm: str = "lock-free"   # any COS algorithm, or "sequential"
    workers: int = 4
    #: Execution engine per replica: "threaded" (worker threads call the
    #: service in-process) or "mp" (repro.par shard worker processes — true
    #: multi-core execution; see docs/parallel_execution.md).
    engine: str = "threaded"
    #: Shard worker processes per replica when ``engine == "mp"``.
    mp_workers: int = 2
    #: Wire codec on every TCP connection: "json" (tagged JSON, the v0
    #: framing) or "binary" (compact framing; see docs/wire.md).  All
    #: replicas and clients of one deployment must agree.
    wire: str = "json"
    max_graph_size: int = DEFAULT_MAX_SIZE
    batch_size: int = 64
    heartbeat_interval: float = 0.05
    leader_timeout: float = 0.25
    #: Nagle-style proposer linger (paxos only): a sub-full batch waits this
    #: long for more arrivals while earlier instances are in flight.
    #: ``None`` picks a tenth of the heartbeat interval; 0 disables.
    propose_linger: Optional[float] = None
    #: One cumulative ack per batch window instead of per-instance Decide
    #: broadcasts (docs/ordering.md); saves ~a third of ordering messages.
    cumulative_acks: bool = True
    #: Leader-lease window (paxos only).  ``None`` picks 0.8x the leader
    #: timeout; 0 disables leases and local lease reads.
    lease_duration: Optional[float] = None
    #: Clock-skew margin subtracted from the leader's lease hold time.
    #: ``None`` picks an eighth of the lease duration.
    lease_margin: Optional[float] = None
    #: Serve all-read client batches at the leaseholder without a
    #: consensus round (requires leases).
    lease_reads: bool = True
    client_timeout: float = 2.0
    #: ``metrics_addresses[i]`` is replica ``i``'s /metrics HTTP endpoint
    #: (see docs/observability.md); empty disables the endpoint.
    metrics_addresses: Tuple[Tuple[str, int], ...] = ()
    #: Directory for periodic JSON metric snapshots ("" disables).
    metrics_snapshot_dir: str = ""
    metrics_snapshot_interval: float = 1.0
    #: Collect per-command trace spans on each replica's registry (keyed
    #: by the wire-stable ``client_id#request_id``; see repro.obs.spans).
    trace: bool = False

    @property
    def n_replicas(self) -> int:
        return len(self.addresses)

    def validate(self) -> None:
        if self.protocol not in ("paxos", "sequencer"):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "paxos" and self.n_replicas % 2 == 0:
            raise ConfigurationError(
                f"paxos needs an odd replica count, got {self.n_replicas}")
        if self.n_replicas < 1:
            raise ConfigurationError("need at least one replica")
        if self.service not in SERVICES:
            raise ConfigurationError(
                f"unknown service {self.service!r}; choose from {SERVICES}")
        if self.engine not in ("threaded", "mp"):
            raise ConfigurationError(f"unknown engine {self.engine!r}")
        if self.n_groups < 1:
            raise ConfigurationError(
                f"n_groups must be >= 1, got {self.n_groups}")
        if self.engine == "mp" and self.mp_workers < 1:
            raise ConfigurationError(
                f"mp_workers must be >= 1, got {self.mp_workers}")
        if self.wire not in WIRE_NAMES:
            raise ConfigurationError(
                f"unknown wire codec {self.wire!r}; "
                f"choose from {WIRE_NAMES}")
        if self.metrics_addresses and (
                len(self.metrics_addresses) != self.n_replicas):
            raise ConfigurationError(
                f"metrics_addresses must be empty or list one endpoint per "
                f"replica; got {len(self.metrics_addresses)} for "
                f"{self.n_replicas} replicas")
        if self.metrics_snapshot_interval <= 0:
            raise ConfigurationError(
                "metrics_snapshot_interval must be > 0")
        if self.propose_linger is not None and self.propose_linger < 0:
            raise ConfigurationError("propose_linger must be >= 0")
        if self.lease_duration is not None and self.lease_duration < 0:
            raise ConfigurationError("lease_duration must be >= 0")
        if self.lease_margin is not None and self.lease_margin < 0:
            raise ConfigurationError("lease_margin must be >= 0")

    # ------------------------------------------------------------- JSON I/O

    def to_json(self) -> str:
        data = asdict(self)
        data["addresses"] = [list(addr) for addr in self.addresses]
        data["metrics_addresses"] = [
            list(addr) for addr in self.metrics_addresses]
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NetConfig":
        data = json.loads(text)
        data["addresses"] = tuple(
            (str(host), int(port)) for host, port in data["addresses"])
        # Older config files predate the observability fields.
        data["metrics_addresses"] = tuple(
            (str(host), int(port))
            for host, port in data.get("metrics_addresses", ()))
        return cls(**data)

    def address_map(self) -> Dict[int, Tuple[str, int]]:
        return dict(enumerate(self.addresses))

    def with_address(self, replica_id: int,
                     address: Tuple[str, int]) -> "NetConfig":
        addresses: List[Tuple[str, int]] = list(self.addresses)
        addresses[replica_id] = address
        return replace(self, addresses=tuple(addresses))


def loopback_config(n_replicas: int = 3, metrics: bool = False,
                    **overrides) -> NetConfig:
    """A localhost deployment on freshly allocated ephemeral ports.

    With ``metrics=True`` each replica also gets a ``/metrics`` HTTP
    endpoint on its own ephemeral port (docs/observability.md).
    """
    want_metrics = metrics and "metrics_addresses" not in overrides
    endpoints = [("127.0.0.1", port) for port in free_ports(
        n_replicas * (2 if want_metrics else 1))]
    addresses = tuple(endpoints[:n_replicas])
    if want_metrics:
        overrides["metrics_addresses"] = tuple(endpoints[n_replicas:])
    # REPRO_NET_WIRE lets CI run the same deployment tests once per codec
    # without threading a flag through every fixture.
    if "wire" not in overrides:
        overrides["wire"] = os.environ.get("REPRO_NET_WIRE", "json")
    config = NetConfig(addresses=addresses, **overrides)
    config.validate()
    return config
