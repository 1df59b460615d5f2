"""What the TCP runtime adds to a deployment: endpoints and a wire codec.

One :class:`NetConfig` describes a whole TCP deployment — the replica
endpoints on top of the service/protocol/scheduler parameters of its
:class:`~repro.smr.deployment.DeploymentSpec`, which every replica process
needs too.
"""

from __future__ import annotations

import contextlib
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.net.codec import WIRE_NAMES
from repro.smr.deployment import DeploymentSpec

__all__ = ["NetConfig", "free_port", "free_ports", "loopback_config"]


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


Endpoint = Tuple[str, int]


def _endpoints(name: str, value: Any) -> Tuple[Endpoint, ...]:
    """``value`` as (host, port) tuples — JSON hands back nested lists."""
    try:
        return tuple((str(host), int(port)) for host, port in value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must list (host, port) pairs, got {value!r}") from None


@dataclass(frozen=True, kw_only=True)
class NetConfig(DeploymentSpec):
    """A :class:`DeploymentSpec` served over TCP: its endpoints and codec.

    Round-trips through JSON (:meth:`to_json` / :meth:`from_json`) so the
    supervisor can hand it to replica subprocesses as a file.
    """

    #: ``addresses[i]`` is replica ``i``'s (host, port) listen endpoint.
    addresses: Tuple[Endpoint, ...]
    #: Wire codec on every TCP connection; "binary" is the only one
    #: (docs/wire.md), so there is no flag.  The field stays while the
    #: end-to-end benchmark still names the codec (ROADMAP item 1(a)).
    wire: str = field(default="binary", metadata={"choices": WIRE_NAMES})
    #: ``metrics_addresses[i]`` is replica ``i``'s /metrics HTTP endpoint
    #: (see docs/observability.md); empty disables the endpoint.
    metrics_addresses: Tuple[Endpoint, ...] = ()
    #: Collect per-command trace spans on each replica's registry (keyed
    #: by the wire-stable ``client_id#request_id``; see repro.obs.spans).
    trace: bool = False

    def __post_init__(self) -> None:
        for name in ("addresses", "metrics_addresses"):
            object.__setattr__(
                self, name, _endpoints(name, getattr(self, name)))

    @property
    def n_replicas(self) -> int:
        return len(self.addresses)

    def validate(self) -> None:
        super().validate()
        if self.metrics_addresses and (
                len(self.metrics_addresses) != self.n_replicas):
            raise ConfigurationError(
                f"metrics_addresses must be empty or list one endpoint per "
                f"replica; got {len(self.metrics_addresses)} for "
                f"{self.n_replicas} replicas")

    def address_map(self) -> Dict[int, Endpoint]:
        return dict(enumerate(self.addresses))


def loopback_config(n_replicas: int = 3, metrics: bool = False,
                    **overrides) -> NetConfig:
    """A localhost deployment on freshly allocated ephemeral ports.

    With ``metrics=True`` each replica also gets a ``/metrics`` HTTP
    endpoint on its own ephemeral port (docs/observability.md).
    """
    endpoints = [("127.0.0.1", port) for port in free_ports(
        n_replicas * (2 if metrics else 1))]
    config = NetConfig(addresses=endpoints[:n_replicas],
                       metrics_addresses=endpoints[n_replicas:], **overrides)
    config.validate()
    return config
