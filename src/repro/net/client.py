"""Closed-loop SMR client over TCP.

A :class:`NetClient` owns a small :class:`~repro.net.transport.TcpTransport`
of its own (clients listen too — replicas dial back with responses) and
wraps the unchanged :class:`~repro.smr.client.Client` retry/batching logic:
``submit`` becomes a :class:`~repro.net.messages.ClientRequest` frame to the
contact replica, and received :class:`~repro.net.messages.ClientResponse`
frames feed ``deliver_response``.

A client's transport node id is its reply endpoint packed into one int
above the replica id range.  No two live clients of a deployment listen on
one endpoint, so none share a node id, whether they run in one process or
in many.
"""

from __future__ import annotations

import ipaddress
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.command import Command
from repro.errors import ConfigurationError
from repro.net.config import NetConfig, free_port
from repro.net.messages import ClientRequest, ClientResponse
from repro.net.transport import TcpTransport
from repro.smr.client import Client

__all__ = ["NetClient"]

#: Client node ids start well above any realistic replica count.
CLIENT_ID_BASE = 1_000


class NetClient:
    """Blocking client of a TCP cluster."""

    def __init__(
        self,
        client_id: str,
        config: NetConfig,
        contact: int = 0,
        timeout: Optional[float] = None,
        max_retries: int = 5,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
    ):
        try:
            ip = int(ipaddress.ip_address(host))
        except ValueError:
            raise ConfigurationError(
                f"client host must be an IP address, got {host!r}") from None
        self.client_id = client_id
        self.config = config
        self._host = host
        self._port = free_port(host) if port is None else port
        self.node_id = CLIENT_ID_BASE + (ip << 16 | self._port)
        addresses = config.address_map()
        addresses[self.node_id] = (self._host, self._port)
        self.transport = TcpTransport(
            self.node_id, addresses, interceptor=self._on_message,
            seed=self.node_id, wire=config.wire,
        ).start()
        self._client = Client(
            client_id,
            self._submit,
            config.n_replicas,
            contact=contact,
            timeout=config.client_timeout if timeout is None else timeout,
            max_retries=max_retries,
        )

    # ------------------------------------------------------------------ API

    def execute(self, command: Command) -> Any:
        return self._client.execute(command)

    def execute_batch(self, commands: Sequence[Command]) -> List[Any]:
        return self._client.execute_batch(commands)

    @property
    def requests_issued(self) -> int:
        return self._client.requests_issued

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------- plumbing

    def _submit(self, payload: Tuple[Command, ...], contact: int) -> None:
        request = ClientRequest(
            payload=payload,
            reply_to=self.node_id,
            reply_host=self._host,
            reply_port=self._port,
            client_id=self.client_id,
            read_only=bool(payload) and all(not c.writes for c in payload),
        )
        self.transport.send(
            self.node_id, contact % self.config.n_replicas, request)

    def _on_message(self, src: int, msg: Any) -> bool:
        if isinstance(msg, ClientResponse):
            self._client.deliver_response(msg.command, msg.response)
        return True  # a client consumes everything; nothing feeds an inbox
