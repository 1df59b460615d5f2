"""Real-network deployment layer: TCP transport, processes, supervisor.

The in-process drivers (:class:`~repro.broadcast.transport.ThreadedTransport`
and the simulated cluster) connect protocol nodes through queues.  This
package provides the third driver the ROADMAP's production north star needs:
a **TCP transport** with the same ``send``/``inbox`` contract, so
:class:`~repro.broadcast.node.ThreadedNode`, the broadcast protocols, and
the replicas run *unchanged* over real sockets — and, through the
multi-process launcher (``python -m repro net ...``), each replica gets its
own OS process, interpreter, and GIL (see ``docs/deployment.md``).

Layers:

- :mod:`repro.net.codec` — JSON-safe, length-prefixed wire codec for the
  protocol messages and :class:`~repro.core.command.Command`.
- :mod:`repro.net.transport` — :class:`TcpTransport`: one ``selectors``
  reactor thread — server socket, per-peer bounded outboxes written in
  coalesced batches, reconnect/backoff/jitter.
- :mod:`repro.net.replica` — :class:`ReplicaServer`: one replica (protocol
  node + execution engine) bound to a TCP endpoint.
- :mod:`repro.net.client` — :class:`NetClient`: the closed-loop SMR client
  over TCP.
- :mod:`repro.net.cluster` — :class:`TcpCluster`: an in-process *loopback*
  cluster (real sockets, one process) mirroring ``ThreadedCluster``'s API
  for tests.
- :mod:`repro.net.supervisor` — :class:`Supervisor`: spawns one OS process
  per replica and manages crash/restart.
- :mod:`repro.net.bench` — loopback throughput/latency benchmark writing a
  JSON artifact (``python -m repro net bench``).
"""

import importlib
from typing import Any

#: Public name -> defining submodule.  Resolved on first use (PEP 562): a
#: replica process imports :mod:`repro.net.replica` without the client,
#: supervisor, loopback-cluster and bench stacks it never runs.
_EXPORTS = {
    "CodecError": "codec",
    "ClientRequest": "messages",
    "ClientResponse": "messages",
    "NetClient": "client",
    "NetConfig": "config",
    "ReplicaServer": "replica",
    "Supervisor": "supervisor",
    "TcpCluster": "cluster",
    "TcpTransport": "transport",
    "decode": "codec",
    "decode_frame": "codec",
    "encode": "codec",
    "encode_frame": "codec",
    "free_port": "config",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
