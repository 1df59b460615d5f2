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

- :mod:`repro.net.codec` / :mod:`repro.net.bincodec` — the wire vocabulary
  (protocol messages, :class:`~repro.core.command.Command`, the client
  envelope) and the binary frame codec that carries it (docs/wire.md).
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
- :mod:`repro.net.supervisor` — :class:`Supervisor`: runs one OS process
  per replica, forked by one fork server (:mod:`repro.net.forkserver`),
  and manages crash/restart.

``python -m repro net supervise`` plus ``python -m repro net client`` load
a deployment by hand; ``benchmarks/e2e/run.py`` times one.
"""

from repro._lazy import exports

#: Resolved on first use (PEP 562): a replica process imports
#: :mod:`repro.net.replica` without the client, supervisor and
#: loopback-cluster stacks it never runs.
__getattr__, __all__ = exports(__name__, {
    ".bincodec": ("decode_frame", "encode_frame"),
    ".client": ("NetClient",),
    ".cluster": ("TcpCluster",),
    ".codec": ("CodecError",),
    ".config": ("NetConfig", "free_port"),
    ".messages": ("ClientRequest", "ClientResponse"),
    ".replica": ("ReplicaServer",),
    ".supervisor": ("Supervisor",),
    ".transport": ("TcpTransport",),
})
