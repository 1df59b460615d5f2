"""Drives an ordering-protocol state machine on the virtual clock.

The protocols of :mod:`repro.broadcast` are pure state machines returning
actions; this is their discrete-event driver, shared by the simulated SMR
cluster (:mod:`repro.smr.sim_cluster`) and the speculation DES
(:mod:`repro.spec.sim`).  Not re-exported from :mod:`repro.sim`, so the
standalone simulations do not load the broadcast layer.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.broadcast.messages import (
    Deliver,
    DeliverOptimistic,
    DeliverRead,
    Send,
    SetTimer,
)
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator

__all__ = ["SimProtocolNode"]


class SimProtocolNode:
    """One protocol node: every ``Send`` takes ``link_delay(msg)`` virtual
    seconds to reach its peer — called once per message in send order, so a
    seeded draw inside it is reproducible; timers fire on the simulator's
    clock."""

    def __init__(
        self,
        node_id: int,
        protocol: Any,
        sim: Simulator,
        link_delay: Callable[[Any], float],
        on_deliver: Callable[[Any], None],
        on_optimistic: Optional[Callable[[Any], None]] = None,
    ):
        self.node_id = node_id
        self.protocol = protocol
        self._sim = sim
        self._link_delay = link_delay
        self._on_deliver = on_deliver
        #: ``None`` drops optimistic deliveries (they are advisory).
        self._on_optimistic = on_optimistic
        self.peers: List["SimProtocolNode"] = []

    def start(self) -> None:
        self._perform(self.protocol.start())

    def submit(self, payload: Any) -> None:
        self._perform(self.protocol.submit(payload))

    def on_message(self, src: int, msg: Any) -> None:
        self._perform(self.protocol.on_message(src, msg))

    def _perform(self, actions: List[Any]) -> None:
        for action in actions:
            kind = type(action)
            if kind is Send:
                peer = self.peers[action.dst]
                self._sim.schedule(
                    self._link_delay(action.msg),
                    lambda p=peer, m=action.msg: p.on_message(self.node_id, m))
            elif kind is Deliver or kind is DeliverRead:
                # The DES drives only the ordered path: a lease read is a
                # local delivery without an instance number.
                self._on_deliver(action.payload)
            elif kind is DeliverOptimistic:
                if self._on_optimistic is not None:
                    self._on_optimistic(action.payload)
            elif kind is SetTimer:
                self._sim.schedule(
                    action.delay,
                    lambda n=action.name: self._perform(
                        self.protocol.on_timer(n)))
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown action {action!r}")
