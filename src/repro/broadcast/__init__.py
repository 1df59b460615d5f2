"""Atomic broadcast substrate (BFT-SMaRt stand-in, crash model).

Pure protocol state machines (:class:`MultiPaxos`, fault tolerant;
:class:`SequencerBroadcast`, fast path), an in-memory transport with fault
injection, and a threaded event-loop adapter.
"""

from repro._lazy import exports

#: Resolved on first use (PEP 562): a Paxos replica never loads the
#: sequencer.
__getattr__, __all__ = exports(__name__, {
    ".failure_detector": ("LeaseGrant", "QuorumLease", "TimeoutTracker"),
    ".messages": ("Accept", "Accepted", "Ballot", "CatchupReply",
                  "CatchupRequest", "Decide", "Deliver", "DeliverRead",
                  "Forward", "Heartbeat", "HeartbeatAck", "Nack", "Prepare",
                  "Promise", "Send", "SequencerStamp", "SetTimer"),
    ".node": ("ThreadedNode",),
    ".paxos": ("NOOP", "MultiPaxos"),
    ".sequencer": ("SequencerBroadcast",),
    ".storage": ("InMemoryStableStore", "StableStore"),
    ".transport": ("FaultPlan", "LinkFate", "ThreadedTransport"),
})
