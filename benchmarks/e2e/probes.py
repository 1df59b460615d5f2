"""Per-layer probes and scrapes: where one command's time goes.

*Probe* functions replay the workload's own commands through one layer's
public functions in isolation and time the calls.  :class:`ScrapeDelta`
turns two snapshots of the replicas' metric registries (``/metrics.json``)
into counter and histogram deltas.  Everything here uses public ``repro``
names only, so a later change to a layer's internals cannot break its probe.

Every probe takes the workload's command stream and returns
``{metric name: value}``.
"""

from __future__ import annotations

import threading
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import build_service
from repro.broadcast import (Accept, Accepted, FaultPlan, Heartbeat,
                             MultiPaxos, ThreadedNode, ThreadedTransport)
from repro.core import ThreadedCOS, ThreadedRuntime, make_cos
from repro.core.command import Command
from repro.net import ClientRequest, ClientResponse, TcpTransport, free_port
from repro.net.codec import wire_codec
from repro.smr.replica import ParallelReplica
from repro.workload import WorkloadGenerator

from workloads import (COS_ALGORITHM, KEY_SPACE, N_REPLICAS, SERVICE, WORKERS,
                       Workload)

__all__ = ["ScrapeDelta", "run_probes", "probe_generator", "probe_codec",
           "probe_transport", "probe_ordering", "probe_cos", "probe_replica",
           "probe_app"]

WIRE = "binary"


def _stamp(commands: Sequence[Command]) -> List[Command]:
    """The commands as virtual clients would send them."""
    return [Command(command.op, command.args, f"vc{index % 32}",
                    index // 32 + 1, writes=command.writes)
            for index, command in enumerate(commands)]


# --------------------------------------------------------------- scrapes


class ScrapeDelta:
    """Counter and histogram movement between two registry scrapes.

    ``before``/``after`` hold one snapshot per replica.  Series are summed
    over their label sets (``net_frames_sent_total{peer=...}``).
    """

    def __init__(self, before: List[Dict[str, Any]],
                 after: List[Dict[str, Any]]):
        self._before = before
        self._after = after

    @staticmethod
    def _series(snapshot: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
        return [series for key, series in snapshot.items()
                if key == name or key.startswith(name + "{")]

    def count(self, name: str, replicas: Optional[Sequence[int]] = None,
              field: str = "value") -> float:
        """Summed movement of ``name`` (a histogram's ``count``/``sum``)."""
        chosen = range(len(self._after)) if replicas is None else replicas
        total = 0.0
        for replica in chosen:
            total += sum(series[field] for series
                         in self._series(self._after[replica], name))
            total -= sum(series[field] for series
                         in self._series(self._before[replica], name))
        return total

    def quantile(self, name: str, replica: int, q: float) -> float:
        """Bucket-interpolated quantile of what a histogram observed."""
        after = self._series(self._after[replica], name)
        before = self._series(self._before[replica], name)
        if not after:
            return 0.0
        counts = [bucket["count"] for bucket in after[0]["buckets"]]
        if before:
            counts = [count - bucket["count"] for count, bucket
                      in zip(counts, before[0]["buckets"])]
        bounds = [bucket["le"] for bucket in after[0]["buckets"]]
        target = q * sum(counts)
        seen = 0.0
        for index, count in enumerate(counts):
            if count and seen + count >= target:
                if bounds[index] == "+Inf":
                    return float(bounds[index - 1])
                lower = 0.0 if index == 0 else float(bounds[index - 1])
                return lower + (float(bounds[index]) - lower) * (
                    (target - seen) / count)
            seen += count
        return 0.0


# ---------------------------------------------------------------- probes


def probe_generator(workload: Workload, seed: int) -> Dict[str, float]:
    count = 4000
    generator = WorkloadGenerator(
        workload.write_pct, key_space=KEY_SPACE, seed=seed)
    began = time.perf_counter()
    generator.commands(count)
    return {"loadgen.gen_us_per_cmd":
            (time.perf_counter() - began) / count * 1e6}


def frame_panel(commands: Sequence[Command]) -> List[Tuple[int, Any]]:
    """The frames the workload's first commands put on the wire.

    One ``ClientRequest`` and one ``ClientResponse`` per command, one
    ``Accept``/``Accepted`` pair per 8 commands (a typical batch under
    load), one ``Heartbeat`` per 50.
    """
    stamped = _stamp(commands)
    ballot = (1, 0)
    frames: List[Tuple[int, Any]] = []
    for index, command in enumerate(stamped):
        frames.append((1000, ClientRequest(
            payload=(command,), reply_to=1000, reply_host="127.0.0.1",
            reply_port=40000, client_id=command.client_id,
            read_only=not command.writes)))
        frames.append((0, ClientResponse(command, index % 2 == 0, 0)))
        if index % 8 == 7:
            instance = index // 8
            value = tuple((c,) for c in stamped[index - 7:index + 1])
            frames.append((0, Accept(ballot, instance, value, instance - 1)))
            frames.append((1, Accepted(ballot, instance, instance)))
        if index % 50 == 49:
            frames.append((0, Heartbeat(ballot, index // 8, float(index))))
    return frames


def probe_codec(commands: Sequence[Command]) -> Dict[str, float]:
    codec = wire_codec(WIRE)
    frames = frame_panel(commands[:1000])
    header = codec.header_size
    encode_times, decode_times = [], []
    for _ in range(5):
        began = time.perf_counter()
        encoded = [codec.encode_frame(src, msg) for src, msg in frames]
        middle = time.perf_counter()
        for frame in encoded:
            codec.decode_frame(frame[header:])
        decode_times.append(time.perf_counter() - middle)
        encode_times.append(middle - began)
    return {
        "codec.encode_us_per_frame": median(encode_times) / len(frames) * 1e6,
        "codec.decode_us_per_frame": median(decode_times) / len(frames) * 1e6,
        "codec.bytes_per_frame":
            sum(len(frame) for frame in encoded) / len(frames),
    }


def probe_transport(commands: Sequence[Command]) -> Dict[str, float]:
    """Two ``TcpTransport``s over loopback: ping-pong, then one-way bursts.

    A burst stays below the transport's per-peer outbox bound (1024), past
    which it drops the oldest frame.
    """
    addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    ponged = threading.Event()
    burst_done = threading.Event()
    burst = [ClientRequest(
        payload=(command,), reply_to=0, reply_host="127.0.0.1",
        reply_port=addresses[0][1], client_id=command.client_id,
        read_only=not command.writes) for command in _stamp(commands[:1000])]
    received = [0]

    def at_sender(src: int, msg: Any) -> bool:
        ponged.set()
        return True

    def at_receiver(src: int, msg: Any) -> bool:
        if isinstance(msg, Heartbeat):
            receiver.send(1, 0, msg)
        else:
            received[0] += 1
            if received[0] % len(burst) == 0:
                burst_done.set()
        return True

    sender = TcpTransport(0, addresses, interceptor=at_sender, wire=WIRE)
    receiver = TcpTransport(1, addresses, interceptor=at_receiver, wire=WIRE)
    sender.start()
    receiver.start()
    try:
        rtts = []
        for index in range(400):
            ponged.clear()
            began = time.perf_counter()
            sender.send(0, 1, Heartbeat((1, 0), index, 0.0))
            if not ponged.wait(timeout=5):
                raise RuntimeError("transport probe: ping not echoed")
            rtts.append(time.perf_counter() - began)
        burst_seconds = []
        for _ in range(5):
            burst_done.clear()
            began = time.perf_counter()
            for request in burst:
                sender.send(0, 1, request)
            if not burst_done.wait(timeout=30):
                raise RuntimeError("transport probe: burst not delivered")
            burst_seconds.append(time.perf_counter() - began)
    finally:
        sender.close()
        receiver.close()
    return {
        # The first pings pay connection set-up; skip them.
        "transport.rtt_p50_us": median(rtts[50:]) * 1e6,
        "transport.oneway_frames_per_s": len(burst) / median(burst_seconds),
    }


def probe_ordering(commands: Sequence[Command]) -> Dict[str, float]:
    """Three ``ThreadedNode(MultiPaxos)`` over a zero-delay in-memory link.

    Parameters mirror ``repro.net.ReplicaServer``'s defaults (5 ms linger,
    50 ms heartbeats), so batching behaves as it does in the deployment.
    """
    transport = ThreadedTransport(
        N_REPLICAS, FaultPlan(min_delay=0.0, max_delay=0.0))
    delivered = threading.Semaphore(0)

    def at_leader(instance: int, payload: Any) -> None:
        if isinstance(payload, tuple):
            delivered.release(sum(len(batch) for batch in payload))

    def elsewhere(instance: int, payload: Any) -> None:
        pass

    nodes = [
        ThreadedNode(
            node_id,
            MultiPaxos(node_id, N_REPLICAS, heartbeat_interval=0.05,
                       leader_timeout=0.25 * (1 + 0.35 * node_id),
                       propose_linger=0.005),
            transport, at_leader if node_id == 0 else elsewhere)
        for node_id in range(N_REPLICAS)]
    for node in nodes:
        node.start()
    stamped = _stamp(commands)
    try:
        latencies = []
        for command in stamped[:300]:
            began = time.perf_counter()
            nodes[0].submit((command,))
            if not delivered.acquire(timeout=5):
                raise RuntimeError("ordering probe: payload not delivered")
            latencies.append(time.perf_counter() - began)
        window, decided = 32, 0
        began = time.perf_counter()
        for command in stamped[300:300 + window]:
            nodes[0].submit((command,))
        for command in stamped[300 + window:]:
            if not delivered.acquire(timeout=5):
                raise RuntimeError("ordering probe: window stalled")
            decided += 1
            nodes[0].submit((command,))
        seconds = time.perf_counter() - began
    finally:
        for node in nodes:
            node.stop()
        for node in nodes:
            node.join(timeout=5)
        transport.close()
    return {
        "ordering.submit_to_deliver_p50_us": median(latencies) * 1e6,
        "ordering.decided_cps": decided / seconds,
    }


def probe_cos(commands: Sequence[Command], workload: Workload,
              occupancy: int) -> Dict[str, float]:
    """Single-threaded insert/get/remove at a steady graph occupancy."""
    service = build_service(SERVICE, initial_size=workload.initial_size)
    runtime = ThreadedRuntime()
    cos = ThreadedCOS(
        make_cos(COS_ALGORITHM, runtime, service.conflicts), runtime)
    for command in commands[:occupancy]:
        cos.insert(command)
    insert = get = remove = 0.0
    rest = commands[occupancy:]
    for command in rest:
        t0 = time.perf_counter()
        handle = cos.get()
        t1 = time.perf_counter()
        cos.remove(handle)
        t2 = time.perf_counter()
        cos.insert(command)
        t3 = time.perf_counter()
        get += t1 - t0
        remove += t2 - t1
        insert += t3 - t2
    return {
        "cos.insert_us_per_cmd": insert / len(rest) * 1e6,
        "cos.get_us_per_cmd": get / len(rest) * 1e6,
        "cos.remove_us_per_cmd": remove / len(rest) * 1e6,
    }


def probe_replica(commands: Sequence[Command],
                  workload: Workload) -> Dict[str, float]:
    """Idle ``ParallelReplica``, one command at a time: deliver to response."""
    responded = threading.Event()

    def on_response(command: Command, response: Any, replica_id: int) -> None:
        responded.set()

    replica = ParallelReplica(
        0, build_service(SERVICE, initial_size=workload.initial_size),
        COS_ALGORITHM, workers=WORKERS, on_response=on_response)
    replica.start()
    latencies = []
    try:
        for instance, command in enumerate(commands[:1000]):
            responded.clear()
            began = time.perf_counter()
            replica.on_deliver(instance, (command,))
            if not responded.wait(timeout=5):
                raise RuntimeError("replica probe: no response")
            latencies.append(time.perf_counter() - began)
    finally:
        replica.stop(timeout=2.0)
    return {"replica.deliver_to_response_p50_us": median(latencies) * 1e6}


def probe_app(commands: Sequence[Command],
              workload: Workload) -> Dict[str, float]:
    service = build_service(SERVICE, initial_size=workload.initial_size)
    began = time.perf_counter()
    for command in commands:
        service.execute(command)
    return {"app.execute_us_per_cmd":
            (time.perf_counter() - began) / len(commands) * 1e6}


def run_probes(workload: Workload, seed: int) -> Dict[str, float]:
    """Every layer probe on the workload's own command stream."""
    commands = WorkloadGenerator(
        workload.write_pct, key_space=KEY_SPACE, seed=seed).commands(4000)
    # The standalone graph runs full (capacity 150); under the SMR closed
    # loop it holds at most the 32 outstanding commands.
    occupancy = 128 if workload.standalone else 32
    metrics: Dict[str, float] = {}
    probes: List[Callable[[], Dict[str, float]]] = [
        lambda: probe_generator(workload, seed),
        lambda: probe_codec(commands),
        lambda: probe_transport(commands),
        lambda: probe_ordering(commands[:2000]),
        lambda: probe_cos(commands, workload, occupancy),
        lambda: probe_replica(commands, workload),
        lambda: probe_app(commands, workload),
    ]
    for probe in probes:
        metrics.update(probe())
    return metrics
