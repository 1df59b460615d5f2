"""Regression tests for the client/transport/replica bug fixes.

Each test fails against the pre-fix code:

- **per-attempt client deadline** (smr/client.py): a slow replica dripping
  one response per interval used to reset the wait window on every
  response, stretching one attempt to ``len(batch) * timeout``;
- **FaultPlan.fate thread safety** (broadcast/transport.py): concurrent
  senders used to interleave RNG draws *inside* one fate, so the stream
  was no longer consumed in fate-sized chunks and the sampled fates
  diverged from a serial run with the same seed;
- **ThreadedTransport timer leak** (broadcast/transport.py): fired timers
  stayed in ``_timers`` until ``close()``, growing without bound;
- **reference CAS** (core/threaded.py, sim/sync.py): ``==`` comparison let
  a compare-and-set succeed against a distinct-but-equal object, which
  breaks the lock-free graph's identity-based transitions;
- **monotonic quiesce deadline** (smr/replica.py): a wall-clock step while
  quiescing fired the checkpoint deadline early (or postponed it forever);
- **TimeSeries same-instant samples** (sim/metrics.py): two samples at one
  virtual timestamp used to silently drop the events between them;
- **latency quantiles** (sim/metrics.py): ``ordered[n // 2]`` biased the
  median high and ``int(n * 0.99)`` truncated to index 0 for n <= 100, so
  p99 reported the *minimum*;
- **TcpTransport.start failure leak** (net/transport.py): a bind conflict
  used to leave the transport's thread alive; it now binds on the caller's
  thread, before there is a thread to leak;
- **_flatten_commands on str** (smr/replica.py): a string payload recursed
  forever (str iteration yields strings), dying with RecursionError
  instead of a diagnosable TypeError;
- **MpDispatcher._await timeout race** (par/dispatcher.py): a reply that
  arrived between the wait's expiry and the cleanup used to poison the
  whole engine as a shard crash, even though the slot held a valid value;
- **MpDispatcher._collector_loop broken pipe** (par/dispatcher.py): a
  broken reply-queue pipe raises from ``get()`` instantly, so the
  collector hot-spun a core forever; it now backs off (bounded) and
  poisons the engine after repeated consecutive failures;
- **make_cos footprint error** (core/__init__.py): asking for a
  footprint-compiled scheduler (indexed / early / early-batched) with a
  non-decomposable relation used to surface as IndexedCOS's generic
  NotImplementedError naming only the indexed COS; the factory now
  rejects it up front, naming the *requested* scheduler and listing the
  pairwise schedulers that would work;
- **hint-change drain** (broadcast/node.py): a hop-exhausted Forward
  parked at a *never-leader* follower used to sit in ``pending`` forever —
  only the was-leader step-down transition drained the queue;
- **drain hop budget** (broadcast/paxos.py): drain_pending_forwards used
  to re-emit Forwards with ``hops=0``, handing circularly-hinted payloads
  a fresh budget on every drain and defeating FORWARD_HOP_LIMIT;
- **catch-up chunking** (broadcast/paxos.py): a CatchupReply used to pack
  the requester's *entire* missing suffix into one frame, which could blow
  transport frame caps or be dropped whole by drop-oldest queues;
- **accepted-state pruning** (broadcast/paxos.py): decided instances kept
  their ``accepted`` entries and ``("accepted", i)`` stable-store keys
  forever, growing both with history instead of the in-flight window;
- **sequencer failover epoch guard** (broadcast/sequencer.py): a deposed
  sequencer's stamp at or above the new epoch's base used to occupy (or
  deliver at) a position the new sequencer re-stamps — double-delivering
  one payload and silently dropping the other, leaving a permanent gap;
- **merger released-xid absorption** (groups/merge.py): a late duplicate
  of a released rendezvous that arrived after its xid rolled out of the
  bounded ``_recent`` window used to queue as a live hold, blocking its
  group's stream forever; the authoritative released-xid set absorbs it;
- **speculative dirty reads** (spec/replica.py, smr/replica.py): the
  idle-read fast path used to answer a leaseholder-local read inline
  while the speculation log was dirty, leaking a provisional value that
  a later rollback erased; dirty-log reads are now deferred until the
  next confirmation leaves the log clean, and the base idle check +
  inline claim are one atomic critical section;
- **cross-partition key distinctness** (workload/generator.py): under
  Zipf skew the cross-partition draw could repeat a key, silently
  shrinking the command's conflict footprint (``MultiKeyedConflicts``
  dedups arguments) and understating cross-partition conflict rates;
- **client-supplied read_only flag** (net/replica.py, smr/stack.py): the
  TCP replica used to route on ``ClientRequest.read_only``, so a batch
  flagged read-only that carried a write executed via the lease-read path
  at the leaseholder only and the replicas diverged; ``route`` now derives
  read-only-ness from ``Command.writes``;
- **loopback_config port reuse** (net/config.py): one bind-and-release
  ``free_port()`` per endpoint let the kernel hand the same port out twice
  within one config; all ports are now drawn while every probe socket is
  still bound (``free_ports``);
- **ProcessGroup log-handle leak** (net/supervisor.py): every restart of
  a member opened a fresh ``replica-N.log`` handle and kept the old one
  open until ``stop()``.  Replicas are forked by the fork server now
  (net/forkserver.py), which opens the log for each fork and closes its
  own copy right after it, so the replica holds the only handle;
- **free_ports annotation** (net/config.py): ``-> List[int]`` named a
  ``List`` the module never imported, so ``typing.get_type_hints``
  raised ``NameError``;
- **service error kills a worker** (smr/replica.py): a command its
  service raised on (an unknown op) killed the worker thread that ran it
  on every replica, so every later command timed out; the error is now
  that command's response and the worker lives on;
- **mp engine answers one error two ways** (par/dispatcher.py,
  par/engine.py): a command dispatched alone answered the worker's
  traceback, the same command in a batch ``error: <type>: <message>``, so
  replicas that batched differently answered and cached different text;
- **barrier wedged by a raising command** (par/barrier.py): a multi-shard
  command its service raised on left every shard it had barred waiting
  for an install that never came, so the next command on those shards
  timed out and the engine was declared dead.
"""

from __future__ import annotations

import queue
import statistics
import sys
import threading
import time
from collections import Counter

import pytest

from repro.broadcast.messages import Forward, Prepare
from repro.broadcast.node import ThreadedNode
from repro.broadcast.paxos import FORWARD_HOP_LIMIT, MultiPaxos
from repro.broadcast.transport import FaultPlan, ThreadedTransport
from repro.core.command import Command, ReadWriteConflicts
from repro.core.threaded import ThreadedRuntime
from repro.errors import (ConfigurationError, ShardCommandError,
                          ShardCrashed, ShutdownError)
from repro.net.transport import TcpTransport
from repro.par.dispatcher import (
    _REPLY_FAILURE_LIMIT,
    MpDispatcher,
    _Slot,
)
from repro.sim import SimRuntime, Simulator
from repro.sim.metrics import Metrics, TimeSeries
from repro.smr.client import Client, ClientTimeout
from repro.smr.replica import ParallelReplica, _flatten_commands
from repro.smr.service import Service


def read(key):
    return Command("contains", (key,), writes=False)


def write(key):
    return Command("add", (key,), writes=True)


# --------------------------------------------------------------------------
# Satellite 1: one deadline per attempt, not one timeout per response.
# --------------------------------------------------------------------------


class DripServer:
    """A slow replica answering a batch one response per ``interval``."""

    def __init__(self, interval: float):
        self.interval = interval
        self.client = None

    def submit(self, payload, contact):
        threading.Thread(
            target=self._drip, args=(payload,), daemon=True).start()

    def _drip(self, payload):
        for command in payload:
            time.sleep(self.interval)
            self.client.deliver_response(command, "ok")


def test_slow_responder_bounded_by_one_attempt_timeout():
    # 6 commands arriving every 0.2s against a 0.5s timeout: each get()
    # individually returns within the window, so the pre-fix code (full
    # timeout per get) happily waits ~1.2s and succeeds.  The attempt
    # budget is 0.5s total, so this must time out — and promptly.
    server = DripServer(interval=0.2)
    client = Client("slow", server.submit, n_replicas=3,
                    timeout=0.5, max_retries=0)
    server.client = client
    started = time.monotonic()
    with pytest.raises(ClientTimeout):
        client.execute_batch([read(key) for key in range(6)])
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, (
        f"attempt stretched to {elapsed:.2f}s; the deadline must cap the "
        f"whole attempt, not each response")


def test_fast_batch_still_completes_within_one_attempt():
    class InstantServer(DripServer):
        def _drip(self, payload):
            for command in payload:
                self.client.deliver_response(command, "ok")

    server = InstantServer(interval=0.0)
    client = Client("fast", server.submit, n_replicas=3,
                    timeout=0.5, max_retries=0)
    server.client = client
    assert client.execute_batch([read(key) for key in range(6)]) == ["ok"] * 6


# --------------------------------------------------------------------------
# Satellite 3: FaultPlan.fate draws whole fates atomically.
# --------------------------------------------------------------------------


def _fates_match_serial(seed: int, draws_per_thread: int = 3000,
                        n_threads: int = 4) -> bool:
    kwargs = dict(seed=seed, loss=0.25, duplication=0.4)

    serial = FaultPlan(**kwargs)
    expected = Counter(
        serial.fate(0, 1)
        for _ in range(draws_per_thread * n_threads))

    shared = FaultPlan(**kwargs)
    results = [[] for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads)

    def draw(out):
        barrier.wait()
        for _ in range(draws_per_thread):
            out.append(shared.fate(0, 1))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force aggressive interleaving
    try:
        threads = [threading.Thread(target=draw, args=(out,))
                   for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old_interval)

    observed = Counter(fate for out in results for fate in out)
    return observed == expected


def test_concurrent_sender_fates_match_serial_run():
    # Whole fates are drawn under the lock, so the RNG stream is consumed
    # in fate-sized chunks: the multiset of fates (copies AND exact delays)
    # equals a serial run with the same seed, whatever the interleaving.
    # Three independent trials: the unlocked code survives one trial of
    # this size only by freak scheduling, never three.
    for seed in (42, 43, 44):
        assert _fates_match_serial(seed), (
            f"threaded fate multiset diverged from the serial run "
            f"(seed {seed}); fates are not drawn atomically")


def test_fate_lossless_plan_single_copy():
    plan = FaultPlan(seed=1)
    fate = plan.fate(0, 1)
    assert fate.copies == 1
    assert len(fate.delays) == 1


# --------------------------------------------------------------------------
# Satellite 4: fired timers are pruned from ThreadedTransport._timers.
# --------------------------------------------------------------------------


def test_fired_timers_are_pruned():
    plan = FaultPlan(seed=3, min_delay=0.001, max_delay=0.01)
    transport = ThreadedTransport(2, plan)
    try:
        n_messages = 50
        for index in range(n_messages):
            transport.send(0, 1, ("msg", index))
        inbox = transport.inbox(1)
        received = [inbox.get(timeout=5) for _ in range(n_messages)]
        assert len(received) == n_messages

        # Delivery happens before pruning in the timer callback, so give
        # the last callback a moment to finish its bookkeeping.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and transport._timers:
            time.sleep(0.005)
        assert transport._timers == [], (
            f"{len(transport._timers)} fired timers still retained")
    finally:
        transport.close()


# --------------------------------------------------------------------------
# Satellite 5: compare-and-set is reference CAS in both runtimes.
# --------------------------------------------------------------------------


class _AlwaysEqual:
    """Distinct instances that compare (and hash) equal."""

    def __eq__(self, other):
        return isinstance(other, _AlwaysEqual)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return 17


def _threaded_cell(initial):
    return ThreadedRuntime().atomic(initial)


def _sim_cell(initial):
    return SimRuntime(Simulator()).atomic(initial)


@pytest.mark.parametrize("make_cell", [_threaded_cell, _sim_cell],
                         ids=["threaded", "sim"])
def test_cas_requires_identity_not_equality(make_cell):
    original, impostor = _AlwaysEqual(), _AlwaysEqual()
    assert original == impostor and original is not impostor
    cell = make_cell(original)
    assert not cell.compare_and_set(impostor, "stolen"), (
        "CAS succeeded against an equal-but-distinct expected value")
    assert cell.value is original
    assert cell.compare_and_set(original, "advanced")
    assert cell.value == "advanced"


@pytest.mark.parametrize("make_cell", [_threaded_cell, _sim_cell],
                         ids=["threaded", "sim"])
def test_cas_interned_status_strings_still_work(make_cell):
    # The COS algorithms CAS module-level status constants; identity
    # semantics must keep the happy path working.
    waiting, ready = "wtg", "rdy"
    cell = make_cell(waiting)
    assert cell.compare_and_set(waiting, ready)
    assert not cell.compare_and_set(waiting, ready)
    assert cell.value is ready


# --------------------------------------------------------------------------
# Satellite 2: checkpoint quiesce uses the monotonic clock.
# --------------------------------------------------------------------------


class SlowService(Service):
    """Takes a fixed real-time delay per command; trivial state."""

    def __init__(self, delay: float):
        self._delay = delay
        self._conflicts = ReadWriteConflicts()
        self._executed = 0

    def execute(self, command):
        time.sleep(self._delay)
        self._executed += 1
        return self._executed

    @property
    def conflicts(self):
        return self._conflicts

    def snapshot(self):
        return self._executed

    def restore(self, snapshot):
        self._executed = snapshot


def test_checkpoint_quiesce_survives_wall_clock_steps(monkeypatch):
    replica = ParallelReplica(0, SlowService(0.25), workers=2)
    replica.start()
    try:
        replica.on_deliver(0, Command("slow", writes=True))
        # Every wall-clock read leaps another hour forward (an NTP step,
        # or a VM resume).  The pre-fix deadline was wall-clock based and
        # fired immediately; quiescing must depend only on monotonic time.
        real_time = time.time
        leaps = [0.0]

        def leaping_clock():
            leaps[0] += 3600.0
            return real_time() + leaps[0]

        monkeypatch.setattr(time, "time", leaping_clock)
        checkpoint = replica.take_checkpoint(timeout=5.0)
        monkeypatch.undo()
        assert checkpoint.instance == 0
        assert checkpoint.state == 1  # the slow command finished first
    finally:
        monkeypatch.undo()
        replica.stop()


# --------------------------------------------------------------------------
# TimeSeries: samples sharing a virtual instant must not lose events.
# --------------------------------------------------------------------------


def _integrate(points, start=0.0):
    """Recover the event total from (time, rate) points."""
    total, last = 0.0, start
    for at, rate in points:
        total += rate * (at - last)
        last = at
    return total


def test_time_series_same_instant_sample_conserves_events():
    sim = Simulator()
    series = TimeSeries(sim)
    sim.schedule(1.0, lambda: series.sample(10))
    # Second sample at the SAME virtual instant, counter has moved on: the
    # pre-fix code overwrote the baseline and the 6 events vanished from
    # every later rate.
    sim.schedule(1.0, lambda: series.sample(16))
    sim.schedule(2.0, lambda: series.sample(20))
    sim.run()
    assert _integrate(series.points) == pytest.approx(20.0), (
        "events between same-instant samples were dropped")


def test_time_series_normal_sampling_unchanged():
    sim = Simulator()
    series = TimeSeries(sim)
    sim.schedule(1.0, lambda: series.sample(100))
    sim.schedule(3.0, lambda: series.sample(400))
    sim.run()
    assert series.points == [(1.0, pytest.approx(100.0)),
                             (3.0, pytest.approx(150.0))]


# --------------------------------------------------------------------------
# latency_stats: interpolated quantiles, validated against the stdlib.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 37, 100, 101])
def test_latency_quantiles_match_statistics_inclusive(n):
    import random

    rng = random.Random(n)
    values = [rng.uniform(0.001, 2.0) for _ in range(n)]
    metrics = Metrics(Simulator())
    metrics.mark_warm()
    for value in values:
        metrics.record_latency(value)
    mean, median, p99 = metrics.latency_stats()
    assert mean == pytest.approx(statistics.fmean(values))
    assert median == pytest.approx(statistics.median(values))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert p99 == pytest.approx(cuts[98])


def test_even_sample_median_is_interpolated():
    metrics = Metrics(Simulator())
    metrics.mark_warm()
    metrics.record_latency(1.0)
    metrics.record_latency(3.0)
    _, median, p99 = metrics.latency_stats()
    assert median == pytest.approx(2.0)      # pre-fix: 3.0 (upper element)
    assert 1.0 < p99 < 3.0                   # pre-fix: an endpoint


# --------------------------------------------------------------------------
# TcpTransport.start: failed starts must not leak the transport's thread.
# --------------------------------------------------------------------------


def test_tcp_transport_bind_conflict_cleans_up_loop_thread():
    from repro.net.config import free_port

    endpoint = ("127.0.0.1", free_port())
    first = TcpTransport(0, {0: endpoint}).start()
    second = TcpTransport(7, {7: endpoint})  # same endpoint: bind must fail
    try:
        with pytest.raises(ConfigurationError):
            second.start()
        assert not any(thread.name == "tcp-7"
                       for thread in threading.enumerate()), (
            "bind failure leaked a live transport thread")
        assert second.closed
        second.close()  # a no-op after a failed start
        with pytest.raises(ShutdownError):
            second.send(7, 7, "late")
    finally:
        first.close()
    # Neither transport still holds the endpoint.
    TcpTransport(7, {7: endpoint}).start().close()


# --------------------------------------------------------------------------
# _flatten_commands: clear TypeError instead of infinite recursion.
# --------------------------------------------------------------------------


def test_flatten_commands_rejects_strings():
    # ``"abc"`` iterates to strings forever; pre-fix this was a
    # RecursionError deep inside the scheduler.
    with pytest.raises(TypeError, match="Command"):
        list(_flatten_commands("abc"))


def test_flatten_commands_rejects_bytes_and_scalars():
    with pytest.raises(TypeError, match="Command"):
        list(_flatten_commands(b"\x00\x01"))
    with pytest.raises(TypeError, match="Command"):
        list(_flatten_commands([Command("get"), 42]))


def test_flatten_commands_preserves_nested_order():
    a, b, c = Command("a"), Command("b"), Command("c")
    assert list(_flatten_commands([a, (b, [c])])) == [a, b, c]
    assert list(_flatten_commands(a)) == [a]


# --------------------------------------------------------------------------
# MpDispatcher._await: a reply racing the deadline is a reply, not a crash.
# --------------------------------------------------------------------------


def _dispatcher(n_shards: int = 1) -> MpDispatcher:
    """Dispatcher with in-memory plumbing only — no worker processes.

    The constructor is cheap (processes spawn in ``start()``), so unit
    tests can poke ``_await`` / ``_collector_loop`` directly.
    """
    return MpDispatcher("kv", {}, n_shards)


class TestAwaitTimeoutRace:

    def test_fulfilled_slot_wins_over_timed_out_wait(self):
        dispatcher = _dispatcher()
        dispatcher._started = True
        slot = _Slot(0)
        slot.value = "late-but-valid"
        slot.event.set()
        # Simulate the race: the wait call reports expiry even though the
        # collector filled the slot (the flag was set between the deadline
        # and wait()'s return — exactly what a loaded box produces).
        slot.event.wait = lambda timeout=None: False
        dispatcher._pending[7] = slot
        assert dispatcher._await(7, shard=0, timeout=0.01) == "late-but-valid"
        assert dispatcher._crashed is None, (
            "a delivered reply must never poison the engine")
        assert 7 not in dispatcher._pending

    def test_genuine_timeout_still_poisons(self):
        dispatcher = _dispatcher()
        dispatcher._started = True
        dispatcher._pending[9] = _Slot(0)  # never fulfilled
        with pytest.raises(ShardCrashed):
            dispatcher._await(9, shard=0, timeout=0.01)
        assert isinstance(dispatcher._crashed, ShardCrashed)


# --------------------------------------------------------------------------
# MpDispatcher._collector_loop: broken reply pipe must not hot-spin.
# --------------------------------------------------------------------------


class _BrokenQueue:
    """A reply queue whose pipe has died: every get raises instantly."""

    def __init__(self, exc_type):
        self._exc_type = exc_type
        self.calls = 0

    def get(self, timeout=None):
        self.calls += 1
        raise self._exc_type("simulated broken reply pipe")


class TestCollectorBrokenPipe:

    @pytest.mark.parametrize("exc_type", [OSError, EOFError])
    def test_poisons_and_exits_after_repeated_failures(self, exc_type):
        dispatcher = _dispatcher()
        broken = _BrokenQueue(exc_type)
        dispatcher._reply_queue = broken
        thread = threading.Thread(target=dispatcher._collector_loop,
                                  daemon=True)
        thread.start()
        thread.join(timeout=10)
        # Pre-fix the loop re-raised into get() forever: never exits, and
        # broken.calls climbs unboundedly (a pegged core).
        assert not thread.is_alive(), "collector hot-spun on a broken pipe"
        assert isinstance(dispatcher._crashed, ShardCrashed)
        assert "reply queue" in str(dispatcher._crashed)
        assert broken.calls == _REPLY_FAILURE_LIMIT, (
            f"expected exactly {_REPLY_FAILURE_LIMIT} bounded attempts, "
            f"saw {broken.calls}")

    def test_broken_pipe_fails_outstanding_requests(self):
        dispatcher = _dispatcher()
        dispatcher._reply_queue = _BrokenQueue(OSError)
        slot = _Slot(0)
        dispatcher._pending[3] = slot
        thread = threading.Thread(target=dispatcher._collector_loop,
                                  daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert slot.event.is_set(), (
            "poisoning must wake threads parked in _await")
        assert isinstance(slot.error, ShardCrashed)

    def test_clean_close_still_exits_quietly(self):
        dispatcher = _dispatcher()
        broken = _BrokenQueue(OSError)
        dispatcher._reply_queue = broken
        dispatcher._closing.set()  # shutdown already in progress
        dispatcher._collector_loop()  # must return on the first failure
        assert dispatcher._crashed is None, (
            "a closing dispatcher's dead queue is not a crash")
        assert broken.calls == 1


# --------------------------------------------------------------------------
# make_cos: a non-decomposable relation names the scheduler you asked for.
# --------------------------------------------------------------------------


class TestFootprintSchedulerError:

    @pytest.mark.parametrize("name", ["indexed", "early", "early-batched"])
    def test_names_the_requested_scheduler_and_alternatives(self, name):
        from repro.core import PredicateConflicts, make_cos

        opaque = PredicateConflicts(lambda a, b: True)
        with pytest.raises(ValueError) as excinfo:
            make_cos(name, ThreadedRuntime(), opaque)
        message = str(excinfo.value)
        assert f"the {name!r} scheduler requires" in message
        assert "PredicateConflicts" in message
        assert "supports_footprint" in message
        # Every pairwise alternative is offered; no footprint scheduler is.
        for alternative in ("coarse-grained", "fine-grained", "lock-free"):
            assert alternative in message
        assert "'indexed'" not in message.split("scheduler requires")[1]

    def test_decomposable_relation_passes_the_gate(self):
        from repro.core import make_cos

        cos = make_cos("early", ThreadedRuntime(), ReadWriteConflicts())
        assert cos.schedule().describe()["policy"] == "static"


# --------------------------------------------------------------------------
# Span keys: colliding process-local uids must not merge traces.
# --------------------------------------------------------------------------


def test_span_keys_survive_uid_collisions_across_clients():
    # Two *different* commands stamped with the same uid — exactly what
    # two client processes (each minting uids from 0) produce after their
    # commands cross the wire.  Pre-fix the span log keyed by uid and
    # merged both lives into one bogus trace.
    from repro.obs import MetricsRegistry

    alice = Command("contains", (1,), writes=False,
                    client_id="alice", request_id=1, uid=777)
    bob = Command("contains", (2,), writes=False,
                  client_id="bob", request_id=1, uid=777)
    registry = MetricsRegistry(trace=True)
    replica = ParallelReplica(0, SlowService(0.0), workers=2,
                              registry=registry)
    replica.start()
    try:
        replica.on_deliver(0, alice)
        replica.on_deliver(1, bob)
        deadline = time.monotonic() + 5
        while (registry.counter("replica_executed_total").value < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
    finally:
        replica.stop()
    spans = registry.spans.spans()
    assert "alice#1" in spans and "bob#1" in spans
    assert 777 not in spans, "span log fell back to the colliding uid"
    for key in ("alice#1", "bob#1"):
        for stage in ("delivered", "scheduled", "executing", "responded"):
            assert stage in spans[key], f"{key} missing stage {stage}"


# --------------------------------------------------------------------------
# Step-down liveness: pending payloads must chase the new leader.
# --------------------------------------------------------------------------


class TestStepDownDrainsPending:

    def test_deposed_node_reforwards_stranded_payloads(self):
        # pipeline=1, batch_size=1: the second submit is parked in
        # ``pending`` while the first instance is in flight.  When a
        # higher ballot deposes the node, nothing used to re-forward the
        # parked payload — the protocol grew drain_pending_forwards, but
        # no adapter called it, so live clusters still leaked commands
        # until the client timed out and retried.
        transport = ThreadedTransport(3, FaultPlan(min_delay=0, max_delay=0))
        protocol = MultiPaxos(0, 3, pipeline=1, batch_size=1)
        node = ThreadedNode(0, protocol, transport, lambda inst, payload: None)
        node.start()
        try:
            node.submit("proposed")
            node.submit("stranded")
            deadline = time.monotonic() + 5
            while not protocol.pending and time.monotonic() < deadline:
                time.sleep(0.005)
            assert list(protocol.pending) == ["stranded"]
            # Node 1 starts an election with a higher ballot; node 0 steps
            # down on the Prepare and must hand "stranded" to the new hint.
            transport.send(1, 0, Prepare((5, 1)))
            inbox = transport.inbox(1)
            forwarded = []
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    _, msg = inbox.get(timeout=0.1)
                except queue.Empty:
                    continue
                if isinstance(msg, Forward):
                    forwarded.append(msg.payload)
                    break
            assert forwarded == ["stranded"], (
                "step-down stranded a pending payload: nothing forwarded "
                "it to the new leader")
        finally:
            node.stop()
            node.join(5.0)
            transport.close()


# --------------------------------------------------------------------------
# Forward routing: stale circular hints must not relay forever.
# --------------------------------------------------------------------------


class TestForwardHopBudget:

    @staticmethod
    def _follower(node_id: int, hint: int) -> MultiPaxos:
        node = MultiPaxos(node_id, 5)
        # Observing a higher-ballot Prepare from ``hint`` both cancels any
        # leadership and points leader_hint() at that node.
        node.on_message(hint, Prepare((7, hint)))
        assert not node.is_leader and node.leader_hint() == hint
        return node

    def test_circular_hints_terminate_within_hop_budget(self):
        # 0 -> 1 -> 2 -> 0: every relay target is itself a non-leader
        # pointing at the next one.  Pre-fix (no hop budget) the Forward
        # orbited these three nodes forever, burning bandwidth and never
        # landing the payload anywhere.
        nodes = {
            0: self._follower(0, 1),
            1: self._follower(1, 2),
            2: self._follower(2, 0),
        }
        src, current, msg = 4, 0, Forward("orbit-me")
        hops = 0
        while True:
            actions = nodes[current].on_message(src, msg)
            forwards = [a for a in actions
                        if isinstance(getattr(a, "msg", None), Forward)]
            if not forwards:
                break
            (action,) = forwards
            src, current, msg = current, action.dst, action.msg
            hops += 1
            assert hops <= FORWARD_HOP_LIMIT + len(nodes), (
                "Forward relayed past the hop budget — circular stale "
                "hints would orbit forever")
        stranded = [payload
                    for node in nodes.values()
                    for payload in node.pending]
        assert stranded == ["orbit-me"], (
            "hop-exhausted Forward must queue locally, not vanish")


# --------------------------------------------------------------------------
# Codec strictness: non-finite floats and bool frame sources.
# --------------------------------------------------------------------------


def _codecs():
    from repro.net.codec import WIRE_NAMES, wire_codec
    return [pytest.param(wire_codec(name), id=name) for name in WIRE_NAMES]


class TestCodecStrictness:

    @pytest.mark.parametrize("mod", _codecs())
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_floats_rejected_on_encode(self, mod, value):
        from repro.net.codec import CodecError

        # A non-finite float breaks equality after the round trip (NaN);
        # it is refused where it would be sent.
        with pytest.raises(CodecError):
            mod.dumps(value)
        with pytest.raises(CodecError):
            mod.dumps((1, {"x": value}))

    @pytest.mark.parametrize("mod", _codecs())
    def test_decoder_rejects_non_finite_floats(self, mod):
        import struct

        from repro.net.codec import CodecError

        # A peer that does put one on the wire is refused on arrival.
        finite = mod.dumps((1, 0.5))
        for value in (float("nan"), float("inf"), float("-inf")):
            wire = finite.replace(struct.pack(">d", 0.5),
                                  struct.pack(">d", value))
            with pytest.raises(CodecError):
                mod.loads(wire)

    @pytest.mark.parametrize("mod", _codecs())
    def test_bool_frame_src_rejected_on_encode(self, mod):
        from repro.net.codec import CodecError

        # bool is an int subclass: a True src used to slip through and
        # arrive as node id 1 on the wire, silently misrouting replies.
        with pytest.raises(CodecError):
            mod.encode_frame(True, "payload")


# --------------------------------------------------------------------------
# _poison must reconcile the mp_queue_depth gauges.
# --------------------------------------------------------------------------


class TestPoisonGaugeReconciliation:

    def test_poison_returns_queue_depth_gauges_to_zero(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        dispatcher = MpDispatcher("kv", {}, 2, registry)
        dispatcher._started = True
        # In-memory request queues: no worker ever answers, so wait()
        # times out and poisons every outstanding slot.
        dispatcher._request_queues = [queue.Queue(), queue.Queue()]
        first = dispatcher.submit(0, "exec", read(1))
        dispatcher.submit(1, "exec", read(2))
        dispatcher.submit_many(0, [read(3), read(4)])
        gauge_0 = registry.gauge("mp_queue_depth", shard="0")
        gauge_1 = registry.gauge("mp_queue_depth", shard="1")
        assert gauge_0.value == 3 and gauge_1.value == 1
        with pytest.raises(ShardCrashed):
            dispatcher.wait(first, 0, timeout=0.05)
        # Pre-fix _poison failed the waiters but never decremented the
        # gauges, so a crashed engine reported phantom queue depth forever.
        assert gauge_0.value == 0, "shard 0 gauge stuck after poison"
        assert gauge_1.value == 0, "shard 1 gauge stuck after poison"


# --------------------------------------------------------------------------
# Hint-change drain: never-leader nodes must not strand exhausted Forwards.
# --------------------------------------------------------------------------


class TestHintChangeDrainsPending:

    def test_follower_reforwards_on_observed_hint_change(self):
        # A hop-exhausted Forward parks its payload in a *never-leader*
        # follower's ``pending``.  Pre-fix only the was-leader -> follower
        # transition drained that queue, so on a node that never led the
        # payload sat there until the client timed out: learning a new
        # leader hint must drain it too.
        transport = ThreadedTransport(5, FaultPlan(min_delay=0, max_delay=0))
        protocol = MultiPaxos(3, 5)
        node = ThreadedNode(3, protocol, transport, lambda inst, payload: None)
        node.start()
        try:
            # Hint moves to 1, then an exhausted Forward arrives and parks.
            transport.send(1, 3, Prepare((7, 1)))
            transport.send(4, 3, Forward("parked", FORWARD_HOP_LIMIT))
            deadline = time.monotonic() + 5
            while not protocol.pending and time.monotonic() < deadline:
                time.sleep(0.005)
            assert list(protocol.pending) == ["parked"]
            # Node 2 campaigns: node 3's observed hint flips 1 -> 2, which
            # must re-forward "parked" toward the new hint.
            transport.send(2, 3, Prepare((9, 2)))
            inbox = transport.inbox(2)
            forwarded = []
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    _, msg = inbox.get(timeout=0.1)
                except queue.Empty:
                    continue
                if isinstance(msg, Forward):
                    forwarded.append(msg)
                    break
            assert [m.payload for m in forwarded] == ["parked"], (
                "hint change left a hop-exhausted payload stranded at a "
                "never-leader follower")
        finally:
            node.stop()
            node.join(5.0)
            transport.close()


# --------------------------------------------------------------------------
# Drained Forwards must keep their consumed hop budget.
# --------------------------------------------------------------------------


class TestDrainKeepsHopBudget:

    def test_drained_forward_carries_remaining_budget(self):
        # Pre-fix drain_pending_forwards re-emitted ``Forward(payload)``
        # with hops=0: under circular stale hints each drain handed the
        # payload a fresh budget, defeating FORWARD_HOP_LIMIT — three
        # churning followers could orbit it forever.
        follower = MultiPaxos(3, 5)
        follower.on_message(1, Prepare((7, 1)))          # hint -> 1
        follower.on_message(4, Forward("p", FORWARD_HOP_LIMIT))
        assert list(follower.pending) == ["p"]           # budget exhausted
        follower.on_message(2, Prepare((9, 2)))          # hint -> 2
        actions = follower.drain_pending_forwards()
        forwards = [a for a in actions
                    if isinstance(getattr(a, "msg", None), Forward)]
        assert len(forwards) == 1 and forwards[0].dst == 2
        assert forwards[0].msg.hops == FORWARD_HOP_LIMIT, (
            "drain reset the hop budget: re-forwarded payloads would "
            "orbit circular hints forever")
        assert not follower.pending and not follower._pending_hops


# --------------------------------------------------------------------------
# Catch-up replies must be chunked, not one giant frame.
# --------------------------------------------------------------------------


class TestCatchupChunking:

    def test_long_suffix_is_served_in_bounded_chunks(self):
        from repro.broadcast.messages import (
            Accepted,
            CatchupReply,
            CatchupRequest,
        )
        from repro.broadcast.paxos import CATCHUP_CHUNK

        total = 3 * CATCHUP_CHUNK + 57          # several chunks + remainder
        leader = MultiPaxos(0, 3, batch_size=1, pipeline=total)
        for index in range(total):
            leader.submit(f"v{index}")
        # One cumulative ack decides the whole range at once.
        leader.on_message(1, Accepted((0, 0), total - 1, total - 1))
        assert leader.next_deliver == total
        # A blank replica pulls the history.  Pre-fix the first reply
        # packed all ``total`` instances into one frame — beyond frame
        # caps and drop-oldest queues, that reply just vanished.
        follower = MultiPaxos(1, 3)
        request = CatchupRequest(0)
        replies = 0
        while True:
            actions = leader.on_message(1, request)
            reply = next(a.msg for a in actions
                         if isinstance(a.msg, CatchupReply))
            assert len(reply.decided) <= CATCHUP_CHUNK, (
                "catch-up reply exceeds the per-frame chunk cap")
            replies += 1
            follow_up = [
                a.msg for a in follower.on_message(0, reply)
                if isinstance(getattr(a, "msg", None), CatchupRequest)
            ]
            if not follow_up:
                break
            (request,) = follow_up
            assert request.from_instance == follower.next_deliver
        assert follower.next_deliver == total
        assert replies == -(-total // CATCHUP_CHUNK)  # ceil division


# --------------------------------------------------------------------------
# Accepted entries (and their stable-store keys) must be pruned on learn.
# --------------------------------------------------------------------------


class TestAcceptedPruning:

    def test_decided_instances_leave_accepted_and_store(self):
        from repro.broadcast.messages import Accept, Accepted
        from repro.broadcast.storage import InMemoryStableStore

        total = 200
        backing = {}
        leader = MultiPaxos(0, 3, batch_size=1, pipeline=total,
                            stable_store=InMemoryStableStore(backing))
        for index in range(total):
            leader.submit(f"v{index}")
        assert len(leader.accepted) == total     # all in flight
        leader.on_message(1, Accepted((0, 0), total - 1, total - 1))
        # Pre-fix every decided instance kept its accepted entry and its
        # ("accepted", i) store key forever — both grew with history, not
        # with the in-flight window.
        assert leader.accepted == {}, "accepted map grew with history"
        stale = [key for key in backing
                 if isinstance(key, tuple) and key[0] == "accepted"]
        assert stale == [], "stable store kept pruned accepted keys"

    def test_follower_prunes_as_the_commit_frontier_advances(self):
        from repro.broadcast.messages import Accept

        total = 64
        follower = MultiPaxos(1, 3)
        for index in range(total):
            follower.on_message(0, Accept((0, 0), index, (f"v{index}",)))
        assert len(follower.accepted) == total
        # The next Accept carries the leader's commit frontier covering
        # everything so far; learning must prune the covered entries.
        follower.on_message(
            0, Accept((0, 0), total, ("tail",), total - 1))
        assert follower.next_deliver == total
        assert set(follower.accepted) == {total}, (
            "follower kept accepted entries for learned instances")


# --------------------------------------------------------------------------
# Sequencer failover: the epoch guard keeps stamped slots collision-free.
# --------------------------------------------------------------------------


class TestSequencerEpochGuard:

    def test_deposed_stamp_neither_delivers_nor_shadows_the_restamp(self):
        from repro.broadcast import SequencerBroadcast, SequencerStamp
        from repro.broadcast.messages import Deliver, NewEpoch

        def log(actions):
            return [(a.instance, a.payload) for a in actions
                    if isinstance(a, Deliver)]

        follower = SequencerBroadcast(2, 3)
        assert log(follower.on_message(
            0, SequencerStamp(0, "a", epoch=0))) == [(0, "a")]
        # Node 1 takes over at base 1; node 0 is presumed fail-stop but a
        # stamp it issued *before* dying is still in flight.
        follower.on_message(1, NewEpoch(1, 1, 1))
        stale = follower.on_message(0, SequencerStamp(1, "stale", epoch=0))
        fresh = follower.on_message(1, SequencerStamp(1, "fresh", epoch=1))
        # Pre-fix (no epoch on stamps, no guard) the stale stamp claimed
        # position 1, delivered "stale", and the re-stamp was dropped as
        # a duplicate: one payload double-delivered cluster-wide, the
        # other lost, and replicas that saw the races in the other order
        # diverged.  The guard voids the deposed stamp instead.
        assert log(stale) == [], "deposed sequencer's stamp delivered"
        assert log(fresh) == [(1, "fresh")], (
            "new epoch's re-stamp was shadowed by the stale one")


# --------------------------------------------------------------------------
# GroupMerger: late duplicates past the recent window must be absorbed.
# --------------------------------------------------------------------------


class TestMergerReleasedXidAbsorption:

    @staticmethod
    def _marker(xid, value):
        from repro.groups.messages import Rendezvous

        return Rendezvous(xid, (0, 1),
                          Command("add-all", (value,), writes=True))

    def test_late_duplicate_after_window_rollover_is_absorbed(self):
        from repro.groups.merge import GroupMerger

        merger = GroupMerger(2, xid_window=2)
        assert merger.offer(0, self._marker("x", 1)) == []
        assert [e.xid for e in merger.offer(1, self._marker("x", 1))] == ["x"]
        # Two newer markers roll "x" out of the bounded recent window.
        for xid in ("y", "z"):
            merger.offer(0, self._marker(xid, 2))
            merger.offer(1, self._marker(xid, 2))
        assert "x" not in merger._recent[0]
        # A straggler copy of "x" (client retransmission that raced its
        # own success) finally surfaces in group 0.  Pre-fix it was
        # queued as a live hold — group 0's stream blocked forever
        # waiting for partner copies that will never be re-offered.
        assert merger.offer(0, self._marker("x", 1)) == []
        assert merger.held() == 0, (
            "late duplicate of a released rendezvous queued as a hold")
        assert merger.pending(0) == 0
        # The stream still flows.
        released = merger.offer(0, Command("add", (9,), writes=True))
        assert [e.command.op for e in released] == ["add"]

    def test_in_window_duplicates_still_use_the_fast_path(self):
        from repro.groups.merge import GroupMerger

        merger = GroupMerger(2, xid_window=8)
        merger.offer(0, self._marker("x", 1))
        merger.offer(1, self._marker("x", 1))
        assert merger.offer(0, self._marker("x", 1)) == []
        assert merger.held() == 0 and merger.emitted_cross == 1


# --------------------------------------------------------------------------
# Speculative local reads: provisional state must stay invisible.
# --------------------------------------------------------------------------


class TestSpeculativeDirtyReads:

    def test_dirty_log_read_is_deferred_not_answered_inline(self):
        from repro.apps.kvstore import KVStoreService
        from repro.spec.replica import SpeculativeReplica

        responses = []
        replica = SpeculativeReplica(
            0, KVStoreService(), workers=2,
            on_response=lambda c, r, _rid: responses.append((c, r)))
        replica.start()
        try:
            write = KVStoreService.put("k", "guess", client_id="w",
                                       request_id=1)
            replica.on_optimistic(write)
            deadline = time.monotonic() + 5
            while (replica._engine.unexecuted
                   or not replica.speculation_stats["speculated"]):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            replica.on_local_read(KVStoreService.get("k", client_id="r",
                                                     request_id=1))
            # Pre-fix the committed frontiers looked idle (speculation
            # bumps neither counter), so the read ran inline and returned
            # "guess" — a value the conservative order may roll back.
            assert responses == [], (
                "local read answered from provisional speculative state")
            replica.on_deliver(0, write)
            deadline = time.monotonic() + 5
            while len(responses) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert {c.client_id: r for c, r in responses}["r"] == "guess"
        finally:
            replica.stop()

    def test_idle_inline_claim_is_atomic_under_contention(self):
        # The base fast path: the idleness check and the inline-slot
        # claim happen in one _state_lock critical section.  Hammer reads
        # against concurrent deliveries and verify the counter pair never
        # tears: every command (read or write) is answered exactly once
        # and the pipeline quiesces cleanly.
        replica = ParallelReplica(0, SlowService(0.0), workers=2)
        replica.start()
        answered = []
        replica._on_response = lambda c, r, _rid: answered.append(c)
        stop = threading.Event()
        errors = []

        def deliver_writes():
            try:
                for instance in range(150):
                    replica.on_deliver(
                        instance, Command("w", (instance,), writes=True,
                                          client_id="writer",
                                          request_id=instance + 1))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                stop.set()

        def read_loop():
            rid = 0
            while not stop.is_set():
                rid += 1
                try:
                    replica.on_local_read(
                        Command("r", (), writes=False, client_id="reader",
                                request_id=rid))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)
                    return
            return rid

        try:
            threads = [threading.Thread(target=deliver_writes)]
            threads += [threading.Thread(target=read_loop)
                        for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            # Quiesce: a torn claim would leave _scheduled != _executed
            # and the checkpoint path would hang on a phantom command.
            checkpoint = replica.take_checkpoint(timeout=10.0)
            assert checkpoint.instance == 149
            writes = [c for c in answered if c.client_id == "writer"]
            assert len(writes) == 150
        finally:
            replica.stop()


# --------------------------------------------------------------------------
# WorkloadGenerator: cross-partition keys are distinct, 0% cross is free.
# --------------------------------------------------------------------------


class TestCrossPartitionKeyDistinctness:

    def test_keys_and_partitions_distinct_even_under_heavy_skew(self):
        from repro.core.command import stable_hash
        from repro.workload.generator import WorkloadGenerator

        # Zipf s=3 over 8 keys piles most draws on key 0: the pre-fix
        # draw (no partition-coverage acceptance test) repeated keys
        # routinely here.
        generator = WorkloadGenerator(
            write_pct=100.0, key_space=8, seed=5, key_dist="zipf",
            zipf_s=3.0, cross_partition_fraction=1.0, n_partitions=4,
            keys_per_cross=3)
        for command in generator.commands(300):
            keys = command.args
            assert len(set(keys)) == len(keys), (
                f"duplicate keys in cross-partition command: {keys}")
            partitions = {stable_hash(key) % 4 for key in keys}
            assert len(partitions) == len(keys), (
                f"cross-partition command does not span distinct "
                f"partitions: {keys}")

    def test_zero_cross_fraction_stream_is_bit_identical(self):
        from repro.workload.generator import WorkloadGenerator

        def stream(**kwargs):
            generator = WorkloadGenerator(write_pct=30.0, key_space=100,
                                          seed=11, client_id="c", **kwargs)
            return [(c.op, c.args, c.request_id, c.writes)
                    for c in generator.commands(400)]

        # Wiring the cross-partition machinery up but dialling it to 0%
        # must not perturb the seeded draw: benchmarks comparing against
        # historical runs rely on stream stability.
        assert stream() == stream(cross_partition_fraction=0.0,
                                  n_partitions=4)


# --------------------------------------------------------------------------
# ReplicaServer: the wire's read_only flag is never trusted.
# --------------------------------------------------------------------------


class TestMisflaggedReadOnlyBatch:

    def test_flagged_write_is_ordered_not_lease_served(self, monkeypatch):
        from repro.net.cluster import TcpCluster
        from repro.net.messages import ClientRequest

        def lease_reads(cluster):
            return sum(
                server.registry.counter("paxos_lease_reads_total").value
                for server in cluster.servers)

        with TcpCluster(n_replicas=3) as cluster:
            client = cluster.client(timeout=1.0)
            # An honest write first: elects the leader and arms its lease.
            assert client.execute(write(500)) is True
            assert cluster.wait_converged(1, timeout=5.0)
            before = lease_reads(cluster)

            def lying_submit(payload, contact):
                client.transport.send(
                    client.node_id, contact % 3,
                    ClientRequest(payload=payload, reply_to=client.node_id,
                                  reply_host=client._host,
                                  reply_port=client._port,
                                  client_id=client.client_id,
                                  read_only=True))

            monkeypatch.setattr(client._client, "_submit", lying_submit)
            assert client.execute(write(501)) is True
            # Pre-fix the leaseholder executed the write alone, through
            # DeliverRead: followers never reached 2 and states diverged.
            assert cluster.wait_converged(2, timeout=5.0), (
                cluster.total_executed())
            snapshots = [service.snapshot()
                         for service in cluster.services()]
            assert snapshots[0] == snapshots[1] == snapshots[2]
            assert lease_reads(cluster) == before


# --------------------------------------------------------------------------
# loopback_config: ports are drawn while every probe is still bound.
# --------------------------------------------------------------------------


class _LowestFreePortKernel:
    """Stand-in for ``socket``: bind(0) yields the lowest unbound port —
    the adversarial (and legal) kernel that re-issues a just-released
    port on the very next bind."""

    AF_INET = SOCK_STREAM = SOL_SOCKET = SO_REUSEADDR = 0

    def __init__(self):
        self.bound = set()

    def socket(self, *args):
        kernel = self

        class _Socket:
            port = None

            def setsockopt(self, *args):
                pass

            def bind(self, address):
                self.port = next(port for port in range(40000, 65536)
                                 if port not in kernel.bound)
                kernel.bound.add(self.port)

            def getsockname(self):
                return ("127.0.0.1", self.port)

            def close(self):
                kernel.bound.discard(self.port)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        return _Socket()


class TestLoopbackPortsAreDistinct:

    def test_ports_distinct_when_kernel_reissues_released_ports(
            self, monkeypatch):
        from repro.net import config as net_config

        kernel = _LowestFreePortKernel()
        monkeypatch.setattr(net_config, "socket", kernel)
        drawn = net_config.loopback_config(3, metrics=True)
        ports = [port for _, port in
                 drawn.addresses + drawn.metrics_addresses]
        assert len(set(ports)) == 6, ports
        assert not kernel.bound, "probe sockets must all be released"

    def test_200_real_draws_never_repeat_a_port(self):
        from repro.net.config import free_port, free_ports, loopback_config

        for _ in range(200):
            drawn = loopback_config(3, metrics=True)
            ports = [port for _, port in
                     drawn.addresses + drawn.metrics_addresses]
            assert len(set(ports)) == 6, ports
        assert len(set(free_ports(32))) == 32
        assert isinstance(free_port(), int)   # still exported (benchmark)

    def test_free_ports_annotations_resolve(self):
        import typing

        from repro.net.config import free_ports

        assert typing.get_type_hints(free_ports)["return"] == typing.List[int]


# --------------------------------------------------------------------------
# ProcessGroup: one open log handle per member, however often it restarts.
# --------------------------------------------------------------------------


class TestProcessGroupLogHandles:
    """The fork server opens a member's log for the fork and closes its
    copy at once: the replica holds the only handle, whoever restarts it
    how often.  Counted over every process of the deployment, the test
    needs no fake: a restart is a 5-10 ms fork of the warm server."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts handles through /proc/<pid>/fd")
    def test_three_restarts_leave_one_open_handle(self, tmp_path):
        import os

        from repro.net.config import loopback_config
        from repro.net.supervisor import Supervisor

        def holders(name, pids):
            """The processes among ``pids`` with ``name`` open."""
            target = str(tmp_path / name)
            found = set()
            for pid in pids:
                try:
                    fds = os.listdir(f"/proc/{pid}/fd")
                except OSError:
                    continue    # gone
                for fd in fds:
                    try:
                        if os.readlink(f"/proc/{pid}/fd/{fd}") == target:
                            found.add(pid)
                    except OSError:
                        pass    # closed since the listing
            return found

        supervisor = Supervisor(loopback_config(3), log_dir=str(tmp_path))
        supervisor.start()
        try:
            group = supervisor.group("replicas")
            group.wait_ready()
            for _ in range(3):
                group.kill(0)
                group.restart(0)
            pids = group.pids()
            with open(f"/proc/{pids[0]}/stat") as stat:
                fork_server = int(stat.read().rsplit(")", 1)[1].split()[1])
            everyone = [fork_server, os.getpid(), *pids.values()]
            for member, pid in pids.items():
                assert holders(f"replica-{member}.log", everyone) == {pid}
        finally:
            supervisor.stop()
        for member in pids:
            assert holders(f"replica-{member}.log", everyone) == set()


# --------------------------------------------------------------------------
# A service error is the command's response, not a dead worker.
# --------------------------------------------------------------------------


class _BatchService(Service):
    """A linked-list-like service whose ``execute_many`` runs a whole batch
    and fails it with every command's response, as the mp engine does."""

    def __init__(self):
        self.executed = []

    @property
    def conflicts(self):
        return ReadWriteConflicts()

    def execute(self, command):
        if command.op != "add":
            raise ValueError(f"unknown op {command.op!r}")
        self.executed.append(command.args[0])
        return True

    def execute_many(self, commands):
        responses = []
        for command in commands:
            try:
                responses.append(self.execute(command))
            except ValueError as error:
                responses.append(f"error: ValueError: {error}")
        if any(isinstance(r, str) for r in responses):
            raise ShardCommandError("a command of the batch failed",
                                    responses)
        return responses


def _keys_on_two_shards():
    """Two linked-list values a two-shard mp engine places apart."""
    from repro.core.command import stable_hash
    first = stable_hash(1) % 2
    other = next(v for v in range(2, 100) if stable_hash(v) % 2 != first)
    return 1, other


class TestServiceErrorIsTheResponse:

    def test_unknown_op_is_answered_and_the_cluster_lives_on(
            self, monkeypatch):
        from repro.net.cluster import TcpCluster

        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        with TcpCluster(n_replicas=3) as cluster:
            client = cluster.client(timeout=1.0)
            bad = client.execute(Command("insert", (1,), writes=True))
            good = client.execute(write(10_001))
            assert cluster.wait_converged(2, timeout=5.0), (
                cluster.total_executed())
            alive = [thread.is_alive() for server in cluster.servers
                     for thread in server.replica._threads]
        assert bad == ("error: ValueError: unknown linked-list operation "
                       "'insert'")
        assert good is True
        assert all(alive) and not died, died

    def test_unknown_read_served_inline_is_answered(self):
        answered = []
        service = _BatchService()
        replica = ParallelReplica(
            0, service, workers=1,
            on_response=lambda cmd, resp, rid: answered.append(resp))
        replica.start()
        try:
            # An idle pipeline executes a lease read on the calling thread.
            replica.on_local_read((Command("peek", (1,), writes=False),))
        finally:
            replica.stop()
        assert answered == ["error: ValueError: unknown op 'peek'"]

    def test_failed_batch_runs_each_command_once(self):
        service = _BatchService()
        replica = ParallelReplica(0, service, workers=1)
        commands = [write(1), Command("insert", (2,), writes=True),
                    write(3)]
        assert replica._run_batch(commands) == [
            True, "error: ValueError: unknown op 'insert'", True]
        assert service.executed == [1, 3]
        assert replica.executed == 3

    def test_mp_error_reads_the_same_alone_and_batched(self):
        from repro.par import MpService

        expected = ("error: ValueError: unknown linked-list operation "
                    "'insert'")
        a, b = _keys_on_two_shards()
        with MpService("linked-list", workers=2) as engine:
            replica = ParallelReplica(0, engine, workers=1)
            for fresh, bad in enumerate((
                    Command("insert", (a,), writes=True),       # one shard
                    Command("insert", (a, b), writes=True))):   # barrier
                assert replica._execute_one(bad) == expected
                assert replica._execute([bad, write(10_000 + fresh)]) == [
                    expected, True]

    def test_raising_barrier_command_releases_its_shards(self, monkeypatch):
        from repro.par import MpService, config as par_config

        monkeypatch.setattr(par_config, "DISPATCH_TIMEOUT", 2.0)
        a, b = _keys_on_two_shards()
        with MpService("linked-list", workers=2) as engine:
            with pytest.raises(ValueError, match="unknown linked-list"):
                engine.execute(Command("bogus", (a, b), writes=True))
            # Both barred shards answer again, with their state unchanged.
            assert engine.execute(write(10_000 + a)) is True
            assert engine.execute(write(10_000 + b)) is True
            assert engine.running
