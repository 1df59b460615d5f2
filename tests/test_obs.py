"""Unit and invariant tests for the unified observability layer (repro.obs).

The load-bearing invariant is at the bottom: observability must be
**zero-cost when disabled** and **schedule-neutral when enabled** — the
discrete-event figure runs produce bit-identical numbers with no registry,
and identical throughput/schedules with a live registry, because the
instrumentation never adds, removes, or reorders effects.
"""

from __future__ import annotations

import json
import statistics

import pytest

from repro.bench.harness import StandaloneConfig, run_standalone
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    SpanLog,
    log_spaced_buckets,
    quantile,
    render_text,
)
from repro.sim import PROFILES, Metrics, Simulator
from repro.smr.sim_cluster import SimClusterConfig, run_sim_cluster
from repro.spec.sim import SpecSimConfig, run_spec_sim

MODERATE = PROFILES["moderate"]


# ---------------------------------------------------------------- instruments


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("ops_total") is counter  # cached by key

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1
        gauge.set(7)
        assert gauge.value == 7

    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("sent", peer="1").inc()
        registry.counter("sent", peer="2").inc(2)
        assert registry.counter("sent", peer="2").value == 2
        assert registry.series() == ['sent{peer="1"}', 'sent{peer="2"}']

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("b").observe(0.5)
        text = json.dumps(registry.snapshot())
        assert '"a"' in text and '"b"' in text


class TestHistogram:
    def test_fixed_buckets_are_deterministic(self):
        # Every process derives the same ladder from integer exponents —
        # the property that makes cross-process aggregation exact.
        assert DEFAULT_BUCKETS == log_spaced_buckets()
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)
        assert len(DEFAULT_BUCKETS) == 25

    def test_observe_counts_and_sums(self):
        hist = MetricsRegistry().histogram("latency_seconds")
        for value in (1e-5, 1e-3, 1e-3, 5.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(1e-5 + 2e-3 + 5.0)
        assert hist.mean == pytest.approx(hist.sum / 4)

    def test_quantile_within_bucket_resolution(self):
        hist = MetricsRegistry().histogram("h")
        for _ in range(100):
            hist.observe(0.01)
        estimate = hist.quantile(0.5)
        # One log-spaced bucket spans ~2.15x; the estimate lands inside
        # the bucket containing the true value.
        assert 0.01 / 2.2 <= estimate <= 0.01 * 2.2

    def test_quantile_empty_and_overflow(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.quantile(0.99) == 0.0
        hist.observe(1e9)  # beyond the last bound: overflow bucket
        assert hist.quantile(0.5) == DEFAULT_BUCKETS[-1]


class TestQuantileFunction:
    def test_matches_statistics_inclusive(self):
        import random

        rng = random.Random(5)
        values = sorted(rng.uniform(0, 10) for _ in range(23))
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for pct in (1, 25, 50, 75, 99):
            assert quantile(values, pct / 100) == pytest.approx(cuts[pct - 1])

    def test_degenerate_sizes(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([3.0], 0.99) == 3.0


# ---------------------------------------------------------------------- spans


class TestSpanLog:
    def test_stage_reconstruction_and_durations(self):
        clock = iter([1.0, 2.0, 5.0])
        log = SpanLog(lambda: next(clock))
        log.record(7, "delivered")
        log.record(7, "executing")
        log.record(7, "responded")
        spans = log.spans()
        assert spans[7] == {"delivered": 1.0, "executing": 2.0,
                            "responded": 5.0}
        assert log.durations("delivered", "responded") == [4.0]
        assert log.durations("executing", "responded") == [3.0]

    def test_bounded_drop_oldest(self):
        log = SpanLog(lambda: 0.0, capacity=3)
        for uid in range(5):
            log.record(uid, "delivered")
        assert [event[0] for event in log.events()] == [2, 3, 4]

    def test_explicit_timestamp_wins(self):
        log = SpanLog(lambda: 99.0)
        log.record(1, "submitted", at=1.5)
        assert log.events() == [(1, "submitted", 1.5)]

    def test_write_jsonl(self, tmp_path):
        log = SpanLog(lambda: 2.0)
        log.record(3, "responded")
        path = tmp_path / "trace.jsonl"
        assert log.write_jsonl(str(path)) == 1
        assert json.loads(path.read_text()) == {
            "uid": 3, "stage": "responded", "t": 2.0}


# ----------------------------------------------------------------- exposition


class TestRenderText:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("cos_inserts_total").inc(3)
        registry.gauge("cos_graph_size").set(2)
        registry.histogram("w", peer="1").observe(0.01)
        text = render_text(registry)
        assert "# TYPE cos_inserts_total counter" in text
        assert "cos_inserts_total 3" in text
        assert "cos_graph_size 2" in text
        assert '# TYPE w histogram' in text
        assert 'w_bucket{peer="1",le="+Inf"} 1' in text
        assert 'w_count{peer="1"} 1' in text

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        hist.observe(1e-6)   # first bucket
        hist.observe(50.0)   # near-last bucket
        text = render_text(registry)
        # The +Inf bucket must carry the full count (cumulative rendering).
        assert 'h_bucket{le="+Inf"} 2' in text


# -------------------------------------------------------------- null registry


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        null = NullRegistry()
        null.counter("a").inc()
        null.gauge("b").set(9)
        null.histogram("c").observe(1.0)
        null.span(1, "delivered")
        assert null.enabled is False
        assert null.series() == []
        assert null.snapshot() == {}
        assert NULL_REGISTRY.counter("x") is NULL_REGISTRY.histogram("y")

    def test_metrics_defaults_to_null(self):
        metrics = Metrics(Simulator())
        metrics.incr("executed", 3)
        assert metrics.count("executed") == 3  # local path unaffected


# ----------------------------------------------- warm-up edge cases (Metrics)


class TestMetricsWarmupEdges:
    def test_latency_before_mark_warm_is_dropped_even_with_registry(self):
        registry = MetricsRegistry()
        metrics = Metrics(Simulator(), registry=registry)
        metrics.record_latency(9.0)  # warm-up: dropped everywhere
        assert metrics.latency_stats() == (0.0, 0.0, 0.0)
        assert registry.snapshot() == {}
        metrics.mark_warm()
        metrics.record_latency(0.5)
        assert registry.histogram("latency_seconds").count == 1

    def test_throughput_at_zero_elapsed_is_zero(self):
        metrics = Metrics(Simulator())
        metrics.mark_warm()     # sim.now is still 0.0
        metrics.incr("executed", 10)
        assert metrics.throughput("executed") == 0.0  # not a ZeroDivision

    def test_registry_mirror_counts_from_run_start(self):
        registry = MetricsRegistry()
        metrics = Metrics(Simulator(), registry=registry)
        metrics.incr("executed")
        metrics.mark_warm()
        metrics.incr("executed")
        assert registry.counter("executed").value == 2
        assert metrics.warm_count("executed") == 1


# ------------------------------------------- DES determinism (the invariant)

#: Pre-PR outputs of six Fig. 2-sized standalone runs, captured on the seed
#: commit before the observability layer existed.  With observability
#: disabled these must stay BIT-IDENTICAL: the instrumentation may not add,
#: remove, or reorder a single simulator event.
FIG2_GOLDEN = {
    ("coarse-grained", 2): (33582.98209633602, 918,
                            0.030375276930984647, 10496),
    ("coarse-grained", 4): (46904.90437808247, 918,
                            0.02183990373501264, 10752),
    ("fine-grained", 2): (18220.933172057397, 902,
                          0.055236158043028755, 75776),
    ("fine-grained", 4): (24744.575296236682, 900,
                          0.04059786354846769, 73216),
    ("lock-free", 2): (35784.96700488178, 914,
                       0.028560488368950223, 13056),
    ("lock-free", 4): (50010.83121216352, 909,
                       0.020465580407265947, 12800),
}


def _fig2_config(algorithm: str, workers: int) -> StandaloneConfig:
    return StandaloneConfig(algorithm=algorithm, workers=workers,
                            profile=MODERATE, write_pct=15.0, seed=7,
                            warm_ops=100, measure_ops=900,
                            max_virtual_time=10.0)


@pytest.mark.parametrize("algorithm,workers", sorted(FIG2_GOLDEN))
def test_fig2_series_bit_identical_with_obs_disabled(algorithm, workers):
    result = run_standalone(_fig2_config(algorithm, workers))
    golden = FIG2_GOLDEN[(algorithm, workers)]
    assert (result.throughput, result.executed,
            result.virtual_time, result.events) == golden


# The two DES runtimes above the standalone one share a protocol driver
# (repro.sim.protocol); these tuples — (throughput, latency mean, latency
# p99, events) — were recorded before it was extracted and pin its RNG
# draw order.
SIM_CLUSTER_GOLDEN = {
    ("lock-free", 3): (58863.49364515108, 0.001594628816900729,
                       0.0019084066951427891, 3072),
    ("coarse-grained", 11): (57606.32143290243, 0.0016996444326533022,
                             0.0019389661862561375, 3072),
}

#: (speculative, seed, mismatch_rate) -> the same tuple.
SPEC_SIM_GOLDEN = {
    (True, 5, 0.2): (184.38076305887967, 0.021131241735993407,
                     0.04884781819194134, 6692),
    (False, 9, 0.0): (331.5081380638686, 0.011725549981482125,
                      0.012163031821409723, 1204),
}


@pytest.mark.parametrize("algorithm,seed", sorted(SIM_CLUSTER_GOLDEN))
def test_sim_cluster_bit_identical(algorithm, seed):
    result = run_sim_cluster(SimClusterConfig(
        algorithm=algorithm, workers=4, profile=MODERATE, write_pct=10.0,
        n_clients=20, client_batch=5, seed=seed, warm_ops=50,
        measure_ops=300, max_virtual_time=20.0))
    assert (result.throughput, result.latency_mean, result.latency_p99,
            result.events) == SIM_CLUSTER_GOLDEN[(algorithm, seed)]


@pytest.mark.parametrize("speculative,seed,mismatch_rate",
                         sorted(SPEC_SIM_GOLDEN))
def test_spec_sim_bit_identical(speculative, seed, mismatch_rate):
    result = run_spec_sim(SpecSimConfig(
        speculative=speculative, n_clients=4, total_commands=200,
        write_pct=70.0, mismatch_rate=mismatch_rate, seed=seed))
    assert (result.throughput, statistics.fmean(result.latencies),
            result.latency_quantile(0.99), result.events) == (
        SPEC_SIM_GOLDEN[(speculative, seed, mismatch_rate)])


@pytest.mark.parametrize("algorithm", ["coarse-grained", "fine-grained",
                                       "lock-free"])
def test_enabled_registry_does_not_shift_standalone_des(algorithm):
    config = _fig2_config(algorithm, 4)
    baseline = run_standalone(config)
    registry = MetricsRegistry()
    observed = run_standalone(config, registry=registry)
    assert observed.throughput == baseline.throughput
    assert observed.executed == baseline.executed
    assert observed.virtual_time == baseline.virtual_time
    assert observed.events == baseline.events
    # ...and the registry actually recorded the structure's activity.
    assert registry.counter("cos_inserts_total").value > 0
    assert registry.counter("cos_gets_total").value > 0
    assert registry.counter("cos_removes_total").value > 0
    # The stop predicate fires at >= target, so in-flight workers can
    # push a few extra completions past it.
    assert registry.counter("executed").value >= (config.warm_ops
                                                  + config.measure_ops)
    assert registry.histogram("cos_ready_wait_seconds").count > 0


def test_enabled_registry_does_not_shift_sim_cluster_des():
    config = SimClusterConfig(
        algorithm="lock-free", workers=4, profile=MODERATE,
        write_pct=10.0, n_clients=20, client_batch=5, seed=3,
        warm_ops=50, measure_ops=300, max_virtual_time=20.0)
    baseline = run_sim_cluster(config)
    registry = MetricsRegistry()
    observed = run_sim_cluster(config, registry=registry)
    assert observed.throughput == baseline.throughput
    assert observed.latency_mean == baseline.latency_mean
    assert observed.latency_p99 == baseline.latency_p99
    assert observed.executed == baseline.executed
    assert observed.virtual_time == baseline.virtual_time
    assert observed.events == baseline.events
    assert registry.counter("cos_inserts_total").value > 0
    assert registry.histogram("latency_seconds").count > 0
    # The registry clock followed the virtual clock, so recorded wait
    # times sit at virtual-time scale (sub-second), not wall-time scale.
    assert registry.clock() == observed.virtual_time


# ------------------------------------------------- transport depth gauge


class TestTcpOutboxDepthGauge:
    """``net_outbox_depth`` must count the pump's in-flight frame.

    Regression: the pump used to set the gauge to ``qsize()`` right after
    popping a frame, so a down peer holding exactly one undelivered frame
    reported depth 0 while the pump retried it forever — the gauge went
    stale at the precise moment it mattered.
    """

    def _transport(self, registry, **kwargs):
        from repro.net.config import free_port
        from repro.net.transport import TcpTransport

        addresses = {
            0: ("127.0.0.1", free_port()),
            1: ("127.0.0.1", free_port()),  # nobody listens: peer is down
        }
        return TcpTransport(0, addresses, registry=registry,
                            backoff_base=0.05, seed=7, **kwargs).start()

    @staticmethod
    def _await_depth(gauge, expected, timeout=5.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if gauge.value == expected:
                return
            time.sleep(0.01)
        assert gauge.value == expected, (
            f"net_outbox_depth stuck at {gauge.value}, "
            f"expected {expected}")

    def test_depth_counts_in_flight_frame_while_peer_down(self):
        registry = MetricsRegistry()
        transport = self._transport(registry)
        try:
            gauge = registry.gauge("net_outbox_depth", peer="1")
            transport.send(0, 1, ("ping", 0))
            # Pre-fix the pump pops the frame and sets the gauge to the
            # now-empty queue's size: 0.  The frame is still undelivered.
            self._await_depth(gauge, 1)
            for index in range(2):
                transport.send(0, 1, ("ping", 1 + index))
            self._await_depth(gauge, 3)
        finally:
            transport.close()

    def test_depth_consistent_across_drop_oldest(self):
        # The exact split between dropped and retained frames depends on
        # whether the pump pops before the later sends land, so assert
        # the timing-independent conservation law instead: the peer is
        # down, nothing is ever delivered, hence every sent frame is
        # either counted by the depth gauge (queued or in flight) or by
        # the drop counter.  Pre-fix the in-hand frame is in neither.
        import time

        registry = MetricsRegistry()
        transport = self._transport(registry, queue_limit=2)
        try:
            gauge = registry.gauge("net_outbox_depth", peer="1")
            drops = registry.counter("net_outbox_drops_total", peer="1")
            for index in range(4):
                transport.send(0, 1, ("ping", index))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if gauge.value + drops.value == 4:
                    break
                time.sleep(0.01)
            assert gauge.value + drops.value == 4, (
                f"frames leaked from the accounting: depth {gauge.value} "
                f"+ drops {drops.value} != 4 sent")
            # queue capped at 2 + at most 1 in flight: something dropped.
            assert drops.value >= 1
        finally:
            transport.close()
