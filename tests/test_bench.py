"""Tests for the benchmark harnesses and reporting (tiny runs)."""

import pytest

from repro.bench import (
    FigureData,
    StandaloneConfig,
    format_figure,
    run_standalone,
)
from repro.sim import LIGHT


def tiny(**overrides):
    defaults = dict(
        algorithm="lock-free",
        workers=2,
        profile=LIGHT,
        measure_ops=400,
        warm_ops=50,
    )
    defaults.update(overrides)
    return StandaloneConfig(**defaults)


class TestBackendDispatch:
    def test_sim_backend_dispatches_to_standalone(self):
        # The simulator backend is run_standalone itself; no string
        # dispatcher stands between a caller and its backend.
        result = run_standalone(tiny())
        assert result.throughput > 0


class TestStandaloneHarness:
    def test_runs_and_measures(self):
        result = run_standalone(tiny())
        assert result.throughput > 0
        assert result.executed >= 400
        assert result.kops == pytest.approx(result.throughput / 1e3)

    def test_deterministic(self):
        assert run_standalone(tiny()).throughput == \
            run_standalone(tiny()).throughput

    def test_seed_matters(self):
        a = run_standalone(tiny(seed=1))
        b = run_standalone(tiny(seed=2))
        assert a.throughput != b.throughput

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            run_standalone(tiny(workers=0))

    def test_write_pct_lowers_throughput(self):
        read_only = run_standalone(tiny(workers=4))
        write_heavy = run_standalone(tiny(workers=4, write_pct=100.0))
        assert write_heavy.throughput < read_only.throughput

    def test_virtual_time_cap_respected(self):
        result = run_standalone(tiny(
            algorithm="fine-grained", workers=1, measure_ops=10_000_000,
            max_virtual_time=0.01))
        assert result.virtual_time <= 0.011

    @pytest.mark.parametrize("algorithm", ("coarse-grained", "fine-grained",
                                           "lock-free", "sequential"))
    def test_all_algorithms(self, algorithm):
        assert run_standalone(tiny(algorithm=algorithm)).throughput > 0


class TestFigureData:
    def _figure(self):
        figure = FigureData(name="f", title="t", x_label="x", y_label="y")
        figure.add_point("panel", "series-a", 1, 10.0)
        figure.add_point("panel", "series-a", 2, 30.0)
        figure.add_point("panel", "series-b", 1, 20.0)
        return figure

    def test_add_and_best(self):
        figure = self._figure()
        assert figure.best_x("panel", "series-a") == 2
        assert figure.best_x("panel", "series-b") == 1

    def test_format_contains_series_and_values(self):
        text = format_figure(self._figure())
        assert "series-a" in text
        assert "30.0" in text
        assert "panel" in text

    def test_format_aligns_missing_points(self):
        text = format_figure(self._figure())
        # series-b has no x=2 point; the table still renders.
        assert text.count("\n") >= 4

    def test_fig6_scatter_format(self):
        figure = FigureData(name="fig6", title="t", x_label="kops",
                            y_label="ms")
        figure.add_point("5% writes", "lock-free", 100.0, 1.5)
        text = format_figure(figure)
        assert "->" in text


class TestTimeSeries:
    def test_rates_over_virtual_time(self):
        from repro.sim import Metrics, Simulator
        sim = Simulator()
        metrics = Metrics(sim)
        series = metrics.time_series()
        sim.schedule(1.0, lambda: (metrics.incr("x", 100),
                                   series.sample(metrics.count("x"))))
        sim.schedule(2.0, lambda: (metrics.incr("x", 300),
                                   series.sample(metrics.count("x"))))
        sim.run()
        assert series.points == [(1.0, 100.0), (2.0, 400.0 - 100.0)]

    def test_zero_elapsed_skipped(self):
        from repro.sim import Metrics, Simulator
        sim = Simulator()
        series = Metrics(sim).time_series()
        series.sample(5)  # elapsed == 0 at t=0
        assert series.points == []


class TestLockFreeGarbageBound:
    def test_helped_removal_bounds_garbage(self):
        from repro.core import (LockFreeCOS, ReadWriteConflicts, ThreadedCOS,
                                ThreadedRuntime)
        from repro.core.command import Command
        runtime = ThreadedRuntime()
        algo = LockFreeCOS(runtime, ReadWriteConflicts(), max_size=64)
        cos = ThreadedCOS(algo, runtime)
        # Execute-and-remove 30 commands without any intervening insert:
        # all 30 stay as logical garbage.
        for i in range(30):
            cos.insert(Command("contains", (i,), writes=False))
        for _ in range(30):
            cos.remove(cos.get())
        live, removed = algo.chain_stats_unsafe()
        assert (live, removed) == (0, 30)
        # One insert traversal helps-remove everything it passes.
        cos.insert(Command("contains", (99,), writes=False))
        live, removed = algo.chain_stats_unsafe()
        assert removed == 0
        assert live == 1


class TestAsciiPlot:
    def _figure(self):
        from repro.bench import FigureData
        figure = FigureData(name="p", title="t", x_label="w", y_label="kops")
        for w, y in ((1, 10.0), (2, 20.0), (4, 40.0)):
            figure.add_point("light", "lock-free", w, y)
            figure.add_point("light", "coarse-grained", w, y / 2)
        return figure

    def test_plot_contains_markers_and_legend(self):
        from repro.bench import plot_figure
        text = plot_figure(self._figure())
        assert "a=lock-free" in text or "b=lock-free" in text
        assert "kops" in text
        assert "+" in text  # axis corner

    def test_highest_point_is_top_series(self):
        from repro.bench import plot_panel
        text = plot_panel("light", self._figure().panels["light"], "kops")
        rows = text.split("\n")
        # First marker row from the top must belong to lock-free (series a).
        for row in rows[1:]:
            stripped = row.replace("|", "").replace("40.0", "").strip()
            if stripped:
                assert stripped[0] == "a"
                break

    def test_empty_panel(self):
        from repro.bench import plot_panel
        assert "(no data)" in plot_panel("empty", {}, "kops")

    def test_log_y_mode(self):
        from repro.bench import plot_figure
        text = plot_figure(self._figure(), log_y=True)
        assert "lock-free" in text


class TestBenchArtifacts:
    def _figure(self):
        figure = FigureData(name="demo", title="t", x_label="w",
                            y_label="kops")
        figure.add_point("light", "lock-free", 1, 10.0)
        figure.add_point("light", "lock-free", 2, 20.0)
        return figure

    def test_environment_has_provenance(self):
        from repro.bench import bench_environment
        env = bench_environment()
        assert set(env) >= {"git_sha", "python", "cpu_count",
                            "pythonhashseed", "recorded_at"}
        assert len(env["git_sha"]) == 40  # this repo is a git checkout

    def test_figure_payload_round_trips_points(self):
        from repro.bench import figure_payload
        payload = figure_payload(self._figure())
        assert payload["name"] == "demo"
        assert payload["panels"]["light"]["lock-free"] == [[1, 10.0],
                                                           [2, 20.0]]

    def test_write_bench_json(self, tmp_path):
        import json

        from repro.bench import figure_payload, write_bench_json
        path = write_bench_json("demo", figure_payload(self._figure()),
                                str(tmp_path), config={"workers": 2})
        assert path.endswith("BENCH_demo.json")
        document = json.loads(open(path).read())
        assert document["bench"] == "demo"
        assert document["config"] == {"workers": 2}
        assert document["result"]["panels"]["light"]["lock-free"]
        assert document["environment"]["git_sha"]

    def test_payload_with_to_json_hook(self, tmp_path):
        import json

        from repro.bench import write_bench_json

        class Result:
            def to_json(self):
                return {"throughput": 123.0}

        path = write_bench_json("hooked", Result(), str(tmp_path))
        assert json.loads(open(path).read())["result"] == {
            "throughput": 123.0}
