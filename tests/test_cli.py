"""Tests for the command-line interface."""

import re
from dataclasses import fields, replace

import pytest

from repro.cli import main
from repro.net.config import NetConfig


class TestStandalone:
    def test_runs_and_prints_throughput(self, capsys):
        code = main(["standalone", "--algorithm", "lock-free",
                     "--workers", "4", "--measure-ops", "800"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "kops/s" in out

    @pytest.mark.parametrize("algorithm", ("coarse-grained", "sequential",
                                           "class-based", "early",
                                           "early-batched"))
    def test_all_algorithms_accepted(self, capsys, algorithm):
        assert main(["standalone", "--algorithm", algorithm,
                     "--workers", "2", "--measure-ops", "400"]) == 0

    def test_scheduler_alias_selects_algorithm(self, capsys):
        assert main(["standalone", "--scheduler", "early",
                     "--workers", "2", "--measure-ops", "400"]) == 0
        assert "algorithm=early" in capsys.readouterr().out

    def test_write_pct_flag(self, capsys):
        assert main(["standalone", "--write-pct", "50",
                     "--measure-ops", "400"]) == 0
        assert "writes=50.0%" in capsys.readouterr().out

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["standalone", "--algorithm", "bogus"])


class TestSmr:
    def test_prints_latency(self, capsys):
        code = main(["smr", "--workers", "2", "--clients", "20",
                     "--measure-ops", "600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency:" in out


class TestMpEngine:
    """The mp engine is a deployment's engine (``net supervise|bench
    --engine mp``); ``standalone`` and ``smr`` run the simulator only."""

    def test_standalone_zipf(self, capsys):
        assert main(["standalone", "--key-dist", "zipf", "--zipf-s", "1.2",
                     "--measure-ops", "400"]) == 0

    def test_rejects_unknown_engine(self):
        for argv in (["standalone", "--engine", "mp"],
                     ["standalone", "--mp-workers", "2"],
                     ["smr", "--engine", "mp"],
                     ["smr", "--mp-workers", "2"],
                     ["smr", "--key-dist", "zipf"],
                     ["smr", "--zipf-s", "1.2"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_net_parser_accepts_engine_flags(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["net", "bench", "--engine", "mp", "--mp-workers", "3"])
        assert args.engine == "mp"
        assert args.mp_workers == 3


class _Spawned(Exception):
    """Raised by the fake ``Supervisor`` in place of spawning processes;
    carries the config it was handed."""


def _flag_cases():
    """(field, spelling, argv tail, value the config must then hold) for
    every flag the deployment's fields declare — a non-default value."""
    for f in fields(NetConfig):
        meta = f.metadata
        if "flag" not in meta:
            continue
        if isinstance(f.default, bool):
            value, tail = not f.default, []
        elif meta["choices"]:
            value = [c for c in meta["choices"] if c != f.default][-1]
            tail = [value]
        elif f.default is None:
            value, tail = 0.125, ["0.125"]
        else:
            value, tail = f.default + 1, [str(f.default + 1)]
        for spelling in meta["flag"]:
            yield pytest.param(f.name, [spelling, *tail], value,
                               id=spelling.lstrip("-"))


class TestNetCli:
    """The deployment flags of ``net supervise`` / ``net bench`` are
    generated from the spec's fields; the partitioned deployment is a flag
    on the ordinary subcommands (``--groups`` / ``net client --cross``)."""

    @staticmethod
    def _parse(*argv):
        from repro.cli import _build_parser

        return _build_parser().parse_args(["net", *argv])

    @pytest.fixture
    def handed_to_supervisor(self, monkeypatch, tmp_path):
        """Run a ``net`` subcommand up to ``Supervisor(config)`` and
        return that config; nothing is spawned."""
        class FakeSupervisor:
            def __init__(self, config, **kwargs):
                raise _Spawned(config)

        monkeypatch.setattr("repro.net.supervisor.Supervisor",
                            FakeSupervisor)
        monkeypatch.setattr("repro.net.bench.Supervisor", FakeSupervisor)
        monkeypatch.chdir(tmp_path)     # supervise writes its config here

        def run(*argv):
            with pytest.raises(_Spawned) as caught:
                main(["net", *argv])
            return caught.value.args[0]

        return run

    @pytest.mark.parametrize("subcommand", ("supervise", "bench"))
    @pytest.mark.parametrize("name,argv,value", _flag_cases())
    def test_every_deployment_flag_reaches_the_replicas(
            self, handed_to_supervisor, subcommand, name, argv, value):
        defaults = handed_to_supervisor(subcommand)
        assert getattr(defaults, name) != value
        config = handed_to_supervisor(subcommand, *argv)
        assert isinstance(config, NetConfig)
        assert getattr(config, name) == value
        assert replace(config, **{name: getattr(defaults, name)},
                       addresses=defaults.addresses) == defaults

    def test_supervise_groups_flag_reaches_the_config(
            self, handed_to_supervisor, tmp_path):
        assert self._parse("supervise").n_groups == 1
        assert self._parse("supervise").config_out == (
            "repro-net-cluster.json")
        config = handed_to_supervisor(
            "supervise", "--groups", "2", "--service", "linked-list-keyed",
            "--engine", "mp", "--no-lease-reads",
            "--replicas", "5", "--metrics")
        assert (config.n_groups, config.engine, config.wire) == (
            2, "mp", "binary")
        assert config.lease_reads is False
        assert config.service == "linked-list-keyed"
        assert config.n_replicas == len(config.metrics_addresses) == 5
        # The file clients join through describes the same deployment.
        written = (tmp_path / "repro-net-cluster.json").read_text()
        assert NetConfig.from_json(written) == config

    def test_bench_shares_the_cluster_options(self, handed_to_supervisor):
        config = handed_to_supervisor(
            "bench", "--workers", "7", "--propose-linger", "0.002",
            "--no-cumulative-acks", "--groups", "2", "--replicas", "1")
        assert config.workers == 7
        assert config.propose_linger == 0.002
        assert config.cumulative_acks is False
        assert (config.n_groups, config.n_replicas) == (2, 1)

    def test_client_cross_flags(self):
        args = self._parse("client", "--config", "c.json")
        assert (args.cross, args.keys_per_cross) == (0.0, 2)
        args = self._parse("client", "--config", "c.json", "--cross", "0.3",
                           "--keys-per-cross", "3")
        assert (args.cross, args.keys_per_cross) == (0.3, 3)

    def test_client_cross_needs_a_partitioned_deployment(self, tmp_path,
                                                         capsys):
        from repro.net.config import loopback_config

        path = tmp_path / "single.json"
        path.write_text(loopback_config(3).to_json())
        # Refused before any socket is opened: no cluster is running here.
        assert main(["net", "client", "--config", str(path),
                     "--cross", "0.5"]) == 2
        assert "--cross needs a partitioned deployment" in (
            capsys.readouterr().err)

    def test_client_refuses_an_empty_batch(self, tmp_path, capsys):
        from repro.net.config import loopback_config

        path = tmp_path / "single.json"
        path.write_text(loopback_config(3).to_json())
        assert main(["net", "client", "--config", str(path),
                     "--batch", "0"]) == 2
        assert "--batch must be >= 1" in capsys.readouterr().err

    def test_client_reports_its_closed_loop(self, tmp_path, capsys):
        from repro.net.cluster import TcpCluster
        from repro.net.config import loopback_config
        from repro.workload import WorkloadGenerator

        config = loopback_config(3, n_groups=2, service="linked-list-keyed")
        path = tmp_path / "grouped.json"
        path.write_text(config.to_json())
        with TcpCluster(config):
            # 30 is not a multiple of --batch: the last batch is short.
            assert main(["net", "client", "--config", str(path),
                         "--ops", "30", "--batch", "8", "--cross",
                         "0.25"]) == 0
        cross = sum(len(command.args) > 1 for command in WorkloadGenerator(
            30.0, key_space=500, seed=1, cross_partition_fraction=0.25,
            n_partitions=2).commands(30))
        assert re.fullmatch(
            rf"executed 30 commands in \d+\.\d\ds \(\d+ cmds/s\), "
            rf"{cross} cross-partition, 0 timed out\n",
            capsys.readouterr().out)


class TestFigures:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_single_figure(self, capsys, monkeypatch):
        # Patch figure2 to avoid a multi-second sweep in unit tests.
        import repro.cli as cli
        from repro.bench import FigureData

        def fake_figure2(quick=None):
            figure = FigureData(name="fig2", title="t", x_label="w",
                                y_label="kops")
            figure.add_point("light", "lock-free", 1, 100.0)
            return figure

        # The handler imports its stack when it runs, so patch the source.
        monkeypatch.setattr("repro.bench.figure2", fake_figure2)
        assert cli.main(["figures", "fig2"]) == 0
        assert "fig2" in capsys.readouterr().out
