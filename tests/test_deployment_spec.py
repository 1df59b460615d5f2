"""One ``DeploymentSpec``: declared once, validated once, JSON-safe.

Both live runtimes configure themselves with a thin subclass of
:class:`repro.smr.deployment.DeploymentSpec`; the flag-generation half of
the contract is in tests/test_cli.py (``TestNetCli``).
"""

from dataclasses import fields

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.net.bench import NetBenchConfig
from repro.net.config import NetConfig, loopback_config
from repro.par.bench import MpClusterConfig
from repro.smr.cluster import ClusterConfig
from repro.smr.deployment import DeploymentSpec


def _net(n_replicas=3, **overrides):
    addresses = tuple(("127.0.0.1", 9000 + i) for i in range(n_replicas))
    return NetConfig(addresses=addresses, **overrides)


def _threaded(n_replicas=3, **overrides):
    return ClusterConfig(n_replicas=n_replicas, **overrides)


BOTH = pytest.mark.parametrize("build", (_threaded, _net),
                               ids=("ClusterConfig", "NetConfig"))


class TestOneValidate:
    @BOTH
    def test_defaults_are_valid(self, build):
        build().validate()

    @BOTH
    @pytest.mark.parametrize("override,match", [
        ({"cos_algorithm": "nope"}, "cos_algorithm"),
        ({"workers": 0}, "workers"),
        ({"mp_workers": 0}, "mp_workers"),
        ({"n_groups": 0}, "n_groups"),
        ({"batch_size": 0}, "batch_size"),
        ({"client_timeout": -1}, "client_timeout"),
        ({"client_timeout": 0}, "client_timeout"),
        ({"propose_linger": -1}, "propose_linger"),
        ({"lease_duration": -5}, "lease_duration"),
        ({"service": "nope"}, "service"),
        ({"protocol": "raft"}, "protocol"),
        ({"engine": "gpu"}, "engine"),
        ({"n_replicas": 2}, "odd replica count"),
        # Zero replicas is "too few", not "even".
        ({"n_replicas": 0}, "at least one replica"),
        ({"speculative": True}, "sequencer"),
        ({"speculative": True, "protocol": "sequencer", "engine": "mp"},
         "threaded engine"),
        ({"speculative": True, "protocol": "sequencer", "n_groups": 2},
         "single-group"),
    ], ids=lambda value: "-".join(value) if isinstance(value, dict) else "")
    def test_rejects(self, build, override, match):
        with pytest.raises(ConfigurationError, match=match):
            build(**override).validate()

    @BOTH
    def test_sequential_is_a_cos_algorithm(self, build):
        build(cos_algorithm="sequential", protocol="sequencer",
              n_replicas=2).validate()

    def test_runtime_fields_are_checked_by_the_runtime(self):
        with pytest.raises(ConfigurationError, match="unknown wire"):
            _net(wire="morse").validate()
        with pytest.raises(ConfigurationError, match="metrics_addresses"):
            _net(metrics_addresses=(("127.0.0.1", 1),)).validate()
        with pytest.raises(ConfigurationError, match="service name"):
            _threaded(engine="mp", service_factory=dict).validate()


class TestDeclaredOnce:
    def test_subclasses_redeclare_nothing(self):
        shared = {f.name for f in fields(DeploymentSpec)}
        assert len(shared) >= 17
        for cls in (ClusterConfig, NetConfig):
            assert not shared & (set(cls.__annotations__) - {"n_replicas"})
            assert shared < {f.name for f in fields(cls)}
        for cls in (NetBenchConfig, MpClusterConfig):
            assert shared.isdisjoint(f.name for f in fields(cls))
            assert "deployment" in cls.__annotations__

    def test_field_count_stays_down(self):
        # 88 across the four config classes before there was a spec.
        assert sum(len(cls.__annotations__) for cls in (
            DeploymentSpec, ClusterConfig, NetConfig, NetBenchConfig,
            MpClusterConfig)) <= 52

    def test_positional_construction_is_refused(self):
        with pytest.raises(TypeError):
            ClusterConfig("kv")


class TestJson:
    def test_round_trip(self):
        config = loopback_config(
            3, metrics=True, service="kv", protocol="sequencer",
            speculative=True, service_kwargs={"x": [1, 2]},
            propose_linger=0.002, lease_reads=False, trace=True)
        assert NetConfig.from_json(config.to_json()) == config

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            NetConfig.from_json('{"addresses": [["h", 1]], "bogus": 1}')

    def test_missing_key_is_named(self):
        with pytest.raises(ConfigurationError, match="addresses"):
            NetConfig.from_json('{"service": "kv"}')

    @pytest.mark.parametrize("text", ["", "[1, 2]", "{not json",
                                      '{"addresses": 5}',
                                      '{"addresses": [["h"]]}'])
    def test_malformed_document(self, text):
        with pytest.raises(ConfigurationError):
            NetConfig.from_json(text)

    @pytest.mark.parametrize("argv", (["replica", "--id", "0"],
                                      ["client"]))
    @pytest.mark.parametrize("text", [
        '{"addresses": [["127.0.0.1", 1]], "bogus": 1}', '{"service": "kv"}',
        None])
    def test_cli_refuses_a_bad_config_file(self, argv, text, tmp_path,
                                           capsys):
        path = tmp_path / "bad.json"
        if text is not None:             # None: the file does not exist
            path.write_text(text)
        assert main(["net", *argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err
