"""``python -m repro net <replica|client|supervise>``.

Subcommands:

- ``replica --id I --config FILE`` — run one replica process, e.g. under
  systemd or k8s (the supervisor forks the same code from its fork server,
  :mod:`repro.net.forkserver`); blocks until SIGTERM/SIGINT.  A config with
  ``n_groups > 1`` hosts one protocol node per consensus group
  (docs/partitioning.md).
- ``supervise --replicas N [--groups G] [...]`` — spawn a local
  process-per-replica cluster and keep it up until interrupted; prints the
  config file path so clients can join.
- ``client --config FILE --ops N [--cross F] [...]`` — run a closed-loop
  client batch workload against a running cluster and print throughput;
  ``--cross`` makes that fraction of the commands span partitions.  Any
  number of clients may run against one cluster at once.

The wall-clock benchmark of a deployment is ``benchmarks/e2e/run.py``.

``python -m repro net ...`` lands in :func:`main` without going through
:mod:`repro.cli`, and each handler imports what it runs when it runs: a
``net replica`` process loads a replica, not the client, supervisor and
figure stacks (tests/test_import_budget.py holds the line).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.net.config import NetConfig, loopback_config
from repro.smr.deployment import add_flags, flag_values

__all__ = ["add_net_parser", "main", "run_net"]


def _add_deployment_options(parser: argparse.ArgumentParser) -> None:
    """``--replicas`` plus one generated flag per :class:`NetConfig` field
    that declares one (repro.smr.deployment)."""
    parser.add_argument("--replicas", type=int, default=3)
    add_flags(parser, NetConfig)


def _loopback_from_args(args: argparse.Namespace,
                        metrics: bool = False) -> NetConfig:
    return loopback_config(n_replicas=args.replicas, metrics=metrics,
                           **flag_values(args, NetConfig))


def _load_config(path: str) -> Optional[NetConfig]:
    """The deployment file at ``path``; None (after one line on stderr) if
    it cannot be read as one — it is outside input."""
    try:
        with open(path) as handle:
            config = NetConfig.from_json(handle.read())
        config.validate()
        return config
    except (OSError, ConfigurationError) as error:
        print(f"error: cannot load deployment config {path}: {error}",
              file=sys.stderr)
        return None


_NET_HELP = ("TCP deployment: replica/client processes and their "
             "supervisor (docs/deployment.md)")


def add_net_parser(sub: argparse._SubParsersAction) -> None:
    """Hang ``net`` and its subcommands under :mod:`repro.cli`'s parser."""
    _add_subcommands(sub.add_parser("net", help=_NET_HELP))


def _add_subcommands(net: argparse.ArgumentParser) -> None:
    net_sub = net.add_subparsers(dest="net_command", required=True)

    replica = net_sub.add_parser("replica", help="run one replica process")
    replica.add_argument("--id", type=int, required=True, dest="replica_id")
    replica.add_argument("--config", required=True,
                         help="deployment JSON written by the supervisor")

    supervise = net_sub.add_parser(
        "supervise", help="spawn a local process-per-replica cluster")
    _add_deployment_options(supervise)
    supervise.add_argument("--config-out", default="repro-net-cluster.json",
                           help="where to write the deployment JSON")
    supervise.add_argument("--metrics", action="store_true",
                           help="serve /metrics from every replica "
                                "(docs/observability.md)")

    client = net_sub.add_parser(
        "client", help="closed-loop client against a running cluster")
    client.add_argument("--config", required=True)
    client.add_argument("--ops", type=int, default=200)
    client.add_argument("--batch", type=int, default=8)
    client.add_argument("--write-pct", type=float, default=30.0)
    client.add_argument("--cross", type=float, default=0.0,
                        help="fraction of commands spanning >= 2 partitions "
                             "(in [0, 1]; needs a config with n_groups > 1)")
    client.add_argument("--keys-per-cross", type=int, default=2,
                        help="keys (and distinct partitions) per "
                             "cross-partition command")
    client.add_argument("--contact", type=int, default=0)
    client.add_argument("--seed", type=int, default=1)


def _cmd_replica(args: argparse.Namespace) -> int:
    from repro.net.replica import run_replica

    config = _load_config(args.config)
    if config is None:
        return 2
    return run_replica(args.replica_id, config)


def _cmd_supervise(args: argparse.Namespace) -> int:
    from repro.net.replica import wait_for_signal
    from repro.net.supervisor import Supervisor

    config = _loopback_from_args(args, metrics=args.metrics)
    with open(args.config_out, "w") as handle:
        handle.write(config.to_json())
    with Supervisor(config) as supervisor:
        supervisor.wait_ready()
        hosting = (f", each hosting {config.n_groups} consensus groups"
                   if config.n_groups > 1 else "")
        print(f"{args.replicas} replica processes up{hosting}; deployment "
              f"config at {args.config_out}", flush=True)
        for replica_id, (host, port) in enumerate(config.metrics_addresses):
            print(f"replica {replica_id} metrics at "
                  f"http://{host}:{port}/metrics", flush=True)
        print("run a workload with: python -m repro net client "
              f"--config {args.config_out}"
              + (" --cross 0.1" if config.n_groups > 1 else ""), flush=True)
        wait_for_signal()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import itertools
    from types import SimpleNamespace

    from repro.net.client import NetClient
    from repro.smr.client import run_closed_loop
    from repro.workload import WorkloadGenerator

    config = _load_config(args.config)
    if config is None:
        return 2
    if args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    if config.n_groups < 2 and args.cross > 0:
        print(f"config {args.config} has n_groups={config.n_groups}; "
              f"--cross needs a partitioned deployment", file=sys.stderr)
        return 2
    workload = WorkloadGenerator(
        args.write_pct, key_space=500, seed=args.seed,
        cross_partition_fraction=args.cross,
        n_partitions=config.n_groups if args.cross > 0 else None,
        keys_per_cross=args.keys_per_cross,
    )
    commands = workload.commands(args.ops)
    pending = iter(commands)
    # Whole batches of --batch, the last one cut short at --ops.
    feed = SimpleNamespace(
        commands=lambda n: list(itertools.islice(pending, n)))
    client = NetClient(_client_id(), config, contact=args.contact)
    try:
        stats = run_closed_loop([client], [feed],
                                batches=-(-args.ops // args.batch),
                                batch=args.batch)
    finally:
        client.close()
    cross_sent = sum(1 for c in commands if len(c.args) > 1)
    crossed = f"{cross_sent} cross-partition, " if args.cross > 0 else ""
    print(f"executed {stats.executed} commands in {stats.duration:.2f}s "
          f"({stats.throughput:.0f} cmds/s), {crossed}{stats.errors} "
          f"timed out")
    return 0 if stats.errors == 0 else 1


def _client_id() -> str:
    """A client id no other ``net client`` process shares.  Replicas dedup
    by client id, so a shared one would have a client's requests answered
    from another's cache, whether the two run at once or one after the
    other."""
    return f"cli-{os.getpid()}-{os.urandom(4).hex()}"


def run_net(args: argparse.Namespace) -> int:
    handlers = {
        "replica": _cmd_replica,
        "supervise": _cmd_supervise,
        "client": _cmd_client,
    }
    return handlers[args.net_command](args)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro net ...`` (``argv`` starts after ``net``)."""
    parser = argparse.ArgumentParser(prog="repro net", description=_NET_HELP)
    _add_subcommands(parser)
    return run_net(parser.parse_args(argv))
