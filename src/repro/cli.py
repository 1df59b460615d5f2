"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

- ``figures [fig2 ... fig6] [--full]`` — regenerate the paper's figures as
  ASCII tables.
- ``standalone --algorithm A --workers N [...]`` — one standalone
  data-structure run (paper §7.3), printing throughput.
- ``smr --algorithm A --workers N [...]`` — one simulated SMR run
  (paper §7.4), printing throughput and latency.
- ``ablations [--full]`` — run the ablation sweeps.
- ``check --algorithm A --workers N --commands M [...]`` — systematically
  model-check the algorithm's schedule space against the COS sequential
  specification (see ``docs/model_checking.md``).
- ``net replica|supervise|client|bench [...]`` — the TCP multi-process
  deployment: replica/client processes, a local cluster supervisor, and a
  loopback benchmark (see ``docs/deployment.md``).

Each handler imports the stack it runs when it runs (``check`` loads no
figure harness, ``figures`` no model checker); ``python -m repro net ...``
does not come through this module at all (:mod:`repro.__main__`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.core import COS_ALGORITHMS
from repro.net.cli import add_net_parser, run_net
from repro.sim import PROFILES

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", "--scheduler", default="lock-free",
                        choices=COS_ALGORITHMS,
                        help="COS scheduler (--scheduler is an alias; "
                             "'early'/'early-batched' compile the conflict "
                             "classes to worker sets at configuration time)")
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--profile", default="light",
                        choices=sorted(PROFILES))
    parser.add_argument("--write-pct", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--measure-ops", type=int, default=5000)
    parser.add_argument("--obs", action="store_true",
                        help="record the run through the observability "
                             "registry and print its snapshot "
                             "(docs/observability.md)")
    parser.add_argument("--engine", default="sim",
                        choices=("sim", "threaded", "mp"),
                        help="'sim' runs the discrete-event simulator "
                             "(the paper's figures); 'threaded'/'mp' run "
                             "real wall-clock execution, 'mp' on the "
                             "shard-per-process engine "
                             "(docs/parallel_execution.md)")
    parser.add_argument("--mp-workers", type=int, default=2,
                        help="shard worker processes with --engine mp")
    parser.add_argument("--key-dist", default="uniform",
                        choices=("uniform", "zipf"),
                        help="workload key distribution (zipf = skewed, "
                             "YCSB-style)")
    parser.add_argument("--zipf-s", type=float, default=0.99,
                        help="Zipf exponent for --key-dist zipf")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Boosting concurrency in Parallel "
                    "State Machine Replication' (Middleware '19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("names", nargs="*",
                         choices=["fig2", "fig3", "fig4", "fig5", "fig6", []],
                         help="figures to run (default: all)")
    figures.add_argument("--full", action="store_true",
                         help="paper's full parameter grids")
    figures.add_argument("--plot", action="store_true",
                         help="render ASCII charts instead of tables")

    standalone = sub.add_parser(
        "standalone", help="one standalone data-structure run (paper §7.3)")
    _add_common(standalone)

    smr = sub.add_parser(
        "smr", help="one simulated SMR cluster run (paper §7.4)")
    _add_common(smr)
    smr.add_argument("--clients", type=int, default=200)
    smr.add_argument("--speculative", action="store_true",
                     help="optimistic execution over the sequencer fast "
                          "path: execute on optimistic delivery, commit or "
                          "roll back on the conservative order "
                          "(docs/speculation.md); with --engine sim runs "
                          "the speculation DES side by side with the "
                          "conservative baseline, with --engine threaded "
                          "runs a real speculative cluster")
    smr.add_argument("--mismatch-rate", type=float, default=0.0,
                     help="forced optimistic-reorder probability in the "
                          "speculation DES (--speculative --engine sim)")

    ablations = sub.add_parser("ablations", help="run ablation sweeps")
    ablations.add_argument("--full", action="store_true")

    check = sub.add_parser(
        "check",
        help="systematic schedule-space model check against the COS spec")
    check.add_argument("--algorithm", "--scheduler", default="lock-free",
                       help="COS algorithm (underscores accepted, e.g. "
                            "lock_free; --scheduler is an alias), "
                            "paxos-lease for the leader-lease harness "
                            "(docs/ordering.md), groups-rendezvous for "
                            "the cross-partition merge harness "
                            "(docs/partitioning.md), or spec-rollback for "
                            "the optimistic commit/rollback harness "
                            "(docs/speculation.md)")
    check.add_argument("--workers", type=int, default=3)
    check.add_argument("--commands", type=int, default=5)
    check.add_argument("--max-size", type=int, default=4,
                       help="graph capacity under check")
    check.add_argument("--write-every", type=int, default=2,
                       help="every Nth command writes (0 = all reads)")
    check.add_argument("--max-schedules", type=int, default=300,
                       help="exploration budget (schedules)")
    check.add_argument("--max-steps", type=int, default=20000,
                       help="depth bound per schedule (effects)")
    check.add_argument("--no-dpor", action="store_true",
                       help="disable sleep-set pruning (naive DFS)")
    check.add_argument("--seed", type=int, default=0,
                       help="seed for the random-walk exploration stage")
    check.add_argument("--mutant", default=None,
                       help="check a seeded-bug variant (repro.check."
                            "mutants, a lease mutant from repro.check."
                            "paxos_lease, a groups mutant from "
                            "repro.check.groups_rendezvous, or a spec "
                            "mutant from repro.check.spec_rollback) "
                            "instead of the real implementation")
    check.add_argument("--replay", metavar="FILE",
                       help="re-run a recorded counterexample file instead "
                            "of exploring")
    check.add_argument("--replay-out", metavar="FILE",
                       default="repro-check-counterexample.json",
                       help="where to write a found counterexample")

    add_net_parser(sub)
    return parser


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import (figure2, figure3, figure4, figure5, figure6,
                             plot_figure, print_figure)

    wanted = set(args.names) or {"fig2", "fig3", "fig4", "fig5", "fig6"}
    quick = not args.full
    show = (lambda fig: print(plot_figure(fig))) if args.plot else print_figure
    fig2_data = fig4_data = None
    if wanted & {"fig2", "fig3"}:
        fig2_data = figure2(quick=quick)
        if "fig2" in wanted:
            show(fig2_data)
    if "fig3" in wanted:
        show(figure3(quick=quick, fig2=fig2_data))
    if wanted & {"fig4", "fig5"}:
        fig4_data = figure4(quick=quick)
        if "fig4" in wanted:
            show(fig4_data)
    if "fig5" in wanted:
        show(figure5(quick=quick, fig4=fig4_data))
    if "fig6" in wanted:
        show(figure6(quick=quick))
    return 0


def _obs_registry(args: argparse.Namespace):
    """A registry to record the run through when ``--obs`` asks for one."""
    if not args.obs:
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _print_obs(registry, clock: str = "virtual clock") -> None:
    from repro.obs import render_text

    print(f"--- observability snapshot ({clock}) ---")
    print(render_text(registry), end="")


def _cmd_standalone(args: argparse.Namespace) -> int:
    if args.engine != "sim":
        return _cmd_standalone_wallclock(args)
    registry = _obs_registry(args)
    from repro.bench import StandaloneConfig, run_standalone

    result = run_standalone(StandaloneConfig(
        algorithm=args.algorithm,
        workers=args.workers,
        profile=PROFILES[args.profile],
        write_pct=args.write_pct,
        seed=args.seed,
        measure_ops=args.measure_ops,
        warm_ops=max(args.measure_ops // 10, 50),
        key_dist=args.key_dist,
        zipf_s=args.zipf_s,
    ), registry=registry)
    print(f"algorithm={args.algorithm} workers={args.workers} "
          f"profile={args.profile} writes={args.write_pct}%")
    print(f"throughput: {result.kops:.1f} kops/s "
          f"({result.executed} cmds in {result.virtual_time * 1e3:.1f} "
          f"virtual ms, {result.events} events)")
    if registry is not None:
        _print_obs(registry)
    return 0


def _cmd_standalone_wallclock(args: argparse.Namespace) -> int:
    """One replica on a real engine against a wall clock (--engine mp)."""
    from repro.obs import MetricsRegistry
    from repro.par.bench import MpBenchConfig, run_mp_bench

    registry = MetricsRegistry()
    result = run_mp_bench(MpBenchConfig(
        engine=args.engine,
        mp_workers=args.mp_workers,
        workers=args.workers,
        cos_algorithm=args.algorithm,
        write_pct=args.write_pct,
        key_dist=args.key_dist,
        zipf_s=args.zipf_s,
        seed=args.seed,
        measure_ops=args.measure_ops,
        warm_ops=max(args.measure_ops // 10, 50),
    ), registry=registry)
    print(f"engine={args.engine} algorithm={args.algorithm} "
          f"mp_workers={args.mp_workers} writes={args.write_pct}% "
          f"key_dist={args.key_dist}")
    print(f"throughput: {result.throughput:,.0f} cmds/s wall clock "
          f"({result.executed} cmds in {result.duration:.2f}s)")
    if args.engine == "mp":
        print(f"dispatch latency: p50 {result.dispatch_p50 * 1e6:.0f} us / "
              f"p99 {result.dispatch_p99 * 1e6:.0f} us   shard busy: "
              + " ".join(f"{busy:.2f}" for busy in result.shard_busy))
    if args.obs:
        _print_obs(registry, "wall clock")
    return 0


def _cmd_smr(args: argparse.Namespace) -> int:
    if args.speculative and args.engine == "sim":
        return _cmd_smr_speculative(args)
    if args.engine != "sim":
        return _cmd_smr_wallclock(args)
    registry = _obs_registry(args)
    from repro.smr.sim_cluster import SimClusterConfig, run_sim_cluster

    result = run_sim_cluster(SimClusterConfig(
        algorithm=args.algorithm,
        workers=args.workers,
        profile=PROFILES[args.profile],
        write_pct=args.write_pct,
        n_clients=args.clients,
        seed=args.seed,
        measure_ops=args.measure_ops,
        warm_ops=max(args.measure_ops // 10, 50),
    ), registry=registry)
    print(f"algorithm={args.algorithm} workers={args.workers} "
          f"profile={args.profile} writes={args.write_pct}% "
          f"clients={args.clients}")
    print(f"throughput: {result.kops:.1f} kops/s   "
          f"latency: mean {result.latency_ms:.2f} ms / "
          f"p99 {result.latency_p99 * 1e3:.2f} ms")
    if registry is not None:
        _print_obs(registry)
    return 0


def _cmd_smr_speculative(args: argparse.Namespace) -> int:
    """The speculation DES: optimistic vs conservative, same workload."""
    from repro.spec.sim import SpecSimConfig, run_spec_sim

    results = {}
    for speculative in (True, False):
        results[speculative] = run_spec_sim(SpecSimConfig(
            speculative=speculative,
            n_clients=max(1, min(args.clients, 16)),
            total_commands=args.measure_ops,
            write_pct=args.write_pct or 100.0,
            mismatch_rate=args.mismatch_rate if speculative else 0.0,
            seed=args.seed,
        ))
    spec, cons = results[True], results[False]
    print(f"speculative DES: clients={spec.config.n_clients} "
          f"commands={spec.config.total_commands} "
          f"mismatch_rate={spec.config.mismatch_rate}")
    for label, result in (("speculative", spec), ("conservative", cons)):
        print(f"  {label:>12}: median "
              f"{result.latency_quantile(0.5) * 1e3:.2f} ms / p99 "
              f"{result.latency_quantile(0.99) * 1e3:.2f} ms   "
              f"throughput {result.throughput:,.0f}/s   "
              f"match {result.match_rate:.1%}   "
              f"rollbacks {result.rollbacks}")
    ratio = (spec.latency_quantile(0.5) / cons.latency_quantile(0.5)
             if cons.latency_quantile(0.5) else 0.0)
    print(f"  median latency ratio (speculative/conservative): {ratio:.2f}")
    # Replicas must agree within each mode; across modes the closed-loop
    # pacing interleaves clients differently, so orders legitimately differ.
    identical = (all(s == spec.snapshots[0] for s in spec.snapshots)
                 and all(s == cons.snapshots[0] for s in cons.snapshots))
    print(f"  replica states identical within each mode: {identical}")
    return 0 if identical else 1


def _cmd_smr_wallclock(args: argparse.Namespace) -> int:
    """A real threaded cluster on a selectable engine (--engine mp)."""
    from repro.par.bench import (CLUSTER_KEY_SPACE, MpClusterConfig,
                                 run_mp_cluster)
    from repro.smr.cluster import ClusterConfig

    deployment = ClusterConfig(
        # Speculation rides the sequencer's optimistic delivery.
        protocol="sequencer" if args.speculative else "paxos",
        speculative=args.speculative,
        engine=args.engine,
        mp_workers=args.mp_workers,
        workers=args.workers,
        cos_algorithm=args.algorithm,
        # Scale the list to the key space so ``contains`` walks are real
        # CPU work — the thing the mp engine parallelizes.
        service_kwargs={"initial_size": CLUSTER_KEY_SPACE},
    )
    config = MpClusterConfig(
        deployment=deployment,
        write_pct=args.write_pct,
        key_dist=args.key_dist,
        zipf_s=args.zipf_s,
        seed=args.seed,
        ops=args.measure_ops,
        n_clients=min(args.clients, 16),
    )
    stats = run_mp_cluster(config)
    print(f"engine={args.engine} algorithm={args.algorithm} "
          f"mp_workers={args.mp_workers} writes={args.write_pct}% "
          f"clients={config.n_clients}")
    print(f"throughput: {stats.throughput:,.0f} cmds/s wall clock   "
          f"batch latency: mean {stats.latency_mean * 1e3:.1f} ms / "
          f"p99 {stats.latency_quantile(0.99) * 1e3:.1f} ms   "
          f"({stats.executed} executed, {stats.errors} timed out)")
    return 0


class _Harness(NamedTuple):
    """One protocol-level ``repro check`` harness (a seeded random walk
    over a protocol's schedules, not over COS thread interleavings)."""

    mutants: Any                         # its seeded-bug registry
    config: Callable[..., Any]
    run: Callable[..., Any]
    save_replay: Callable[..., None]
    replay: Callable[[str], Any]
    describe: Callable[[Any], str]       # the config half of the header


def _harnesses() -> Dict[str, _Harness]:
    """``--algorithm`` name -> harness.  paxos-lease walks schedules of the
    lease protocol (docs/ordering.md); groups-rendezvous walks per-replica
    interleavings of the partitions' consensus logs and checks that the
    merge rule yields one total order (docs/partitioning.md); spec-rollback
    walks per-replica optimistic delivery orders and checks commit/rollback
    against a sequential execution of the conservative order
    (docs/speculation.md)."""
    from repro.check import groups_rendezvous as groups
    from repro.check import paxos_lease as lease
    from repro.check import spec_rollback as spec

    return {
        "paxos-lease": _Harness(
            lease.LEASE_MUTANTS, lease.LeaseCheckConfig,
            lease.run_lease_check, lease.save_lease_replay,
            lease.replay_lease,
            lambda c: (f"nodes={c.n_nodes} lease={c.lease_duration}s "
                       f"margin={c.lease_margin}s skew={c.clock_skew}")),
        "groups-rendezvous": _Harness(
            groups.GROUPS_MUTANTS, groups.GroupsCheckConfig,
            groups.run_groups_check, groups.save_groups_replay,
            groups.replay_groups,
            lambda c: (f"groups={c.n_groups} replicas={c.n_replicas} "
                       f"keys={c.key_space} length={c.schedule_length}")),
        "spec-rollback": _Harness(
            spec.SPEC_MUTANTS, spec.SpecCheckConfig,
            spec.run_spec_check, spec.save_spec_replay, spec.replay_spec,
            lambda c: (f"replicas={c.n_replicas} keys={c.key_space} "
                       f"length={c.schedule_length}")),
    }


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import CheckConfig, run_check
    from repro.check.paxos_lease import replay_harness_kind
    from repro.check.replay import replay as replay_file
    from repro.check.replay import save_replay

    harnesses = _harnesses()
    if args.replay:
        try:
            # Harness replays carry a "harness" key; COS replays
            # (version-1 format) have none — dispatch on it.
            harness = harnesses.get(replay_harness_kind(args.replay))
            if harness is not None:
                violation = harness.replay(args.replay)
            else:
                violation = replay_file(args.replay, max_steps=args.max_steps)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot replay {args.replay}: {error}",
                  file=sys.stderr)
            return 2
        if violation is None:
            print(f"replay {args.replay}: no violation (schedule now passes)")
            return 0
        print(f"replay {args.replay}: reproduced {violation.describe()}")
        return 1

    algorithm = args.algorithm.replace("_", "-")
    for name, harness in harnesses.items():
        if algorithm == name or args.mutant in harness.mutants:
            return _cmd_check_harness(args, name, harness)

    config = CheckConfig(
        algorithm=algorithm,
        workers=args.workers,
        commands=args.commands,
        max_size=args.max_size,
        write_every=args.write_every,
        mutant=args.mutant,
    )
    try:
        report = run_check(
            config,
            max_schedules=args.max_schedules,
            max_steps=args.max_steps,
            use_sleep_sets=not args.no_dpor,
            seed=args.seed,
        )
    except ValueError as error:  # unknown algorithm / unknown mutant
        print(f"error: {error}", file=sys.stderr)
        return 2
    mutant = f" mutant={config.mutant}" if config.mutant else ""
    print(f"check algorithm={config.algorithm}{mutant} "
          f"workers={config.workers} commands={config.commands} "
          f"max_size={config.max_size}")
    print(report.result.describe())
    if report.ok:
        return 0
    if report.shrunk is not None:
        shrunk = report.shrunk
        print(f"shrunk counterexample: {len(shrunk.decisions)} decisions, "
              f"{shrunk.context_switches} context switches "
              f"({shrunk.candidates_tried} candidates tried)")
        save_replay(args.replay_out, config, shrunk.decisions,
                    shrunk.violation)
        print(f"replay file written to {args.replay_out} "
              f"(re-run with: python -m repro check --replay "
              f"{args.replay_out})")
    return 1


def _cmd_check_harness(args: argparse.Namespace, name: str,
                       harness: _Harness) -> int:
    """A protocol-harness branch of ``repro check``: selected by its
    ``--algorithm`` name or by any ``--mutant`` from its registry."""
    config = harness.config(mutant=args.mutant)
    try:
        report = harness.run(
            config, max_schedules=args.max_schedules, seed=args.seed)
    except ValueError as error:  # unknown mutant
        print(f"error: {error}", file=sys.stderr)
        return 2
    mutant = f" mutant={config.mutant}" if config.mutant else ""
    print(f"check algorithm={name}{mutant} {harness.describe(config)}")
    print(report.describe())
    if report.ok:
        return 0
    if report.shrunk_decisions is not None:
        print(f"shrunk counterexample: {len(report.shrunk_decisions)} "
              f"decisions ({report.shrink_candidates} candidates tried)")
        harness.save_replay(args.replay_out, config, report.shrunk_decisions,
                            report.violation)
        print(f"replay file written to {args.replay_out} "
              f"(re-run with: python -m repro check --replay "
              f"{args.replay_out})")
    return 1


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.bench import (ablation_batch_size, ablation_class_scheduler,
                             ablation_graph_size, ablation_handoff_cost,
                             ablation_keyed_conflicts, print_figure)

    quick = not args.full
    for runner in (ablation_graph_size, ablation_batch_size,
                   ablation_keyed_conflicts, ablation_handoff_cost,
                   ablation_class_scheduler):
        print_figure(runner(quick=quick))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "figures": _cmd_figures,
        "standalone": _cmd_standalone,
        "smr": _cmd_smr,
        "ablations": _cmd_ablations,
        "check": _cmd_check,
        "net": run_net,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
