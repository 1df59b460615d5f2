"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

- ``figures [fig2 ... fig6] [--full]`` — regenerate the paper's figures as
  ASCII tables.
- ``standalone --algorithm A --workers N [...]`` — one simulated
  standalone data-structure run (paper §7.3), printing throughput.
- ``smr --algorithm A --workers N [...]`` — one simulated SMR run
  (paper §7.4), printing throughput and latency.
- ``ablations [--full]`` — run the ablation sweeps.
- ``check --algorithm A --workers N --commands M [...]`` — systematically
  model-check the algorithm's schedule space against the COS sequential
  specification (see ``docs/model_checking.md``).
- ``net replica|supervise|client [...]`` — the TCP multi-process
  deployment: replica/client processes and a local cluster supervisor
  (see ``docs/deployment.md``).  This is the one wall-clock path: a
  replica on the multiprocess engine is a deployment with ``--engine mp``
  (``net supervise --engine mp``), not a flag of ``standalone`` or
  ``smr``; ``benchmarks/e2e/run.py`` times a deployment.

Each handler imports the stack it runs when it runs (``check`` loads no
figure harness, ``figures`` no model checker); ``python -m repro net ...``
does not come through this module at all (:mod:`repro.__main__`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

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


class _CheckHelpFormatter(argparse.HelpFormatter):
    """Fills ``check --help`` from the checker registry, imported only when
    that help is printed."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        text = super()._get_help_string(action)
        if not text or "{" not in text:
            return text
        from repro.check.mutants import MUTANTS, protocol_harnesses

        harnesses = protocol_harnesses().values()
        registries = [("COS", MUTANTS)] + [(h.name, h.mutants)
                                           for h in harnesses]
        return text.format(
            harnesses=", ".join(h.name for h in harnesses),
            mutants="; ".join(f"{name}: {', '.join(sorted(mutants))}"
                              for name, mutants in registries))


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
    standalone.add_argument("--key-dist", default="uniform",
                            choices=("uniform", "zipf"),
                            help="workload key distribution (zipf = "
                                 "skewed, YCSB-style)")
    standalone.add_argument("--zipf-s", type=float, default=0.99,
                            help="Zipf exponent for --key-dist zipf")

    smr = sub.add_parser(
        "smr", help="one simulated SMR cluster run (paper §7.4)")
    _add_common(smr)
    smr.add_argument("--clients", type=int, default=200)
    smr.add_argument("--speculative", action="store_true",
                     help="optimistic execution over the sequencer fast "
                          "path: execute on optimistic delivery, commit or "
                          "roll back on the conservative order "
                          "(docs/speculation.md); runs the speculation DES "
                          "side by side with the conservative baseline")
    smr.add_argument("--mismatch-rate", type=float, default=0.0,
                     help="forced optimistic-reorder probability in the "
                          "speculation DES (--speculative)")

    ablations = sub.add_parser("ablations", help="run ablation sweeps")
    ablations.add_argument("--full", action="store_true")

    check = sub.add_parser(
        "check", formatter_class=_CheckHelpFormatter,
        help="systematic schedule-space model check against the COS spec")
    check.add_argument("--algorithm", "--scheduler", default="lock-free",
                       help="COS algorithm (underscores accepted, e.g. "
                            "lock_free; --scheduler is an alias) or a "
                            "protocol-level harness: {harnesses} "
                            "(docs/model_checking.md)")
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
                       help="check a seeded-bug variant instead of the "
                            "real implementation; it selects its harness: "
                            "{mutants}")
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


def _print_obs(registry) -> None:
    from repro.obs import render_text

    print("--- observability snapshot (virtual clock) ---")
    print(render_text(registry), end="")


def _cmd_standalone(args: argparse.Namespace) -> int:
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


def _cmd_smr(args: argparse.Namespace) -> int:
    if args.speculative:
        return _cmd_smr_speculative(args)
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


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import (CheckConfig, protocol_harnesses, replay,
                             run_check, save_replay)
    from repro.errors import SimulationError

    if args.replay:
        try:
            violation = replay(args.replay, max_steps=args.max_steps)
        except (OSError, ValueError, KeyError, SimulationError) as error:
            print(f"error: cannot replay {args.replay}: {error}",
                  file=sys.stderr)
            return 2
        if violation is None:
            print(f"replay {args.replay}: no violation (schedule now passes)")
            return 0
        print(f"replay {args.replay}: reproduced {violation.describe()}")
        return 1

    algorithm = args.algorithm.replace("_", "-")
    for harness in protocol_harnesses().values():
        if algorithm == harness.name or args.mutant in harness.mutants:
            return _cmd_check_harness(args, harness)

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


def _cmd_check_harness(args: argparse.Namespace, harness) -> int:
    """A protocol-harness branch of ``repro check``: selected by its
    ``--algorithm`` name or by any ``--mutant`` from its registry."""
    from repro.check import run_walk, save_replay

    config = harness.config(mutant=args.mutant)
    try:
        report = run_walk(
            config, max_schedules=args.max_schedules, seed=args.seed)
    except ValueError as error:  # unknown mutant
        print(f"error: {error}", file=sys.stderr)
        return 2
    mutant = f" mutant={config.mutant}" if config.mutant else ""
    print(f"check algorithm={harness.name}{mutant} {config.describe()}")
    print(report.describe())
    if report.ok:
        return 0
    if report.shrunk_decisions is not None:
        print(f"shrunk counterexample: {len(report.shrunk_decisions)} "
              f"decisions ({report.shrink_candidates} candidates tried)")
        save_replay(args.replay_out, config, report.shrunk_decisions,
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
