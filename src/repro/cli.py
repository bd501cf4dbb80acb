"""``pase`` command-line interface.

Subcommands::

    pase search   --model alexnet --p 8          find the best strategy
    pase serve    --port 8421 --workers 4        strategy-search service
    pase simulate --model rnnlm --p 16           simulate strategies
    pase stats    --model inception_v3           graph/ordering statistics
    pase table1   [--full]                       regenerate Table I
    pase table2   [--p 32]                       regenerate Table II
    pase figure6  [--full]                       regenerate Fig. 6a/6b
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .analysis import section_3c_report
from .cluster import simulate_step
from .core.configs import MODES
from .core.machine import MACHINES as _MACHINES
from .experiments import figure6, table1, table2
from .experiments.common import (METHODS, add_table_args, build_setup,
                                 search_with)
from .models import BENCHMARKS

__all__ = ["main"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=sorted(BENCHMARKS), required=True)
    sub.add_argument("--p", type=int, default=8, help="device count")
    sub.add_argument("--machine", choices=sorted(_MACHINES), default="1080ti")
    sub.add_argument("--mode", choices=MODES,
                     default="pow2", help="configuration enumeration mode")


def _cmd_search(args: argparse.Namespace) -> int:
    from .core.configs import ConfigSpace
    from .core.dp import DEFAULT_MEMORY_BUDGET
    from .runtime import (Cancellation, RunBudget, RunContext, SearchJournal,
                          execute_search, trap_signals)

    if args.resume and args.journal_dir is None:
        print("pase: --resume requires --journal-dir", file=sys.stderr)
        return 2
    machine = _MACHINES[args.machine]
    graph = BENCHMARKS[args.model]()
    space = ConfigSpace.build(graph, args.p, mode=args.mode)
    cache = None
    if args.table_cache is not None:
        from .core.tablecache import TableCache

        cache = TableCache(args.table_cache)
    journal = None
    if args.journal_dir is not None:
        journal = SearchJournal(args.journal_dir)
    tracer = None
    if args.trace is not None or args.verbose:
        from .obs import Tracer

        # -v without --trace still needs the in-memory records for the
        # post-run summary; Tracer(None) keeps them without a file.
        tracer = Tracer(args.trace)
    metrics = None
    if args.metrics is not None:
        from .obs import Metrics

        metrics = Metrics()
    # The DP path runs whenever it can honor a custom memory budget /
    # breadth-first ordering; plain "bf" stays the naive recurrence-(2)
    # baseline, exactly as before the hardened runtime.
    method, order = args.method, None
    if args.method == "bf" and \
            (args.resilient or args.memory_budget is not None):
        from .core.sequencer import breadth_first_seq

        method, order = "ours", breadth_first_seq(graph)
    objective = "cost"
    if args.frontier:
        if method != "ours":
            print("pase: --frontier requires --method ours",
                  file=sys.stderr)
            return 2
        objective = ("frontier" if not args.frontier_eps
                     else f"frontier:eps={args.frontier_eps:g}")
    ctx = RunContext(
        budget=RunBudget(
            deadline=args.deadline,
            memory_budget=args.memory_budget if args.memory_budget is not None
            else DEFAULT_MEMORY_BUDGET),
        cancellation=Cancellation(),
        journal=journal, jobs=args.jobs, cache=cache,
        tracer=tracer, metrics=metrics)
    try:
        with trap_signals(ctx.cancellation):
            outcome = execute_search(
                graph, space, machine, method=method, seed=args.seed,
                order=order, reduce=args.reduce, objective=objective,
                resilient=args.resilient, ctx=ctx, resume=args.resume)
    finally:
        # The tracer flushes per-span, so the trace file is valid even on
        # a failure path; the metrics snapshot needs an explicit dump.
        if metrics is not None:
            metrics.dump(args.metrics)
    result = outcome.result
    from .analysis.reporting import (format_reduction_stats, format_run_report,
                                     format_table_build_stats)

    print(f"# {args.model} p={args.p} machine={args.machine} "
          f"method={args.method}")
    print(f"# cost={result.cost:.6e} FLOP-equivalents, "
          f"elapsed={result.elapsed:.3f}s")
    print(f"# {format_table_build_stats(result.stats)}")
    if args.reduce:
        print(f"# {format_reduction_stats(result.stats)}")
    if outcome.resilience is not None:
        print(outcome.resilience.summary())
    print(format_run_report(outcome.report))
    if args.frontier:
        from .analysis.reporting import (format_frontier_plot,
                                         format_frontier_table)

        print(f"# Pareto frontier: {len(result.frontier)} non-dominated "
              f"(cost, peak-bytes) point(s)")
        print(format_frontier_table(result.frontier))
        plot = format_frontier_plot(result.frontier)
        if plot:
            print(plot)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(result.strategy.to_json())
        print(f"# strategy written to {args.json}")
    else:
        print(result.strategy.format_table(graph))
    if args.metrics is not None:
        print(f"# metrics written to {args.metrics}")
    if args.trace is not None:
        print(f"# trace written to {args.trace}")
    if args.verbose and tracer is not None:
        from .obs import format_trace_summary

        print(format_trace_summary(tracer.records))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .fleet import (FleetSupervisor, SweepSpec, SweepSpecError,
                        format_fleet_report)
    from .runtime import (Cancellation, EXIT_QUARANTINED, RunBudget,
                          RunContext, trap_signals)

    try:
        spec = SweepSpec.from_file(args.spec)
        n_tasks = len(spec.expand())
    except SweepSpecError as err:
        print(f"pase: bad sweep spec: {err}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace is not None:
        from .obs import Tracer

        tracer = Tracer(args.trace)
    metrics = None
    if args.metrics is not None:
        from .obs import Metrics

        metrics = Metrics()
    ctx = RunContext(budget=RunBudget(deadline=args.deadline),
                     cancellation=Cancellation(),
                     tracer=tracer, metrics=metrics)
    supervisor = FleetSupervisor(
        spec, args.fleet_dir, workers=args.workers,
        max_attempts=args.max_retries + 1,
        task_deadline=args.task_deadline,
        straggler_after=args.straggler_after, ctx=ctx)
    print(f"# sweep: {n_tasks} tasks from {args.spec} -> {args.fleet_dir} "
          f"({args.workers} workers)")
    try:
        with trap_signals(ctx.cancellation):
            report = supervisor.run(resume=args.resume)
    finally:
        if metrics is not None:
            metrics.dump(args.metrics)
    print(format_fleet_report(report))
    if args.metrics is not None:
        print(f"# metrics written to {args.metrics}")
    if args.trace is not None:
        print(f"# trace written to {args.trace}")
    return EXIT_QUARANTINED if report.quarantined else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import serve_forever

    return serve_forever(
        host=args.host, port=args.port, workers=args.workers,
        max_queue=args.max_queue, max_attempts=args.max_retries + 1,
        request_deadline=args.request_deadline,
        memory_budget=args.memory_budget, state_dir=args.state_dir,
        allow_chaos=args.allow_chaos, trace=args.trace,
        metrics_path=args.metrics, verbose=args.verbose)


def _cmd_simulate(args: argparse.Namespace) -> int:
    machine = _MACHINES[args.machine]
    setup = build_setup(args.model, args.p, machine=machine, mode=args.mode,
                        jobs=args.jobs, cache_dir=args.table_cache)
    plan = None
    if args.faults:
        from .resilience import FaultPlan

        plan = FaultPlan.from_file(args.faults)
        plan.validate(args.p)
    from .analysis.reporting import format_table_build_stats

    print(f"# {format_table_build_stats(setup.tables.build_stats)}")
    rows = []
    base = None
    for method in args.methods:
        strat = search_with(setup, method, seed=args.seed,
                            reduce=args.reduce).strategy
        rep = simulate_step(setup.graph, strat, machine, args.p,
                            keep_trace=args.gantt)
        if method == "data_parallel":
            base = rep.throughput
        rows.append((method, rep, strat))
    print(f"# {args.model} p={args.p} machine={args.machine}")
    for method, rep, _ in rows:
        speed = f"  ({rep.throughput / base:.2f}x vs dp)" if base else ""
        print(f"{method:16s} step={rep.step_time * 1e3:9.2f} ms  "
              f"{rep.throughput:10.1f} samples/s{speed}")
    if plan is not None:
        from .analysis.reporting import format_fault_table

        faulted = [(method, simulate_step(setup.graph, strat, machine,
                                          args.p, faults=plan))
                   for method, _, strat in rows]
        print(f"\n# fault-injected step ({args.faults})")
        print(format_fault_table(faulted))
        if args.ckpt_interval:
            from .resilience import CheckpointPolicy, effective_step_time

            policy = CheckpointPolicy(interval_steps=args.ckpt_interval,
                                      checkpoint_time=args.ckpt_time,
                                      restore_time=args.ckpt_restore)
            print(f"\n# effective step time with checkpoints every "
                  f"{args.ckpt_interval} steps, MTBF {args.mtbf_steps} steps")
            for method, rep in faulted:
                eff = effective_step_time(rep.step_time, policy,
                                          1.0 / args.mtbf_steps)
                print(f"{method:16s} {eff * 1e3:9.2f} ms/step")
        if args.replan and plan.failed_devices():
            from .resilience import CheckpointPolicy, elastic_replan

            policy = None
            if args.ckpt_interval:
                policy = CheckpointPolicy(interval_steps=args.ckpt_interval,
                                          checkpoint_time=args.ckpt_time,
                                          restore_time=args.ckpt_restore)
            method, _, strat = rows[0]
            print(f"\n# elastic re-plan after fail-stop (strategy: {method})")
            print(elastic_replan(setup.graph, strat, machine, args.p, plan,
                                 mode=args.mode, policy=policy).summary())
    if args.gantt:
        from .cluster import render_gantt
        for method, rep, _ in rows:
            show = [("gpu", d) for d in range(min(args.p, 4))] + \
                [("tx", d) for d in range(min(args.p, 2))]
            print(f"\n# timeline: {method} "
                  f"(F fwd, B bwd, x xfer, r reduce, g gradsync, u update)")
            print(render_gantt(rep.trace, rep.step_time, width=72,
                               resources=show))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .extensions import to_gshard_json

    setup = build_setup(args.model, args.p, machine=_MACHINES[args.machine],
                        mode=args.mode)
    strat = search_with(setup, args.method, seed=args.seed).strategy
    text = to_gshard_json(setup.graph, strat)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"# sharding spec written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .extensions import pipeline_pase

    machine = _MACHINES[args.machine]
    graph = BENCHMARKS[args.model]()
    cache = None
    if args.table_cache is not None:
        from .core.tablecache import TableCache

        cache = TableCache(args.table_cache)
    res = pipeline_pase(graph, args.p, args.stages, machine=machine,
                        mode=args.mode, jobs=args.jobs, cache=cache,
                        reduce=args.reduce)
    print(f"# {args.model} p={args.p} stages={args.stages} "
          f"({res.devices_per_stage} devices/stage)")
    for i, (stage, cost) in enumerate(zip(res.stages, res.stage_costs)):
        print(f"stage {i}: {len(stage):3d} layers  cost={cost:.4e}  "
              f"[{stage[0]} .. {stage[-1]}]")
    print(f"bottleneck={res.bottleneck_cost:.4e}  "
          f"balance={res.pipeline_efficiency:.2%}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = BENCHMARKS[args.model]()
    rep = section_3c_report(graph, ps=(args.p,), mode=args.mode)
    print(json.dumps(rep, indent=2, default=str))
    return 0


#: Subcommands forwarded verbatim to their experiment driver's ``main``
#: (argparse's REMAINDER cannot capture leading ``--options``, bpo-17050).
_PASSTHROUGH = {"table1": table1, "table2": table2, "figure6": figure6}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _PASSTHROUGH:
        return int(_PASSTHROUGH[argv[0]].main(argv[1:]) or 0)

    parser = argparse.ArgumentParser(
        prog="pase",
        description="PaSE: automatic DNN parallelization-strategy search "
                    "(IPDPS 2021 reproduction)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  success\n"
            "  1  unexpected internal error\n"
            "  2  usage error\n"
            "  3  search resource budget exceeded (SearchResourceError)\n"
            "  4  cluster-simulation error (SimulationError)\n"
            "  5  wall-clock deadline exceeded (--deadline)\n"
            "  6  interrupted by SIGINT/SIGTERM with the journal flushed\n"
            "     (resume with `search --journal-dir DIR --resume`)\n"
            "  7  fleet sweep drained, but some tasks were quarantined\n"
            "     after exhausting their retries (`sweep`)\n"
            "\n"
            "`serve` introduces no new exit codes: the first\n"
            "SIGINT/SIGTERM drains in-flight requests and exits 0; a\n"
            "second SIGINT abandons the drain and exits 6. Per-request\n"
            "failures are HTTP statuses (400/413/429/503/504), never\n"
            "process exits.\n"
        ))
    subs = parser.add_subparsers(dest="command", required=True)

    p_search = subs.add_parser("search", help="find the best strategy")
    _add_common(p_search)
    add_table_args(p_search)
    p_search.add_argument("--method", choices=METHODS, default="ours")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--frontier", action="store_true",
                          help="multi-objective search: return the exact "
                          "(cost, peak-bytes) Pareto frontier instead of "
                          "only the min-cost strategy (method 'ours')")
    p_search.add_argument("--frontier-eps", type=float, default=0.0,
                          metavar="EPS",
                          help="coarsen the frontier to one point per "
                          "geometric memory bucket of width (1+EPS); 0 "
                          "keeps the exact frontier (default)")
    p_search.add_argument("--json", help="write the strategy to a JSON file")
    p_search.add_argument("--resilient", action="store_true",
                          help="degrade gracefully (chunk reduction, "
                          "GENERATESEQ fallback, config coarsening) instead "
                          "of failing on a blown memory budget")
    p_search.add_argument("--memory-budget", type=int, default=None,
                          help="DP byte budget (default 2 GiB)")
    p_search.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget for the whole run; "
                          "checked at cooperative checkpoints, exceeding "
                          "it exits with code 5")
    p_search.add_argument("--journal-dir", metavar="DIR", default=None,
                          help="crash-safe run journal: phase snapshots "
                          "and built tables land here (atomic writes), "
                          "SIGINT/SIGTERM flush it and exit with code 6")
    p_search.add_argument("--resume", action="store_true",
                          help="resume a journalled run from --journal-dir "
                          "bit-identically (fingerprint-checked)")
    p_search.add_argument("--trace", metavar="FILE", default=None,
                          help="write a nested-span trace of the run as "
                          "JSONL (crash-safe: flushed per span)")
    p_search.add_argument("--metrics", metavar="FILE", default=None,
                          help="export run metrics to FILE; .prom/.txt "
                          "selects Prometheus text format, anything else "
                          "JSON")
    p_search.add_argument("-v", "--verbose", action="store_true",
                          help="print a per-phase timing summary of the "
                          "run's trace")
    p_search.set_defaults(fn=_cmd_search)

    p_sweep = subs.add_parser(
        "sweep", help="drain a declarative sweep spec through a "
        "fault-tolerant fleet of search workers")
    p_sweep.add_argument("--spec", required=True, metavar="SPEC.json",
                         help="sweep spec: models x machines x p x "
                         "fault-plans x flags (see DESIGN.md §10)")
    p_sweep.add_argument("--fleet-dir", required=True, metavar="DIR",
                         help="fleet state root: crash-safe manifest, "
                         "per-task journals, shared table cache, merged "
                         "results.jsonl + summary.json")
    p_sweep.add_argument("--workers", type=int, default=4, metavar="N",
                         help="concurrent worker processes (default 4), "
                         "pre-forked and reused across tasks")
    p_sweep.add_argument("--resume", action="store_true",
                         help="resume an interrupted sweep from "
                         "--fleet-dir: completed tasks are replayed, "
                         "in-flight ones re-queued (fingerprint-checked)")
    p_sweep.add_argument("--task-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-task wall-clock budget enforced inside "
                         "each worker")
    p_sweep.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="fleet-wide wall-clock budget; exceeding it "
                         "exits with code 5 (resume later with --resume)")
    p_sweep.add_argument("--max-retries", type=int, default=2, metavar="N",
                         help="retries per task before quarantine "
                         "(default 2; exponential backoff with jitter)")
    p_sweep.add_argument("--straggler-after", type=float, default=60.0,
                         metavar="SECONDS",
                         help="SIGKILL + reassign a worker whose heartbeat "
                         "is older than this (default 60)")
    p_sweep.add_argument("--trace", metavar="FILE", default=None,
                         help="write fleet-level nested-span trace JSONL")
    p_sweep.add_argument("--metrics", metavar="FILE", default=None,
                         help="export fleet metrics to FILE (.prom/.txt "
                         "= Prometheus text, anything else JSON)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_serve = subs.add_parser(
        "serve", help="run the hardened long-running strategy-search "
        "HTTP service (admission control, request coalescing, "
        "poison-problem quarantine, graceful drain)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8421,
                         help="bind port; 0 lets the OS pick (default 8421)")
    p_serve.add_argument("--workers", type=int, default=4, metavar="N",
                         help="search worker processes (default 4); "
                         "searches run crash-isolated in a persistent "
                         "pre-forked pool, so a crashing search never "
                         "takes down the server")
    p_serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                         help="admission window: concurrently admitted "
                         "requests (coalesced waiters included; cache "
                         "hits exempt) before new ones get 429 + "
                         "Retry-After (default 16)")
    p_serve.add_argument("--request-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="cap on any request's wall clock, enforced "
                         "both on the waiting client connection (504) and "
                         "inside the worker via its RunBudget")
    p_serve.add_argument("--memory-budget", type=int, default=None,
                         metavar="BYTES",
                         help="server-wide DP memory-budget ceiling; "
                         "requests asking for more are clamped before "
                         "fingerprinting")
    p_serve.add_argument("--state-dir", default="pase-serve", metavar="DIR",
                         help="persistent state root (result cache, "
                         "quarantine, shared table cache, task dirs); a "
                         "SIGKILLed server restarts from it intact "
                         "(default ./pase-serve)")
    p_serve.add_argument("--max-retries", type=int, default=2, metavar="N",
                         help="worker deaths a problem survives before "
                         "quarantine (default 2; quarantined problems "
                         "answer 503, or degrade=true for a resilient "
                         "coarsened fallback)")
    p_serve.add_argument("--allow-chaos", action="store_true",
                         help="accept test-only chaos hooks in requests "
                         "(worker fault injection; never enable in "
                         "production)")
    p_serve.add_argument("--trace", metavar="FILE", default=None,
                         help="write per-request nested-span trace JSONL "
                         "(serve.request -> validate/admit/coalesce|"
                         "search/respond)")
    p_serve.add_argument("--metrics", metavar="FILE", default=None,
                         help="dump final metrics on shutdown (.prom/.txt "
                         "= Prometheus text; live scraping: GET /metrics)")
    p_serve.add_argument("-v", "--verbose", action="store_true",
                         help="log one line per HTTP request to stderr")
    p_serve.set_defaults(fn=_cmd_serve)

    p_sim = subs.add_parser("simulate", help="simulate strategies on a cluster")
    _add_common(p_sim)
    add_table_args(p_sim)
    p_sim.add_argument("--methods", nargs="+", choices=METHODS,
                       default=["data_parallel", "expert", "ours"])
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--gantt", action="store_true",
                       help="render ASCII timelines of the simulated step")
    p_sim.add_argument("--faults", metavar="PLAN.json",
                       help="fault plan to inject into the simulated step")
    p_sim.add_argument("--replan", action="store_true",
                       help="with --faults containing fail-stops: price "
                       "elastic re-planning on the survivor devices")
    p_sim.add_argument("--ckpt-interval", type=int, default=0,
                       help="checkpoint every N steps (0 = no checkpoints)")
    p_sim.add_argument("--ckpt-time", type=float, default=0.5,
                       help="seconds per checkpoint write")
    p_sim.add_argument("--ckpt-restore", type=float, default=2.0,
                       help="seconds to restore from a checkpoint")
    p_sim.add_argument("--mtbf-steps", type=float, default=10_000.0,
                       help="mean steps between failures for the "
                       "effective-step-time model")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_exp = subs.add_parser("export", help="emit GShard-style sharding "
                            "annotations for the found strategy")
    _add_common(p_exp)
    p_exp.add_argument("--method", choices=METHODS, default="ours")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", help="write JSON here instead of stdout")
    p_exp.set_defaults(fn=_cmd_export)

    p_pipe = subs.add_parser("pipeline", help="PipeDream-style stages + "
                             "PaSE per stage (Section VI composition)")
    _add_common(p_pipe)
    add_table_args(p_pipe)
    p_pipe.add_argument("--stages", type=int, default=2)
    p_pipe.set_defaults(fn=_cmd_pipeline)

    p_stats = subs.add_parser("stats", help="graph/ordering statistics")
    _add_common(p_stats)
    p_stats.set_defaults(fn=_cmd_stats)

    for name in _PASSTHROUGH:
        subs.add_parser(name, help=f"regenerate the paper's {name} "
                        "(arguments pass through to the experiment driver)")

    args = parser.parse_args(argv)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    """Run a subcommand, mapping library failures to documented exit
    codes (listed in ``pase --help``).  Terminating errors that carry a
    `RunReport` print it, so an interrupted or out-of-budget run still
    tells the user what degraded and where the journal is."""
    from .core.exceptions import (DeadlineExceededError, JournalError,
                                  RunInterrupted, SearchResourceError,
                                  SimulationError)
    from .runtime import (EXIT_DEADLINE, EXIT_INTERRUPTED, EXIT_RESOURCE,
                          EXIT_SIMULATION, EXIT_USAGE)

    try:
        return int(args.fn(args) or 0)
    except DeadlineExceededError as err:
        _report_failure("deadline exceeded", err)
        return EXIT_DEADLINE
    except RunInterrupted as err:
        _report_failure("interrupted", err)
        return EXIT_INTERRUPTED
    except SearchResourceError as err:
        _report_failure("search resource budget exceeded", err)
        return EXIT_RESOURCE
    except JournalError as err:
        _report_failure("unusable journal", err)
        return EXIT_USAGE
    except SimulationError as err:
        _report_failure("simulation error", err)
        return EXIT_SIMULATION


def _report_failure(label: str, err: BaseException) -> None:
    print(f"pase: {label}: {err}", file=sys.stderr)
    report = getattr(err, "run_report", None)
    if report is not None:
        from .analysis.reporting import format_run_report

        print(format_run_report(report), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
