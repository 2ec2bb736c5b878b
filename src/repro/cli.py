"""Command-line interface: ``soidomino`` / ``python -m repro``.

Subcommands
-----------
``map``      map a circuit (built-in benchmark name or .bench/.blif/.pla
             file) with one of the three algorithms and print the cost
             summary (optionally the transistor netlist or DOT graph);
``batch``    fan a circuits x flows sweep across the batch pipeline and
             print per-task costs, timings and engine instrumentation;
``tables``   reproduce the paper's Tables I-IV;
``circuits`` list the built-in benchmark suite;
``passes``   list the mapping passes and the preset pass lists;
``metrics``  map a circuit and dump its metrics registry (Prometheus
             text exposition, or JSON with ``--json``);
``pbe``      run the PBE stress simulator on a mapped circuit;
``chaos``    run the resilience fault-matrix drill: one scenario per
             registered fault point, each asserting its documented
             recovery and bit-identical digests for non-faulted work;
``serve``    run the mapping-as-a-service daemon: a JSON job API over
             a warm worker pool (DESIGN.md §13).

Every subcommand honours the ``REPRO_FAULTS`` environment variable
(a :func:`repro.resilience.plan_from_spec` spec string), which installs
a deterministic fault plan for the process — the hook chaos tooling and
operators use to rehearse failures against the real CLI surfaces.

``map`` and ``batch`` both speak the unified ``soidomino-report/3``
JSON schema (:mod:`repro.obs.report`) via ``--json``, and both accept
``--trace FILE`` to export the run's span tree — ``.json``/``.trace``
writes Chrome ``trace_event`` format (load in Perfetto or
``chrome://tracing``), ``.jsonl`` writes one span per line.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .bench_suite import circuit_names, get_spec, load_circuit
from .errors import ReproError
from .io import circuit_netlist, circuit_to_dot, load_bench, load_blif, load_pla
from .mapping import FLOW_PRESETS, ClockWeightedCost, DepthCost, map_network
from .mapping.kernel import KERNELS
from .network import LogicNetwork, network_stats
from .pbe import random_stress
from .resilience import FAULT_POINTS, install_from_env

_FLOW_CHOICES = sorted(FLOW_PRESETS)


def _load_network(source: str) -> LogicNetwork:
    if source.endswith(".bench"):
        return load_bench(source)
    if source.endswith(".blif"):
        return load_blif(source)
    if source.endswith(".pla"):
        return load_pla(source)
    return load_circuit(source)


def _clock_weight(text: str) -> float:
    """``-k``: a positive, finite clock-transistor weight."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}")
    return value


def _cost_model(cost: str, k: float):
    if cost == "area":
        return None
    if cost == "clock":
        return ClockWeightedCost(k)
    return DepthCost()


def _export_trace(spans, path: str, *, quiet: bool = False) -> None:
    """Write span trees to ``path``; format inferred from the extension.

    The confirmation line goes to stderr when ``quiet`` (JSON mode:
    stdout must stay machine-parseable).
    """
    from .obs import write_trace

    fmt = write_trace(spans, path)
    print(f"trace:     {path} ({fmt})",
          file=sys.stderr if quiet else sys.stdout)


def _cmd_map(args) -> int:
    from .mapping import MapperConfig

    network = _load_network(args.circuit)
    model = _cost_model(args.cost, args.k)
    config = MapperConfig(w_max=args.w_max, h_max=args.h_max,
                          kernel=args.kernel)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = map_network(network, flow=args.algorithm, cost_model=model,
                         config=config)
    if profiler is not None:
        profiler.disable()
    if args.trace:
        _export_trace([result.trace] if result.trace else [],
                      args.trace, quiet=args.json)
    if args.json:
        import json

        from .obs import flow_report

        payload = flow_report(result, cost_objective=args.cost,
                              input_stats=network_stats(network).as_dict(),
                              digest=result.circuit.digest())
        if args.netlist:
            payload["netlist"] = circuit_netlist(result.circuit)
        if args.dot:
            payload["dot"] = circuit_to_dot(result.circuit)
        print(json.dumps(payload, indent=1))
        return 0
    cost = result.cost
    print(f"circuit:   {network.name}")
    print(f"input:     {network_stats(network)}")
    if result.unate_report is not None:
        rep = result.unate_report
        print(f"unate:     {rep.unate_gates} AND/OR gates "
              f"(x{rep.duplication_ratio:.2f} duplication, "
              f"{rep.negated_pis} complemented inputs)")
    print(f"algorithm: {args.algorithm} ({args.cost} cost)")
    print(f"kernel:    {args.kernel} (active: {result.mapping.kernel})")
    print(f"mapped:    {cost}")
    print(f"stats:     {result.stats.summary()} "
          f"elapsed={result.elapsed_s:.3f}s")
    print("passes:    " + " ".join(
        f"{r.name}={r.elapsed_s:.3f}s" if r.ran else f"{r.name}[{r.status}]"
        for r in result.passes))
    if args.netlist:
        print(circuit_netlist(result.circuit))
    if args.dot:
        print(circuit_to_dot(result.circuit))
    if profiler is not None:
        import pstats

        print(f"\nprofile:   top 20 by cumulative time "
              f"({result.stats.summary()})")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)
    return 0


def _cmd_batch(args) -> int:
    from .evaluation.formats import render_table
    from .mapping import MapperConfig
    from .pipeline import BatchRunner

    flows = args.algorithm or ["soi"]
    runner = BatchRunner(max_workers=args.jobs, timeout_s=args.timeout,
                         retries=args.retries)
    tasks = BatchRunner.sweep_tasks(
        circuits=args.circuits or None, flows=flows,
        cost_models=[_cost_model(args.cost, args.k)],
        config=MapperConfig(kernel=args.kernel))
    try:
        report = (runner.run_serial(tasks) if args.serial
                  else runner.run(tasks))
    finally:
        runner.close()

    if args.trace:
        _export_trace([report.build_trace()], args.trace, quiet=args.json)
    if args.json:
        import json

        from .obs import batch_report

        print(json.dumps(batch_report(report, cost_objective=args.cost),
                         indent=1))
        return 0 if report.ok else 1

    headers = ["circuit", "flow", "kernel", "T_total", "T_disch", "#G", "L",
               "tuples", "pruned", "combines", "time_s"]
    rows = []
    for r in report.results:
        if r.ok:
            s = r.stats
            rows.append([r.task.circuit, r.task.flow, r.kernel,
                         r.cost.t_total, r.cost.t_disch,
                         r.cost.num_gates, r.cost.levels,
                         s.tuples_created, s.tuples_pruned, s.combine_calls,
                         f"{r.elapsed_s:.3f}"])
        else:
            rows.append([r.task.circuit, r.task.flow, "-", "-", "-", "-",
                         "-", "-", "-", "-", f"{r.elapsed_s:.3f}"])
    title = (f"batch: {len(report.results)} tasks, mode={report.mode}, "
             f"{args.cost} cost")
    print(render_table(headers, rows, title=title))

    total = report.total_stats()
    print(f"\ntotals:    {total.summary()}")
    print(f"wall:      {report.wall_s:.2f}s "
          f"(task time {report.task_time_s:.2f}s)")
    for failure in report.failures:
        print(f"FAILED:    {failure.task.label}: {failure.error}",
              file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_tables(args) -> int:
    from .evaluation import RUNNERS

    which = args.table or list(RUNNERS)
    for key in which:
        runner = RUNNERS[key]
        result = runner(circuits=args.circuits or None)
        print(result.text)
        print()
    return 0


def _cmd_circuits(_args) -> int:
    for name in circuit_names():
        spec = get_spec(name)
        print(f"{name:10s} [{spec.kind:10s}] {spec.description}")
    return 0


def _cmd_passes(args) -> int:
    from .mapping import FLOW_PASSES, PASS_DESCRIPTIONS

    if args.json:
        import json

        payload = {
            "passes": [{"name": name, "description": description}
                       for name, description in PASS_DESCRIPTIONS.items()],
            "flows": {flow: list(names)
                      for flow, names in FLOW_PASSES.items()},
        }
        print(json.dumps(payload, indent=1))
        return 0
    print("registered passes:")
    for name, description in PASS_DESCRIPTIONS.items():
        print(f"  {name}")
        print(f"             {description}")
    print("\nflow pass lists:")
    for flow, names in FLOW_PASSES.items():
        print(f"  {flow:8s} {' -> '.join(names)}")
    return 0


def _cmd_metrics(args) -> int:
    from .obs import prometheus_text

    network = _load_network(args.circuit)
    result = map_network(network, flow=args.algorithm,
                         cost_model=_cost_model(args.cost, args.k))
    if args.json:
        import json

        print(json.dumps(result.metrics.as_dict(), indent=1))
        return 0
    sys.stdout.write(prometheus_text(result.metrics))
    return 0


def _cmd_chaos(args) -> int:
    from .evaluation.formats import render_table
    from .resilience import run_chaos

    report = run_chaos(circuits=args.circuits or None, seed=args.seed,
                       jobs=args.jobs, sites=args.site or None)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=1))
        return 0 if report.ok else 1
    headers = ["site", "verdict", "digests", "detail"]
    rows = [[o.site, "PASS" if o.ok else "FAIL",
             {True: "match", False: "DIVERGED", None: "-"}[o.digests_ok],
             o.detail]
            for o in report.outcomes]
    good = sum(1 for o in report.outcomes if o.ok)
    print(render_table(headers, rows,
                       title=f"chaos: {good}/{len(report.outcomes)} "
                             f"scenarios recovered, seed={report.seed}, "
                             f"circuits={','.join(report.circuits)}"))
    for o in report.outcomes:
        if not o.ok:
            print(f"FAILED:    {o.site}: {o.detail} (spec {o.spec!r})",
                  file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    import asyncio
    import errno

    from .errors import ReproError
    from .service import MappingService, default_journal_path, serve

    journal = args.journal or default_journal_path()
    if journal.lower() == "none":
        journal = None
    service = MappingService(max_workers=args.jobs,
                             max_queued_per_tenant=args.max_queued,
                             journal_path=journal)
    if service.recovered_jobs:
        print(f"soidomino serve: recovered {service.recovered_jobs} "
              f"job(s) from the journal "
              f"({service.requeued_jobs} re-enqueued)", file=sys.stderr)
    print(f"soidomino serve: http://{args.host}:{args.port} "
          f"(workers={service.pool.width}, "
          f"journal={journal or 'disabled'})", file=sys.stderr)
    try:
        asyncio.run(serve(service, host=args.host, port=args.port,
                          drain_grace_s=args.drain_grace))
    except KeyboardInterrupt:
        print("soidomino serve: shutting down", file=sys.stderr)
    except OSError as exc:
        service.close()
        if exc.errno == errno.EADDRINUSE:
            raise ReproError(
                f"cannot bind {args.host}:{args.port}: address already "
                "in use (is another soidomino serve running? pick "
                "another --port or stop it)") from None
        raise ReproError(
            f"cannot bind {args.host}:{args.port}: {exc}") from None
    return 0


def _cmd_pbe(args) -> int:
    network = _load_network(args.circuit)
    result = map_network(network, flow=args.algorithm)
    report = random_stress(result.circuit, cycles=args.cycles,
                           seed=args.seed)
    print(f"circuit {network.name}, {args.algorithm}-mapped: {report}")
    print("PBE-free" if report.pbe_free else "PBE MISFIRES OBSERVED")
    return 0 if report.pbe_free else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soidomino",
        description="Technology mapping for SOI domino logic with PBE "
                    "avoidance (DAC 2001 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a circuit to domino logic")
    p_map.add_argument("circuit",
                       help="benchmark name or .bench/.blif/.pla file")
    p_map.add_argument("-a", "--algorithm", choices=_FLOW_CHOICES,
                       default="soi")
    p_map.add_argument("-c", "--cost", choices=["area", "clock", "depth"],
                       default="area")
    p_map.add_argument("-k", type=_clock_weight, default=2.0,
                       help="clock-transistor weight for --cost clock")
    p_map.add_argument("--w-max", type=int, default=5)
    p_map.add_argument("--h-max", type=int, default=8)
    p_map.add_argument("--kernel", choices=list(KERNELS),
                       default="auto",
                       help="DP combine kernel: reference (scalar oracle), "
                            "soa (numpy, bit-identical), auto (hybrid)")
    p_map.add_argument("--netlist", action="store_true",
                       help="print the SPICE-style transistor netlist")
    p_map.add_argument("--dot", action="store_true",
                       help="print the mapped circuit as Graphviz DOT")
    p_map.add_argument("--json", action="store_true",
                       help="emit the result (cost, stats, per-pass "
                            "records, digest) as JSON")
    p_map.add_argument("--trace", metavar="FILE", default=None,
                       help="export the run's span tree: .json/.trace = "
                            "Chrome trace_event (Perfetto), .jsonl = "
                            "span-per-line")
    p_map.add_argument("--profile", action="store_true",
                       help="run the mapping under cProfile and print the "
                            "top-20 cumulative entries")
    p_map.set_defaults(func=_cmd_map)

    p_batch = sub.add_parser(
        "batch", help="map many circuits through the batch pipeline")
    p_batch.add_argument("circuits", nargs="*",
                         help="benchmark names (default: full suite)")
    p_batch.add_argument("-a", "--algorithm", action="append",
                         choices=_FLOW_CHOICES,
                         help="flow to run (repeatable; default: soi)")
    p_batch.add_argument("-c", "--cost", choices=["area", "clock", "depth"],
                         default="area")
    p_batch.add_argument("-k", type=_clock_weight, default=2.0,
                         help="clock-transistor weight for --cost clock")
    p_batch.add_argument("-j", "--jobs", type=int, default=None,
                         help="worker processes (default: CPU count; "
                              "1 = in-process serial)")
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="per-task timeout in seconds (pool mode)")
    p_batch.add_argument("--retries", type=int, default=1,
                         help="retries per task on worker failure")
    p_batch.add_argument("--kernel", choices=list(KERNELS),
                         default="auto",
                         help="DP combine kernel for every task")
    p_batch.add_argument("--serial", action="store_true",
                         help="force in-process serial execution")
    p_batch.add_argument("--json", action="store_true",
                         help="emit the unified batch report as JSON")
    p_batch.add_argument("--trace", metavar="FILE", default=None,
                         help="export the stitched batch span tree "
                              "(.json/.trace = Chrome, .jsonl = lines)")
    p_batch.set_defaults(func=_cmd_batch)

    p_tab = sub.add_parser("tables", help="reproduce the paper's tables")
    p_tab.add_argument("-t", "--table", action="append",
                       choices=["table1", "table2", "table3", "table4"],
                       help="which table (repeatable; default: all)")
    p_tab.add_argument("--circuits", nargs="*",
                       help="restrict to these circuits")
    p_tab.set_defaults(func=_cmd_tables)

    p_list = sub.add_parser("circuits", help="list the benchmark suite")
    p_list.set_defaults(func=_cmd_circuits)

    p_passes = sub.add_parser(
        "passes", help="list the mapping passes and preset pass lists")
    p_passes.add_argument("--json", action="store_true",
                          help="emit the lists as JSON")
    p_passes.set_defaults(func=_cmd_passes)

    p_metrics = sub.add_parser(
        "metrics", help="map a circuit and dump its metrics registry")
    p_metrics.add_argument("circuit",
                           help="benchmark name or .bench/.blif/.pla file")
    p_metrics.add_argument("-a", "--algorithm", choices=_FLOW_CHOICES,
                           default="soi")
    p_metrics.add_argument("-c", "--cost",
                           choices=["area", "clock", "depth"],
                           default="area")
    p_metrics.add_argument("-k", type=_clock_weight, default=2.0,
                           help="clock-transistor weight for --cost clock")
    p_metrics.add_argument("--json", action="store_true",
                           help="emit the registry as JSON instead of "
                                "Prometheus text exposition")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_pbe = sub.add_parser("pbe", help="stress a mapped circuit for PBE")
    p_pbe.add_argument("circuit")
    p_pbe.add_argument("-a", "--algorithm", choices=_FLOW_CHOICES,
                       default="soi")
    p_pbe.add_argument("--cycles", type=int, default=300)
    p_pbe.add_argument("--seed", type=int, default=0)
    p_pbe.set_defaults(func=_cmd_pbe)

    p_chaos = sub.add_parser(
        "chaos", help="run the resilience fault-matrix drill")
    p_chaos.add_argument("circuits", nargs="*",
                         help="workload circuits; the first is the fault "
                              "target, the rest are the bit-identity "
                              "control group (default: mux cm150 z4ml)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-plan seed (the whole drill is "
                              "deterministic in it)")
    p_chaos.add_argument("-j", "--jobs", type=int, default=2,
                         help="pool width for the batch scenarios")
    p_chaos.add_argument("--site", action="append",
                         choices=list(FAULT_POINTS),
                         help="restrict to these fault points "
                              "(repeatable; default: all)")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the chaos report as JSON")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve", help="run the mapping-as-a-service HTTP daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8650)
    p_serve.add_argument("-j", "--jobs", type=int, default=None,
                         help="worker-pool width (default: CPU count; "
                              "1 maps in-process)")
    # accepted and ignored: bench/workloads.py still passes it
    p_serve.add_argument("--store", metavar="PATH", help=argparse.SUPPRESS)
    p_serve.add_argument("--journal", metavar="PATH", default=None,
                         help="crash-safe job journal db (default: "
                              "$REPRO_JOURNAL or the per-user cache "
                              "path; 'none' disables journaling)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         metavar="S",
                         help="seconds SIGTERM waits for queued/running "
                              "jobs before exiting (default 30; jobs "
                              "left over stay journaled)")
    p_serve.add_argument("--max-queued", type=int, default=16,
                         help="admission quota: queued jobs allowed per "
                              "tenant before 429")
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # honour REPRO_FAULTS for every subcommand (chaos rehearsal against
    # the real CLI surfaces; no-op when unset)
    install_from_env()
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
