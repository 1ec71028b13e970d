"""Command-line interface: ``repro-map`` / ``python -m repro``.

Subcommands
-----------
``map``         run the automatic mapping tool for one workload (``--save``)
``lint``        static analysis: determinism lint + static plan verifier
``simulate``    map, then measure the chosen mapping on the simulator
``trace``       simulate and render an execution trace (``--svg``)
``faults``      run the fault-tolerance study (degrade / remap / availability)
``adapt``       run a drifting stream under the adaptive remapping controller
``table1``      regenerate the paper's Table 1
``table2``      regenerate the paper's Table 2
``figures``     regenerate Figures 1–6
``studies``     accuracy, greedy-vs-DP, scaling, ablations, theorems,
                frontier, machines, memory, training budget
``machines``    list machine presets
"""

from __future__ import annotations

import argparse
import sys

from ..machine import PRESETS, by_name as machine_by_name
from ..workloads import by_name as workload_by_name
from .mapper import auto_map, measure
from .report import format_mapping

__all__ = ["main", "build_parser"]

_WORKLOADS = ["fft-hist-256", "fft-hist-512", "radar", "stereo", "airshed", "sar"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description=(
            "Automatic mapping of pipelines of data-parallel tasks "
            "(Subhlok & Vondran, PPoPP 1995)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("--workload", "-w", choices=_WORKLOADS,
                       default="fft-hist-256")
        p.add_argument("--machine", "-m", choices=sorted(PRESETS),
                       default="iwarp64-message")

    p_map = sub.add_parser("map", help="run the automatic mapping tool")
    add_workload_args(p_map)
    p_map.add_argument("--save", metavar="PLAN.json", default=None,
                       help="write the plan (mapping + fitted chain) to JSON")

    def add_fault_args(p):
        p.add_argument(
            "--fail", action="append", default=[], metavar="TIME:MODULE[:INSTANCE]",
            help="inject a processor failure (repeatable), e.g. --fail 40:1 "
                 "kills module 1's instance 0 at t=40",
        )
        p.add_argument("--failure-rate", type=float, default=0.0,
                       help="random failure hazard (failures per second)")
        p.add_argument("--comm-fault-prob", type=float, default=0.0,
                       help="per-transfer transient fault probability")
        p.add_argument("--fault-seed", type=int, default=0)
        p.add_argument("--remap-latency", type=float, default=0.05,
                       help="downtime charged per DP remap (seconds)")

    p_sim = sub.add_parser("simulate", help="map, then measure on the simulator")
    add_workload_args(p_sim)
    p_sim.add_argument("--datasets", type=int, default=200)
    p_sim.add_argument("--engine", choices=("auto", "event", "fast"),
                       default="auto",
                       help="simulation engine for healthy runs: the "
                            "event-driven core, the vectorized fast path, "
                            "or auto (fast only when bit-identical)")
    add_fault_args(p_sim)

    p_trace = sub.add_parser("trace", help="simulate and render an execution trace")
    add_workload_args(p_trace)
    p_trace.add_argument("--datasets", type=int, default=12)
    p_trace.add_argument("--svg", metavar="OUT.svg", default=None,
                         help="also write an SVG rendering")

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: determinism lint rules + static mapping-plan "
             "verifier (no simulation runs)",
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
             "repro tree, as --self)",
    )
    p_lint.add_argument(
        "--self", dest="self_check", action="store_true",
        help="lint the installed repro package tree (the CI gate)",
    )
    p_lint.add_argument(
        "--plan", metavar="PLAN.json", default=None,
        help="statically verify a saved plan (kinds: mapping, plan, "
             "plan-check) instead of / in addition to linting",
    )
    p_lint.add_argument(
        "--workload", "-w", choices=_WORKLOADS, default=None,
        help="chain context for --plan files that carry no chain",
    )
    p_lint.add_argument(
        "--machine", "-m", choices=sorted(PRESETS), default=None,
        help="machine context for --plan files that carry no machine",
    )
    p_lint.add_argument(
        "--json", dest="json_out", metavar="OUT.json", default=None,
        help="also write machine-readable diagnostics (file:line spans)",
    )

    p_size = sub.add_parser("size", help="minimum processors for a throughput target")
    add_workload_args(p_size)
    p_size.add_argument("--target", type=float, required=True,
                        help="required data sets per second")

    p_faults = sub.add_parser(
        "faults", help="fault-tolerance study: degrade, remap, availability"
    )
    p_faults.add_argument("--datasets", type=int, default=120)

    p_adapt = sub.add_parser(
        "adapt",
        help="online adaptive runtime: drift-aware remapping vs static",
    )
    add_workload_args(p_adapt)
    p_adapt.add_argument("--datasets", type=int, default=20000)
    p_adapt.add_argument("--epoch", type=int, default=1000,
                         help="data sets per monitoring epoch")
    p_adapt.add_argument("--drift", type=float, default=2e-5,
                         help="per-data-set execution slowdown")
    p_adapt.add_argument("--comm-drift", type=float, default=0.0,
                         help="per-data-set communication slowdown")
    p_adapt.add_argument("--jitter", type=float, default=0.0,
                         help="multiplicative duration jitter (forces the "
                              "event engine when > 0)")
    p_adapt.add_argument("--noise-seed", type=int, default=0)
    p_adapt.add_argument("--dead-band", type=float, default=0.04)
    p_adapt.add_argument("--adapt-latency", type=float, default=0.5,
                         help="downtime charged per drift-triggered remap")
    p_adapt.add_argument("--oracle", action="store_true",
                         help="also run the re-solve-every-epoch oracle")
    p_adapt.add_argument("--static", action="store_true",
                         help="monitor only: never remap")

    sub.add_parser("table1", help="regenerate Table 1")
    sub.add_parser("table2", help="regenerate Table 2")
    p_fig = sub.add_parser("figures", help="regenerate Figures 1-6")
    p_fig.add_argument("--only", type=int, choices=range(1, 7), default=None)
    sub.add_parser("studies", help="accuracy / agreement / scaling / ablations")
    sub.add_parser("machines", help="list machine presets")
    return parser


def _cmd_trace(args) -> int:
    from ..core.dp_cluster import optimal_mapping
    from ..core.exceptions import SimulationError
    from ..sim.pipeline import simulate
    from ..sim.trace import render_gantt
    from ..sim.svg import write_trace_svg

    machine = machine_by_name(args.machine)
    workload = workload_by_name(args.workload, machine)
    best = optimal_mapping(
        workload.chain, machine.total_procs, machine.mem_per_proc_mb
    )
    try:
        result = simulate(
            workload.chain, best.mapping, n_datasets=args.datasets,
            collect_trace=True,
        )
    except SimulationError as exc:
        print(f"error: {exc} (--datasets is {args.datasets})", file=sys.stderr)
        return 1
    print(f"mapping: {format_mapping(best.mapping, workload.chain)}")
    print(render_gantt(result.trace, width=100))
    if args.svg:
        path = write_trace_svg(result.trace, args.svg)
        print(f"wrote {path}")
    return 0


def _cmd_lint(args) -> int:
    import json

    from ..analysis import lint_paths, load_plan, self_check, verify_plan

    payload: dict = {"format": "repro-analysis/v1"}
    ok = True

    lint_report = None
    if args.self_check or args.paths or args.plan is None:
        if args.paths and not args.self_check:
            lint_report = lint_paths(args.paths)
        else:
            lint_report = self_check(args.paths)
        print(lint_report.render())
        print("OK" if lint_report.ok else "FAIL")
        ok = ok and lint_report.ok
        payload["lint"] = lint_report.to_dict()

    if args.plan is not None:
        try:
            plan = load_plan(args.plan)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if plan.chain is None and args.workload is not None:
            machine = machine_by_name(args.machine or "iwarp64-message")
            plan.chain = workload_by_name(args.workload, machine).chain
        if plan.machine is None and args.machine is not None:
            plan.machine = machine_by_name(args.machine)
        plan_report = verify_plan(plan)
        print(plan_report.render())
        ok = ok and plan_report.ok
        payload["plan"] = plan_report.to_dict()

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"diagnostics written to {args.json_out}")
    return 0 if ok else 1


def _cmd_size(args) -> int:
    from ..core.dp_cluster import optimal_mapping as solve
    from ..core.response import build_module_chain
    from ..core.sizing import min_processors_for_throughput

    machine = machine_by_name(args.machine)
    workload = workload_by_name(args.workload, machine)
    best = solve(
        workload.chain, machine.total_procs, machine.mem_per_proc_mb
    )
    mchain = build_module_chain(
        workload.chain, best.clustering, machine.mem_per_proc_mb
    )
    try:
        res = min_processors_for_throughput(
            mchain, args.target, machine.total_procs
        )
    except Exception as exc:
        print(f"infeasible: {exc}")
        print(f"(machine optimum is {best.throughput:.4g} data sets/s)")
        return 1
    print(f"target    : {args.target:.4g} data sets/s")
    print(f"processors: {res.processors} of {machine.total_procs}")
    print(f"mapping   : {format_mapping(res.mapping, workload.chain)}")
    print(f"achieves  : {res.throughput:.4g} data sets/s")
    return 0


def _cmd_map(args) -> int:
    machine = machine_by_name(args.machine)
    workload = workload_by_name(args.workload, machine)
    plan = auto_map(workload)
    print(f"workload : {workload}")
    print(f"machine  : {machine}")
    print(f"training : {plan.estimation.training_runs} profiled executions")
    print(f"DP optimum     : {format_mapping(plan.optimal.mapping, workload.chain)}"
          f"  -> {plan.optimal.throughput:.4g} data sets/s")
    print(f"greedy optimum : {format_mapping(plan.heuristic.mapping, workload.chain)}"
          f"  -> {plan.heuristic.throughput:.4g} data sets/s"
          f"  (agree: {'yes' if plan.solvers_agree else 'no'})")
    print(f"feasible       : {format_mapping(plan.mapping, workload.chain)}"
          f"  -> {plan.predicted_throughput:.4g} data sets/s"
          f"  (adjusted: {'yes' if plan.feasible.adjusted else 'no'})")
    if getattr(args, "save", None):
        from .persist import save_plan_summary

        path = save_plan_summary(plan, args.save)
        print(f"plan written to {path}")
    return 0


def _parse_faults(args):
    """Build a FaultModel from CLI flags; None when no fault flag is set."""
    from ..sim.faults import FaultModel, ProcessorFailure

    failures = []
    for spec in args.fail:
        parts = spec.split(":")
        if not 2 <= len(parts) <= 3:
            raise SystemExit(
                f"bad --fail spec {spec!r}: expected TIME:MODULE[:INSTANCE]"
            )
        failures.append(
            ProcessorFailure(
                float(parts[0]), int(parts[1]),
                int(parts[2]) if len(parts) == 3 else 0,
            )
        )
    model = FaultModel(
        seed=args.fault_seed,
        failures=failures,
        failure_rate=args.failure_rate,
        comm_fault_prob=args.comm_fault_prob,
    )
    return model if model.active else None


def _cmd_simulate(args) -> int:
    machine = machine_by_name(args.machine)
    workload = workload_by_name(args.workload, machine)
    plan = auto_map(workload)
    faults = _parse_faults(args)
    result = measure(
        workload, plan.mapping, n_datasets=args.datasets,
        faults=faults, remap_latency=args.remap_latency,
        engine=args.engine,
    )
    print(f"mapping   : {format_mapping(plan.mapping, workload.chain)}")
    print(f"engine    : {result.engine}")
    print(f"predicted : {plan.predicted_throughput:.4g} data sets/s")
    print(f"measured  : {result.throughput:.4g} data sets/s "
          f"({100 * (result.throughput - plan.predicted_throughput) / plan.predicted_throughput:+.2f}%)")
    print(f"latency   : {result.mean_latency:.4g} s/data set")
    if faults is not None:
        fails = result.processor_failures
        print(f"faults    : {len(fails)} processor, "
              f"{len(result.comm_faults)} transient; "
              f"{len(result.remaps)} remap(s); "
              f"availability {result.availability:.4f}")
        if result.remaps and result.final_mapping is not None:
            print(f"remapped  : "
                  f"{format_mapping(result.final_mapping, workload.chain)}"
                  f"  -> {result.remaps[-1].predicted_throughput:.4g} "
                  f"data sets/s predicted")
    return 0


def _cmd_adapt(args) -> int:
    from ..sim.controller import AdaptiveController, ControllerConfig
    from ..sim.noise import DriftNoiseModel

    machine = machine_by_name(args.machine)
    workload = workload_by_name(args.workload, machine)
    chain = workload.chain
    procs = machine.total_procs
    mem = machine.mem_per_proc_mb

    def run(label, **cfg_kw):
        cfg = ControllerConfig(
            epoch_datasets=args.epoch, dead_band=args.dead_band,
            remap_latency=args.adapt_latency, **cfg_kw,
        )
        ctrl = AdaptiveController(chain, procs, mem_per_proc_mb=mem, config=cfg)
        noise = DriftNoiseModel(
            seed=args.noise_seed, jitter=args.jitter, comm_interference=0.0,
            drift=args.drift, comm_drift=args.comm_drift,
        )
        result = measure(
            workload, ctrl.mapping, n_datasets=args.datasets, noise=noise,
            controller=ctrl,
        )
        print(f"{label:9s}: {result.throughput:.4g} data sets/s, "
              f"{ctrl.remap_count} remap(s), {ctrl.resolves} DP solve(s), "
              f"{ctrl.evictions} cache evictions [{result.engine}]")
        for rec in result.remaps:
            print(f"  t={rec.time:9.2f}  "
                  f"{format_mapping(rec.old_mapping, chain)}  ->  "
                  f"{format_mapping(rec.new_mapping, chain)}")
        return result

    print(f"workload : {workload}")
    print(f"machine  : {machine}")
    print(f"drift    : exec {args.drift:g}/data set, "
          f"comm {args.comm_drift:g}/data set over {args.datasets} data sets")
    if args.static:
        run("static", adapt=False)
        return 0
    static = run("static", adapt=False)
    adaptive = run("adaptive")
    if args.oracle:
        oracle = run("oracle", oracle=True)
        gap = oracle.throughput - static.throughput
        if gap > 0:
            rec = (adaptive.throughput - static.throughput) / gap
            print(f"recovered : {100 * rec:.1f}% of the static-to-oracle gap")
    else:
        gain = (adaptive.throughput - static.throughput) / static.throughput
        print(f"gain      : {100 * gain:+.2f}% over static")
    return 0


def _cmd_figures(only: int | None) -> int:
    from .. import experiments as ex

    figures = {
        1: (ex.fig1, "Figure 1"), 2: (ex.fig2, "Figure 2"),
        3: (ex.fig3, "Figure 3"), 4: (ex.fig4, "Figure 4"),
        5: (ex.fig5, "Figure 5"), 6: (ex.fig6, "Figure 6"),
    }
    for num, (mod, label) in figures.items():
        if only is not None and num != only:
            continue
        print(mod.render(mod.run()))
        print()
    return 0


def _cmd_studies() -> int:
    from .. import experiments as ex

    print(ex.model_accuracy.render(ex.model_accuracy.run()))
    print()
    print(ex.greedy_vs_dp.render(ex.greedy_vs_dp.run()))
    print()
    print(ex.scaling.render(ex.scaling.run()))
    print()
    print(ex.ablations.render(ex.ablations.run()))
    print()
    print(ex.theorems.render(
        [ex.theorems.run_theorem1(), ex.theorems.run_theorem2()]
    ))
    print()
    print(ex.frontier.render(ex.frontier.run()))
    print()
    print(ex.machines_study.render(ex.machines_study.run()))
    print()
    print(ex.memory_study.render(ex.memory_study.run()))
    print()
    print(ex.training_budget.render(ex.training_budget.run()))
    print()
    print(ex.fault_study.render(ex.fault_study.run()))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "map":
        return _cmd_map(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "size":
        return _cmd_size(args)
    if args.command == "table1":
        from .. import experiments as ex

        print(ex.table1.render(ex.table1.run()))
        return 0
    if args.command == "table2":
        from .. import experiments as ex

        print(ex.table2.render(ex.table2.run()))
        return 0
    if args.command == "adapt":
        return _cmd_adapt(args)
    if args.command == "faults":
        from .. import experiments as ex

        print(ex.fault_study.render(ex.fault_study.run(args.datasets)))
        return 0
    if args.command == "figures":
        return _cmd_figures(args.only)
    if args.command == "studies":
        return _cmd_studies()
    if args.command == "machines":
        for name in sorted(PRESETS):
            print(f"{name:18s} {machine_by_name(name)}")
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
