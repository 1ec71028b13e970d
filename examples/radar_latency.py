#!/usr/bin/env python
"""Radar: throughput vs latency, and a non-replicable bottleneck.

The narrowband tracking radar has a tracker stage that carries state
across data sets and therefore cannot be replicated (§2.2).  This example:

* maps the radar for maximum throughput;
* maps it for minimum latency (the Vondran [14] extension);
* traces the throughput/latency Pareto frontier between them — the real
  design space for a radar that needs both rate and response time.

Run:  python examples/radar_latency.py
"""

from repro.core import (
    build_module_chain,
    optimal_assignment,
    optimal_latency_assignment,
    optimal_mapping,
    throughput_latency_frontier,
)
from repro.machine import iwarp64_systolic
from repro.tools import format_mapping, render_table
from repro.workloads import radar


def main() -> None:
    wl = radar(iwarp64_systolic())
    mach = wl.machine
    P, mem = mach.total_procs, mach.mem_per_proc_mb
    print(f"=== {wl.name}: {wl.description}")
    print(f"    tracker replicable: {wl.chain.tasks[-1].replicable}")

    best_tp = optimal_mapping(wl.chain, P, mem)
    print(f"throughput-optimal: {format_mapping(best_tp.mapping, wl.chain)}")
    print(f"  -> {best_tp.throughput:.1f} data sets/s, "
          f"latency {best_tp.performance.latency * 1e3:.1f} ms")

    mchain = build_module_chain(wl.chain, best_tp.clustering, mem)
    best_lat = optimal_latency_assignment(mchain, P)
    print(f"latency-optimal   : {format_mapping(best_lat.mapping, wl.chain)}")
    print(f"  -> {best_lat.throughput:.1f} data sets/s, "
          f"latency {best_lat.latency * 1e3:.1f} ms")

    points = throughput_latency_frontier(mchain, P, points=8)
    rows = [[f"{tp:.1f}", f"{lat * 1e3:.2f}"] for tp, lat in points]
    print()
    print(render_table(
        ["throughput (sets/s)", "latency (ms)"], rows,
        title="Pareto frontier (trade replication for response time)",
    ))


if __name__ == "__main__":
    main()
