#!/usr/bin/env python
"""Simulation engine harness: fast path vs event engine.

Times a healthy noise-free k=5 pipeline (with replicated modules, dyadic
durations — the regime where cycle leaping is provably bit-exact) at
n = 1e4 / 1e5 / 1e6 data sets on the event engine, the scalar fast path,
and the leaping fast path.  **Asserts the fast path's completion and injection arrays are
bit-identical to the event engine's** on every compared size, and that the
n=1e6 speedup clears the 50x acceptance bar.  Results are written to
``BENCH_sim.json`` at the repo root.

Run standalone (not collected by pytest)::

    python benchmarks/bench_sim.py            # full grid up to n=1e6
    python benchmarks/bench_sim.py --quick    # CI smoke (~seconds)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.cost import PolynomialEComm, PolynomialExec  # noqa: E402
from repro.core.mapping import Mapping, ModuleSpec  # noqa: E402
from repro.core.task import Edge, Task, TaskChain  # noqa: E402
from repro.core.validate import ensure_valid_plan  # noqa: E402
from repro.sim import NoiseModel, simulate, simulate_fast  # noqa: E402

#: Dyadic duration grid: every cost is a multiple of 2**-20, so timestamp
#: arithmetic is exact and cycle leaping is bit-identical by construction
#: (docs/algorithms.md §11).
UNIT = 2.0 ** -20


def _dyadic(x: float) -> float:
    return round(x / UNIT) * UNIT


def bench_pipeline() -> tuple[TaskChain, Mapping]:
    """Healthy k=5 pipeline with replicated modules (hyper-period 6)."""
    tasks = [
        Task(f"t{i}", PolynomialExec(_dyadic(0.23 + 0.31 * i), 0.0, 0.0))
        for i in range(5)
    ]
    edges = [
        Edge(ecom=PolynomialEComm(_dyadic(0.11 + 0.07 * i), 0.0, 0.0, 0.0, 0.0))
        for i in range(4)
    ]
    chain = TaskChain(tasks, edges, name="bench-sim-k5")
    mapping = Mapping([
        ModuleSpec(0, 0, 1, 2),
        ModuleSpec(1, 1, 2, 1),
        ModuleSpec(2, 2, 1, 3),
        ModuleSpec(3, 3, 2, 1),
        ModuleSpec(4, 4, 1, 2),
    ])
    ensure_valid_plan(chain, mapping)
    return chain, mapping


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_size(chain, mapping, n: int, run_event: bool) -> dict:
    """One stream size: event engine (optional), scalar fast, leaping fast."""
    row: dict = {"n": n}

    stats: dict = {}
    t_fast, fast = _timed(
        lambda: simulate_fast(chain, mapping, n, noise=NoiseModel.silent(),
                              stats=stats)
    )
    row["fast_s"] = t_fast
    row["fast_datasets_per_s"] = n / t_fast
    row["fast_leaped_datasets"] = stats["leaped"]
    row["fast_scalar_datasets"] = stats["scalar_datasets"]

    t_scalar, scalar = _timed(
        lambda: simulate_fast(chain, mapping, n, noise=NoiseModel.silent(),
                              leap=False)
    )
    row["fast_noleap_s"] = t_scalar
    row["fast_noleap_datasets_per_s"] = n / t_scalar
    assert np.array_equal(fast.completions, scalar.completions), (
        f"n={n}: leaping changed the completion array"
    )

    if run_event:
        t_event, event = _timed(
            lambda: simulate(chain, mapping, n_datasets=n, engine="event")
        )
        row["event_s"] = t_event
        row["event_datasets_per_s"] = n / t_event
        row["event_events_per_s"] = event.events_processed / t_event
        row["events_processed"] = event.events_processed
        row["speedup"] = t_event / t_fast
        row["speedup_noleap"] = t_event / t_scalar
        assert np.array_equal(event.completions, fast.completions), (
            f"n={n}: fast completions differ from the event engine"
        )
        assert np.array_equal(event.injections, fast.injections), (
            f"n={n}: fast injections differ from the event engine"
        )
        assert event.busy_fractions == fast.busy_fractions, (
            f"n={n}: fast busy fractions differ from the event engine"
        )
        assert event.events_processed == fast.events_processed
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="n=1e4 only, small event run (CI smoke)")
    ap.add_argument("--out", default=str(REPO / "BENCH_sim.json"))
    args = ap.parse_args(argv)

    chain, mapping = bench_pipeline()
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "quick": args.quick,
        "pipeline": {"k": 5, "replicas": [2, 1, 3, 1, 2], "hyperperiod": 6,
                     "duration_unit": "2**-20"},
        "grid": [],
    }

    # The event engine is O(n) Python callbacks: it runs at every size in
    # the full benchmark (the 1e6 case is the slow acceptance measurement)
    # but only at 1e4 in --quick.
    sizes = [10_000] if args.quick else [10_000, 100_000, 1_000_000]
    for n in sizes:
        row = bench_size(chain, mapping, n, run_event=True)
        report["grid"].append(row)
        print(
            f"n={n:>9,}  event {row['event_s']:8.2f} s "
            f"({row['event_events_per_s']:>10,.0f} ev/s)  "
            f"fast {row['fast_s']*1e3:8.2f} ms  "
            f"scalar {row['fast_noleap_s']*1e3:8.2f} ms  "
            f"speedup {row['speedup']:8.1f}x "
            f"(scalar {row['speedup_noleap']:5.1f}x)"
        )

    final = report["grid"][-1]
    report["speedup_at_largest_n"] = final["speedup"]
    if not args.quick:
        report["n1e6_speedup"] = final["speedup"]
        report["n1e6_meets_50x_target"] = final["speedup"] >= 50.0
        print(f"\nn=1e6 speedup: {final['speedup']:.1f}x (target >= 50x)")
        assert final["speedup"] >= 50.0, (
            f"speedup {final['speedup']:.1f}x below the 50x acceptance bar"
        )

    report["completions_bit_identical"] = True  # asserted per size above
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
