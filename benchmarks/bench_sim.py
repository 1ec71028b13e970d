#!/usr/bin/env python
"""Simulation engine harness: fast path vs event engine.

Times a healthy noise-free k=5 pipeline (with replicated modules, dyadic
durations, so the schedule settles into an exactly periodic steady state)
at n = 1e4 / 1e5 / 1e6 data sets on the event engine and on the fast path
(the bottleneck evaluator with its scalar fallback).  **Asserts the fast
run's completion and injection arrays and busy fractions are
bit-identical to the event engine's** on every size, and that the n=1e6
speedup clears the 50x acceptance bar.  One more row (``noisy``) runs the
same pipeline on the event engine with jitter and transfer interference,
the regime the ``stream-event`` benchmark workload measures; it records
the completion array's sha256.
Results are written to ``BENCH_sim.json`` at the repo root.

Every time is in reference-kernel seconds (``perfbench/refclock.py``):
wall time rescaled by a fixed kernel timed around each run, so rates
committed from different runs and hosts compare.  The fast run is timed
twice over: its first call (``fast_cold_s``, which pays the first-call
costs) and the best of :data:`REPEATS` calls after it (``fast_s``).  The
event engine runs once per size, except at n=1e6 in the full grid: there
:data:`ROUNDS` rounds alternate the two engines (the size's own first
measurements, then an event run followed by a fast call that is the first
since it), every round's outputs must repeat the first's, and the 50x bar
reads the ratio of the event times' median to the cold fast times'
median, so one slow or fast run cannot decide it.

Run standalone (not collected by pytest)::

    python benchmarks/bench_sim.py            # full grid up to n=1e6
    python benchmarks/bench_sim.py --quick    # CI smoke (~seconds)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import refclock  # noqa: E402

from repro.core.cost import PolynomialEComm, PolynomialExec  # noqa: E402
from repro.core.mapping import Mapping, ModuleSpec  # noqa: E402
from repro.core.task import Edge, Task, TaskChain  # noqa: E402
from repro.core.validate import ensure_valid_plan  # noqa: E402
from repro.sim import NoiseModel, simulate, simulate_fast  # noqa: E402

#: Dyadic duration grid: every cost is a multiple of 2**-20, so timestamp
#: arithmetic is exact.
UNIT = 2.0 ** -20
#: Warm calls per fast run; the best of them is its warm time.
REPEATS = 5
#: Alternating (event run, cold fast call) rounds at n=1e6.
ROUNDS = 5
#: The noisy row's noise: stream-event's jitter and interference.
NOISE = {"seed": 1, "jitter": 0.02, "comm_interference": 0.02}


def _dyadic(x: float) -> float:
    return round(x / UNIT) * UNIT


def bench_pipeline() -> tuple[TaskChain, Mapping]:
    """Healthy k=5 pipeline with replicated modules."""
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
    """``fn()``'s time in reference-kernel seconds, and its output."""
    out, wall, scale = refclock.timed(fn)
    return wall * scale, out


def _cold_and_warm(fn):
    """The first call's time, the best of ``REPEATS`` calls after it, and
    the first call's output (every later call must repeat it)."""
    cold, out = _timed(fn)
    warm = float("inf")
    for _ in range(REPEATS):
        t, again = _timed(fn)
        warm = min(warm, t)
        assert np.array_equal(again.completions, out.completions)
    return cold, warm, out


def _fast(chain, mapping, n: int, stats: dict | None = None):
    return simulate_fast(chain, mapping, n, noise=NoiseModel.silent(),
                         stats=stats)


def _event(chain, mapping, n: int):
    return simulate(chain, mapping, n_datasets=n, engine="event")


def bench_size(chain, mapping, n: int, run_event: bool, rounds: int = 1) -> dict:
    """One stream size: the fast path, and the event engine (optional),
    over ``rounds`` alternating rounds (see the module docstring)."""
    row: dict = {"n": n}

    stats: dict = {}
    t_cold, t_fast, fast = _cold_and_warm(
        lambda: _fast(chain, mapping, n, stats)
    )
    row["fast_cold_s"] = t_cold
    row["fast_s"] = t_fast
    row["fast_datasets_per_s"] = n / t_fast
    row["fast_verified_datasets"] = stats["verified"]
    row["fast_scalar_datasets"] = stats["scalar_datasets"]

    if run_event:
        t_event, event = _timed(lambda: _event(chain, mapping, n))
        times = [(t_event, t_cold)]
        for _ in range(rounds - 1):
            t_e, again_event = _timed(lambda: _event(chain, mapping, n))
            t_c, again_fast = _timed(lambda: _fast(chain, mapping, n))
            assert np.array_equal(again_event.completions, event.completions)
            assert np.array_equal(again_fast.completions, fast.completions)
            times.append((t_e, t_c))
        if rounds > 1:
            row["rounds"] = [{"event_s": e, "fast_cold_s": c} for e, c in times]
            t_event = float(np.median([e for e, _ in times]))
            t_cold = float(np.median([c for _, c in times]))
            row["fast_cold_s"] = t_cold
        row["event_s"] = t_event
        row["event_datasets_per_s"] = n / t_event
        row["event_events_per_s"] = event.events_processed / t_event
        row["events_processed"] = event.events_processed
        row["speedup"] = t_event / t_fast
        row["speedup_cold"] = t_event / t_cold
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


def bench_noisy(chain, mapping, n: int) -> dict:
    """The event engine under jitter and transfer interference."""
    t_event, event = _timed(
        lambda: simulate(chain, mapping, n_datasets=n,
                         noise=NoiseModel(**NOISE))
    )
    assert event.engine == "event"
    return {
        "n": n,
        "noise": NOISE,
        "event_s": t_event,
        "event_datasets_per_s": n / t_event,
        "event_events_per_s": event.events_processed / t_event,
        "events_processed": event.events_processed,
        "completions_sha256": hashlib.sha256(
            event.completions.tobytes()).hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="n=1e4 only, noisy row included (CI smoke)")
    ap.add_argument("--out", default=str(REPO / "BENCH_sim.json"))
    args = ap.parse_args(argv)

    chain, mapping = bench_pipeline()
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "quick": args.quick,
        "pipeline": {"k": 5, "replicas": [2, 1, 3, 1, 2],
                     "duration_unit": "2**-20"},
        "clock": "reference-kernel seconds (perfbench/refclock.py)",
        "grid": [],
    }

    # The event engine is O(n) Python work: it runs at every size in the
    # full benchmark (the 1e6 case is the slow acceptance measurement) but
    # only at 1e4 in --quick.
    sizes = [10_000] if args.quick else [10_000, 100_000, 1_000_000]
    for n in sizes:
        row = bench_size(chain, mapping, n, run_event=True,
                         rounds=ROUNDS if n == 1_000_000 else 1)
        report["grid"].append(row)
        for i, r in enumerate(row.get("rounds", ())):
            print(f"n={n:>9,}  round {i + 1}: event {r['event_s']:8.2f} s  "
                  f"fast cold {r['fast_cold_s']*1e3:8.2f} ms")
        print(
            f"n={n:>9,}  event {row['event_s']:8.2f} s "
            f"({row['event_events_per_s']:>10,.0f} ev/s)  "
            f"fast {row['fast_s']*1e3:8.2f} ms (cold {row['fast_cold_s']*1e3:8.2f})  "
            f"speedup {row['speedup']:8.1f}x (cold {row['speedup_cold']:8.1f}x)"
        )

    noisy = report["noisy"] = bench_noisy(
        chain, mapping, 10_000 if args.quick else 100_000)
    # Noise moves durations, never the events a data set takes.
    same = next(r for r in report["grid"] if r["n"] == noisy["n"])
    assert noisy["events_processed"] == same["events_processed"]
    print(
        f"noisy n={noisy['n']:>9,}  event {noisy['event_s']:8.2f} s "
        f"({noisy['event_events_per_s']:>10,.0f} ev/s)"
    )

    final = report["grid"][-1]
    report["speedup_at_largest_n"] = final["speedup"]
    if not args.quick:
        report["n1e6_speedup"] = final["speedup"]
        report["n1e6_speedup_cold"] = final["speedup_cold"]
        report["n1e6_meets_50x_target"] = final["speedup_cold"] >= 50.0
        print(f"\nn=1e6 cold speedup, medians over {ROUNDS} rounds: "
              f"{final['speedup_cold']:.1f}x (target >= 50x)")
        assert final["speedup_cold"] >= 50.0, (
            f"cold speedup {final['speedup_cold']:.1f}x below the 50x "
            f"acceptance bar"
        )

    report["completions_bit_identical"] = True  # asserted per size above
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
