#!/usr/bin/env python3
"""End-to-end benchmark of the mapping tool, in drift-cancelled time.

Run from the repository root::

    python3 perfbench/run.py --workload plan-paper --seed 1 --seconds 10 --trace 0

One operation plans a seeded case with ``auto_map`` and measures the plan
on a stream (``perfbench/workloads.py`` describes the three workloads).
Every case runs once first, outside the measurement: that run is checked,
its controller's incremental re-solves are replayed cold, and it becomes the
case's reference, which every measured run must repeat bit for bit.  The
timed loop cycles through the cases in a seeded order until ``--seconds``
have passed and each case has run at least ``MIN_SAMPLES`` times.

All times are in reference-kernel seconds (``perfbench/refclock.py``).

``--trace 0`` reports the end-to-end metrics:

* ``latency_ms``: geometric mean over the cases of each case's median
  operation time;
* ``setup_s``: median over ``SETUPS`` fresh interpreters of the time to
  import the program and build the cases.

``--trace 1`` runs every call into a layer inside a span
(``perfbench/spans.py``), writes the spans to ``perfbench/out/`` and
reports per-layer metrics instead: the traced operation time, each
layer's self time (aggregated like ``latency_ms``) and per-operation
means of the layers' work counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import MAPPER_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("plan-paper", "stream-event", "adapt-drift")
#: Fresh-interpreter set-ups whose median is ``setup_s``; one more runs
#: first, untimed, so that bytecode compilation is not counted.
SETUPS = 5
#: Timed runs every case needs before the run may stop.
MIN_SAMPLES = 3

LAYER_TIMES = (*MAPPER_LAYERS.values(), "stream")
LAYER_COUNTS = ("clusterings", "events", "resolves", "remaps")


def _geomean(values) -> float:
    values = list(values)
    if min(values) <= 0.0:  # a layer some case never entered
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _counts(plan, result) -> dict[str, int]:
    ctrl = result.controller
    return {
        "clusterings": plan.optimal.clusterings_examined,
        "events": result.events_processed,
        "resolves": ctrl.resolves if ctrl is not None else 0,
        "remaps": len(result.remaps),
    }


def setup_only(workload: str, seed: int) -> float:
    """Import the program and build the cases, in reference-kernel seconds.

    The kernel runs after the timed region, in this interpreter: a fresh
    process may land on a CPU that runs at another speed than its parent's.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.SCENARIOS[workload].cases(seed)
    wall = time.perf_counter() - t0
    import refclock

    refclock.kernel()  # the first call in a fresh interpreter runs slow
    return wall * statistics.median(refclock.scale_now() for _ in range(3))


def measure_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = [
        float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120).stdout)
        for _ in range(SETUPS + 1)
    ]
    return statistics.median(samples[1:])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_only(args.workload, args.seed))
        return 0

    sys.path.insert(0, str(SRC))
    import refclock
    import workloads as wl

    scn = wl.SCENARIOS[args.workload]
    tracer = None
    if args.trace:
        from repro.tools import mapper

        tracer = Tracer()
        tracer.install(mapper)
        scn = dataclasses.replace(scn, stream=tracer.wrap("stream", scn.stream))

    setup_s = None if tracer else measure_setup(args.workload, args.seed)
    cases = scn.cases(args.seed)
    attempted = failed = 0
    scales: list[float] = []

    def attempt(i: int, first: bool = False):
        """Run case ``i`` once, checked; ``None`` if it failed."""
        nonlocal attempted, failed
        attempted += 1
        if tracer is not None:
            tracer.op, tracer.case = attempted, cases[i].name
        try:
            (plan, result), wall, scale = refclock.timed(
                wl.run_op, scn, cases[i])
            scales.append(scale)
            fingerprint = wl.check(scn, cases[i], plan, result)
            if first:
                wl.audit(result)
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            traceback.print_exc()
            return None
        return fingerprint, wall, scale, _counts(plan, result)

    refs = []
    for i in range(len(cases)):
        got = attempt(i, first=True)
        refs.append(None if got is None else got[0])

    times: list[list[float]] = [[] for _ in cases]
    layers: list[list[dict]] = [[] for _ in cases]
    counts: list[dict] = []
    tries = [0] * len(cases)
    rng = random.Random(args.seed)
    order: list[int] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or min(tries) < MIN_SAMPLES:
        if not order:
            order = list(range(len(cases)))
            rng.shuffle(order)
        i = order.pop()
        tries[i] += 1
        got = attempt(i)
        if got is None:
            continue
        fingerprint, wall, scale, n = got
        if fingerprint != refs[i]:
            failed += 1
            print(f"perfbench: {cases[i].name}: output differs from its "
                  f"first run", file=sys.stderr)
            continue
        times[i].append(wall * scale * 1e3)
        counts.append(n)
        if tracer is not None:
            layers[i].append({
                layer: s * scale * 1e3
                for layer, s in tracer.self_times(attempted).items()
            })

    for case, t in zip(cases, times):
        if t:
            print(f"{case.name:>24}: {len(t):3d} runs, median "
                  f"{statistics.median(t):9.3f} ms")
    print("reference-kernel seconds per wall second: median "
          f"{statistics.median(scales):.4f}")
    if not all(times):
        print("perfbench: a case never completed a checked run",
              file=sys.stderr)
        return 1

    values = {}
    if tracer is None:
        values["latency_ms"] = _geomean(statistics.median(t) for t in times)
        values["setup_s"] = setup_s
    else:
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        values["op_ms"] = _geomean(statistics.median(t) for t in times)
        for layer in LAYER_TIMES:
            values[f"{layer}_ms"] = _geomean(
                statistics.median(op.get(layer, 0.0) for op in ops)
                for ops in layers
            )
        for name in LAYER_COUNTS:
            values[name] = statistics.fmean(n[name] for n in counts)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": "s" if k.endswith("_s") else
                "ms" if k.endswith("_ms") else "count"}
            for k, v in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
