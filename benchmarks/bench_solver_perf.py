#!/usr/bin/env python
"""Solver performance harness: optimized stack vs the seed implementation.

Times the assignment DP, the clustered DP (exhaustive and bisect) and the
greedy heuristic across a ``(k, P)`` grid, records wall time and peak DP
table bytes, **asserts the optimized solvers return byte-identical
mappings** to a verbatim copy of the seed solver embedded below, and
asserts bisect reaches the exhaustive optimum within its tolerance.  Each
cell also times exhaustive search bounded by the greedy heuristic's
throughput, asserts it returns the unbounded plan byte for byte, and
records how many clusterings it kept.  The
full grid also asserts that greedy, the paper's cheap alternative (§4),
beats the assignment DP on every cell with ``P >= 32``.  Results are
written to ``BENCH_solver.json`` at the repo root.

Run standalone (not collected by pytest)::

    python benchmarks/bench_solver_perf.py            # full grid + P=256
    python benchmarks/bench_solver_perf.py --quick    # CI smoke (~seconds)
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

from repro.core import (  # noqa: E402
    InfeasibleError,
    SolverWorkspace,
    build_module_chain,
    default_workspace,
    greedy_assignment,
    heuristic_mapping,
    optimal_assignment,
    optimal_mapping,
)
from repro.core.mapping import all_clusterings, singleton_clustering  # noqa: E402
from repro.core.response import (  # noqa: E402
    evaluate_module_chain,
    strip_replication,
    totals_to_allocations,
)
from repro.workloads.synthetic import random_chain  # noqa: E402


# --------------------------------------------------------------------------
# Verbatim seed solver (commit f4ba5de) — the byte-identity reference.
# Uses the public ``response_tensor`` API, which the optimized code path
# reconstructs bit-identically from ``response_parts``.
# --------------------------------------------------------------------------

_PN_CHUNK = 8


def _seed_optimal_assignment(mchain, total_procs, replication=True):
    """The seed DP loop, returning ``(totals, bottleneck_response)``."""
    if total_procs < 1:
        raise InfeasibleError("need at least one processor")
    if not replication:
        mchain = strip_replication(mchain)
    l = len(mchain)
    P = int(total_procs)
    if mchain.total_min_procs > P:
        raise InfeasibleError("too few processors")

    pt_idx = np.arange(P + 1)[:, None, None]
    q_idx = np.arange(P + 1)[None, :, None]
    pl_idx = np.arange(P + 1)[None, None, :]

    V_prev = None
    argmin_tables = []

    for j in range(l):
        R = mchain.response_tensor(j, P)  # (q, pl, pn)
        if j == 0:
            base = R[0]
            over_budget = (
                np.arange(P + 1)[None, :, None]
                > np.arange(P + 1)[:, None, None]
            )
            V = np.where(over_budget, np.inf, base[None, :, :])
            argmin_tables.append(None)
            V_prev = V
            continue

        src = pt_idx - pl_idx
        valid = src >= 0
        W = np.where(valid, V_prev[np.clip(src, 0, P), q_idx, pl_idx], np.inf)

        V = np.empty((P + 1, P + 1, P + 1))
        Q = np.empty((P + 1, P + 1, P + 1), dtype=np.int32)
        for lo in range(0, P + 1, _PN_CHUNK):
            hi = min(lo + _PN_CHUNK, P + 1)
            T = np.maximum(W[:, :, :, None], R[None, :, :, lo:hi])
            Q[:, :, lo:hi] = np.argmin(T, axis=1)
            V[:, :, lo:hi] = np.min(T, axis=1)
        argmin_tables.append(Q)
        V_prev = V

    final = V_prev[P, :, 0]
    best_pl = int(np.argmin(final))
    best_val = float(final[best_pl])
    if not np.isfinite(best_val):
        raise InfeasibleError("no feasible assignment")

    totals = [0] * l
    totals[l - 1] = best_pl
    pt, pl, pn = P, best_pl, 0
    for j in range(l - 1, 0, -1):
        q = int(argmin_tables[j][pt, pl, pn])
        totals[j - 1] = q
        pt, pl, pn = pt - pl, q, pl
    return totals, best_val


def _seed_exhaustive(chain, total_procs, mem_per_proc_mb=float("inf")):
    """The seed exhaustive clustered DP (no segment cache, no workspace)."""
    best = None
    for clustering in all_clusterings(len(chain)):
        mchain = build_module_chain(chain, clustering, mem_per_proc_mb)
        if mchain.total_min_procs > total_procs:
            continue
        try:
            totals, _ = _seed_optimal_assignment(mchain, total_procs)
        except InfeasibleError:
            continue
        perf = evaluate_module_chain(
            mchain, totals_to_allocations(mchain, totals)
        )
        if best is None or perf.throughput > best[2]:
            best = (clustering, totals, perf.throughput)
    if best is None:
        raise InfeasibleError("no feasible clustering")
    return best


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------


#: Smallest machine on which the full grid requires greedy to beat the DP.
GREEDY_GATE_P = 32


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_cell(k, P, check_seed=True):
    """One (k, P) grid cell: assignment DP, exhaustive (unbounded and
    bounded by the heuristic), bisect, greedy."""
    chain = random_chain(k, seed=k * 101 + P)
    row = {"k": k, "P": P}

    # Assignment DP on the singleton clustering (fresh workspace = cold).
    mchain = build_module_chain(chain, singleton_clustering(k))
    ws = SolverWorkspace()
    row["assign_dp_s"], res = _timed(
        lambda: optimal_assignment(mchain, P, workspace=ws)
    )
    row["assign_peak_bytes"] = ws.peak_table_bytes

    if check_seed:
        t_seed, (seed_totals, seed_val) = _timed(
            lambda: _seed_optimal_assignment(mchain, P)
        )
        row["assign_dp_seed_s"] = t_seed
        assert res.totals == seed_totals, (
            f"assignment mismatch k={k} P={P}: {res.totals} != {seed_totals}"
        )
        assert res.bottleneck_response == seed_val, (
            f"objective mismatch k={k} P={P}"
        )

    # Exhaustive clustered DP (the tentpole speedup target).
    ws2 = SolverWorkspace()
    row["exhaustive_s"], opt = _timed(
        lambda: optimal_mapping(chain, P, method="exhaustive")
    )
    del ws2
    if check_seed:
        t_seed, seed_best = _timed(lambda: _seed_exhaustive(chain, P))
        row["exhaustive_seed_s"] = t_seed
        row["exhaustive_speedup"] = t_seed / row["exhaustive_s"]
        assert opt.clustering == seed_best[0], (
            f"clustering mismatch k={k} P={P}"
        )
        assert opt.totals == seed_best[1], f"totals mismatch k={k} P={P}"
        assert opt.throughput == seed_best[2], (
            f"throughput mismatch k={k} P={P}: "
            f"{opt.throughput!r} != {seed_best[2]!r}"
        )

    # Exhaustive search with the heuristic's throughput as its incumbent.
    row["heuristic_s"], heur = _timed(lambda: heuristic_mapping(chain, P))
    row["bounded_s"], bnd = _timed(
        lambda: optimal_mapping(
            chain, P, method="exhaustive", incumbent=heur.throughput
        )
    )
    assert (bnd.clustering, bnd.totals, repr(bnd.mapping)) == (
        opt.clustering, opt.totals, repr(opt.mapping)
    ), f"bounded search changed the plan k={k} P={P}"
    assert float.hex(bnd.throughput) == float.hex(opt.throughput), (
        f"bounded search changed the throughput k={k} P={P}"
    )
    row["clusterings_solved"] = opt.clusterings_examined
    row["clusterings_kept"] = bnd.clusterings_examined

    row["bisect_s"], bis = _timed(
        lambda: optimal_mapping(chain, P, method="bisect")
    )
    row["bisect_vs_exhaustive_rel"] = (
        abs(bis.throughput - opt.throughput) / opt.throughput
    )
    assert row["bisect_vs_exhaustive_rel"] <= 1e-9, (  # bisect's tol
        f"bisect off the exhaustive optimum k={k} P={P}: "
        f"rel {row['bisect_vs_exhaustive_rel']:.3g}"
    )
    row["greedy_s"], _ = _timed(lambda: greedy_assignment(mchain, P))
    row["throughput"] = opt.throughput
    return row


def bench_p256(budget_mb=768.0):
    """Bounded-memory float32 assignment DP at P=256 (acceptance case)."""
    chain = random_chain(3, seed=256)
    mchain = build_module_chain(chain, singleton_clustering(3))
    ws = SolverWorkspace(value_dtype=np.float32, memory_budget_mb=budget_mb)
    elapsed, res = _timed(lambda: optimal_assignment(mchain, 256, workspace=ws))
    assert ws.peak_table_bytes <= budget_mb * 2**20, (
        f"peak {ws.peak_table_bytes} exceeded budget {budget_mb} MB"
    )
    # Sanity: float64 reference on the same instance.
    ref = optimal_assignment(mchain, 256, workspace=SolverWorkspace())
    rel = abs(res.throughput - ref.throughput) / ref.throughput
    assert rel <= 1e-5, f"float32 P=256 off by {rel}"
    return {
        "P": 256,
        "k": 3,
        "budget_mb": budget_mb,
        "value_dtype": "float32",
        "wall_s": elapsed,
        "peak_table_bytes": ws.peak_table_bytes,
        "peak_table_mb": ws.peak_table_bytes / 2**20,
        "float32_rel_error": rel,
        "totals": res.totals,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small grid, skip P=256 (CI smoke)")
    ap.add_argument("--out", default=str(REPO / "BENCH_solver.json"))
    ap.add_argument("--budget-mb", type=float, default=768.0,
                    help="memory budget for the P=256 case")
    args = ap.parse_args(argv)

    if args.quick:
        grid = [(k, P) for k in (3, 4) for P in (12, 16)]
    else:
        grid = [(k, P) for k in (3, 4, 5) for P in (16, 32, 64)]

    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "quick": args.quick,
        "grid": [],
    }
    for k, P in grid:
        row = bench_cell(k, P)
        report["grid"].append(row)
        print(
            f"k={k} P={P:>3}  assign {row['assign_dp_s']*1e3:8.2f} ms "
            f"(seed {row['assign_dp_seed_s']*1e3:8.2f} ms)  "
            f"exhaustive {row['exhaustive_s']*1e3:8.2f} ms "
            f"(seed {row['exhaustive_seed_s']*1e3:8.2f} ms, "
            f"{row['exhaustive_speedup']:.1f}x)  "
            f"bounded {row['bounded_s']*1e3:7.2f} ms "
            f"({row['clusterings_kept']}/{row['clusterings_solved']} kept)  "
            f"bisect {row['bisect_s']*1e3:7.2f} ms  "
            f"greedy {row['greedy_s']*1e3:6.2f} ms"
        )
        default_workspace().drop()  # free between P sizes
        if not args.quick and P >= GREEDY_GATE_P:
            assert row["greedy_s"] < row["assign_dp_s"], (
                f"greedy {row['greedy_s']:.4f} s not faster than the "
                f"assignment DP {row['assign_dp_s']:.4f} s at k={k} P={P}"
            )

    flagship = [r for r in report["grid"] if r["k"] == 5 and r["P"] == 64]
    if flagship:
        sp = flagship[0]["exhaustive_speedup"]
        report["k5_P64_exhaustive_speedup"] = sp
        report["k5_P64_meets_5x_target"] = sp >= 5.0
        print(f"\nexhaustive k=5 P=64 speedup: {sp:.1f}x (target >= 5.0x)")
        assert sp >= 5.0, f"speedup {sp:.2f}x below the 5x acceptance bar"

    if not args.quick:
        print("\nP=256 bounded-memory solve ...")
        p256 = bench_p256(args.budget_mb)
        report["p256"] = p256
        print(
            f"P=256 k=3 float32: {p256['wall_s']:.2f} s, "
            f"peak tables {p256['peak_table_mb']:.0f} MB "
            f"(budget {p256['budget_mb']:.0f} MB)"
        )

    report["mappings_byte_identical"] = True  # asserted per cell above
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
