#!/usr/bin/env python
"""Solver performance harness: optimized stack vs the seed implementation.

Times the assignment DP, the clustered DP (exhaustive and bisect) and the
greedy heuristic across a ``(k, P)`` grid, each as the best of
:data:`TIMING_RUNS` cold runs, **asserts the optimized solvers return
byte-identical mappings** to a verbatim copy of the seed solver embedded
below, and asserts bisect reaches the exhaustive optimum within its
tolerance.  Exhaustive search bounds itself by the best result it has
found, so ``exhaustive_s`` times fewer DPs than the seed's one per
clustering, ``clusterings_solved`` counts the DPs it ran, and
``exhaustive_speedup`` measures that pruning as well as the DP.
``assign_dp_speedup`` (seed over optimized time of one assignment DP)
measures the DP engine alone; the full grid asserts both speedups reach
5x at ``k = 5, P = 64``.  Each cell
also times exhaustive search bounded by the greedy heuristic's
throughput as well, asserts it returns the unbounded plan byte for byte,
and records how many clusterings it kept.  The heuristic itself is asserted
bit-identical to the unpruned clustering hill-climb embedded below, and
each cell records how many clusterings it scored with a greedy run.  The
full grid also asserts that greedy, the paper's cheap alternative (§4),
beats the assignment DP on every cell with ``P >= 32``.  Results are
written to ``BENCH_solver.json`` at the repo root.

A ``small_p`` table times one warm assignment DP per call at ``P = 12`` on
1–4 modules, the size of the adaptive runtime's re-solves, beside the
seed DP and the scalar pricing of its result.

Run standalone (not collected by pytest)::

    python benchmarks/bench_solver_perf.py            # full grid
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

import repro.core.cluster_greedy as cluster_greedy  # noqa: E402
from repro.core import (  # noqa: E402
    InfeasibleError,
    SegmentCache,
    SolverWorkspace,
    build_module_chain,
    default_workspace,
    greedy_assignment,
    heuristic_mapping,
    optimal_assignment,
)
from repro.core.cluster_greedy import MAX_CLUSTERING_ROUNDS  # noqa: E402
from repro.core.dp_cluster import (  # noqa: E402
    BISECT_TOL,
    bisect_mapping,
    exhaustive_mapping,
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


def _seed_neighbours(clustering):
    spans = list(clustering)
    for i in range(len(spans) - 1):  # merges
        yield tuple(spans[:i] + [(spans[i][0], spans[i + 1][1])] + spans[i + 2:])
    for i, (a, b) in enumerate(spans):  # splits
        for cut in range(a, b):
            yield tuple(spans[:i] + [(a, cut), (cut + 1, b)] + spans[i + 1:])


def _seed_heuristic(chain, total_procs):
    """The unpruned §4.2 clustering hill-climb: every neighbour scored by a
    full greedy assignment, the final clustering solved again with the
    Theorem-2 post-pass.  Returns ``(clustering, totals, repr(mapping),
    throughput, clusterings_examined, rounds)``."""
    P = total_procs

    def solve(clustering, backtracking=False):
        mchain = build_module_chain(chain, clustering)
        if mchain.total_min_procs > P:
            return None
        try:
            return greedy_assignment(mchain, P, backtracking=backtracking)
        except InfeasibleError:
            return None

    def score(clustering):
        res = solve(clustering)
        return float("-inf") if res is None else res.throughput

    current = singleton_clustering(len(chain))
    best, examined = score(current), 1
    if best == float("-inf"):
        current = ((0, len(chain) - 1),)
        best, examined = score(current), 2
    rounds = 0
    for _ in range(MAX_CLUSTERING_ROUNDS):
        rounds += 1
        best_nb, best_nb_score = None, best
        for nb in _seed_neighbours(current):
            examined += 1
            s = score(nb)
            if s > best_nb_score * (1 + 1e-12):
                best_nb, best_nb_score = nb, s
        if best_nb is None:
            break
        current, best = best_nb, best_nb_score
    final = solve(current, backtracking=True)
    return (current, final.totals, repr(final.mapping), final.throughput,
            examined, rounds)


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------


def _heuristic_scored(chain, P):
    """How many clusterings ``heuristic_mapping`` scores with a greedy run
    (the rest its DP bound or its memo skips)."""
    real = cluster_greedy.greedy_loop
    runs = []

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    cluster_greedy.greedy_loop = counted
    try:
        heuristic_mapping(chain, P)
    finally:
        cluster_greedy.greedy_loop = real
    return len(runs)


#: Smallest machine on which the full grid requires greedy to beat the DP.
GREEDY_GATE_P = 32


#: Runs per timed grid cell; the cell records the fastest.
TIMING_RUNS = 3


def _timed(fn):
    """Best of :data:`TIMING_RUNS` wall-clock runs of ``fn()`` and its last
    result.  Every run starts cold: the default arena is dropped first, and
    ``fn`` builds its own workspace or segment cache (the solvers build a
    fresh :class:`SegmentCache` when given none)."""
    best = float("inf")
    for _ in range(TIMING_RUNS):
        default_workspace().drop()
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_cell(k, P, check_seed=True):
    """One (k, P) grid cell: assignment DP, exhaustive (unbounded and
    bounded by the heuristic), bisect, greedy."""
    chain = random_chain(k, seed=k * 101 + P)
    row = {"k": k, "P": P}

    # Assignment DP on the singleton clustering (fresh workspace = cold).
    mchain = build_module_chain(chain, singleton_clustering(k))
    row["assign_dp_s"], res = _timed(
        lambda: optimal_assignment(mchain, P, workspace=SolverWorkspace())
    )

    if check_seed:
        t_seed, (seed_totals, seed_val) = _timed(
            lambda: _seed_optimal_assignment(mchain, P)
        )
        row["assign_dp_seed_s"] = t_seed
        row["assign_dp_speedup"] = t_seed / row["assign_dp_s"]
        assert res.totals == seed_totals, (
            f"assignment mismatch k={k} P={P}: {res.totals} != {seed_totals}"
        )
        assert res.bottleneck_response == seed_val, (
            f"objective mismatch k={k} P={P}"
        )

    # Exhaustive clustered DP (the tentpole speedup target).
    row["exhaustive_s"], opt = _timed(
        lambda: exhaustive_mapping(chain, P)
    )
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
        lambda: exhaustive_mapping(chain, P, incumbent=heur.throughput)
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
        lambda: bisect_mapping(chain, P)
    )
    row["bisect_vs_exhaustive_rel"] = (
        abs(bis.throughput - opt.throughput) / opt.throughput
    )
    assert row["bisect_vs_exhaustive_rel"] <= BISECT_TOL, (
        f"bisect off the exhaustive optimum k={k} P={P}: "
        f"rel {row['bisect_vs_exhaustive_rel']:.3g}"
    )
    row["greedy_s"], _ = _timed(lambda: greedy_assignment(mchain, P))
    row["throughput"] = opt.throughput

    # Untimed: the heuristic against the unpruned climb, after every timing.
    row["heuristic_scored"] = _heuristic_scored(chain, P)
    seed_heur = _seed_heuristic(chain, P)
    assert (heur.clustering, heur.totals, repr(heur.mapping),
            float.hex(heur.throughput), heur.clusterings_examined,
            heur.rounds) == (*seed_heur[:3], float.hex(seed_heur[3]),
                             *seed_heur[4:]), (
        f"heuristic differs from the unpruned climb k={k} P={P}"
    )
    return row


#: Machine size of the adaptive runtime's re-solves (perfbench's
#: adapt-drift runs on 12 processors): many small DPs, fixed cost first.
SMALL_P = 12
SMALL_P_CLUSTERINGS = (
    ((0, 3),),
    ((0, 1), (2, 3)),
    ((0, 0), (1, 2), (3, 3)),
    ((0, 0), (1, 1), (2, 2), (3, 3)),
)


def _per_call(fn, number, repeat=5):
    """Best-of-``repeat`` seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def bench_small_p():
    """Per-call assignment DP at P = 12 on 1–4 modules, warm (one segment
    cache and one workspace across calls, as in a controller's re-solves),
    beside the seed DP and the scalar pricing of the result; the totals
    and objective are asserted identical to the seed's."""
    chain = random_chain(4, seed=412)
    cache = SegmentCache(chain)
    ws = SolverWorkspace()
    rows = []
    for clustering in SMALL_P_CLUSTERINGS:
        mchain = cache.module_chain(clustering)
        res = optimal_assignment(mchain, SMALL_P, workspace=ws)
        seed_totals, seed_val = _seed_optimal_assignment(mchain, SMALL_P)
        assert (res.totals, res.bottleneck_response) == (seed_totals, seed_val), (
            f"small-P DP mismatch on {clustering}"
        )
        allocations = totals_to_allocations(mchain, res.totals)
        rows.append({
            "P": SMALL_P,
            "modules": len(clustering),
            "dp_us": 1e6 * _per_call(
                lambda: optimal_assignment(mchain, SMALL_P, workspace=ws), 300
            ),
            "pricing_us": 1e6 * _per_call(
                lambda: evaluate_module_chain(mchain, allocations), 300
            ),
            "seed_dp_us": 1e6 * _per_call(
                lambda: _seed_optimal_assignment(mchain, SMALL_P), 30
            ),
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small grid (CI smoke)")
    ap.add_argument("--out", default=str(REPO / "BENCH_solver.json"))
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
            f"(seed {row['assign_dp_seed_s']*1e3:8.2f} ms, "
            f"{row['assign_dp_speedup']:.1f}x)  "
            f"exhaustive {row['exhaustive_s']*1e3:8.2f} ms "
            f"(seed {row['exhaustive_seed_s']*1e3:8.2f} ms, "
            f"{row['exhaustive_speedup']:.1f}x)  "
            f"bounded {row['bounded_s']*1e3:7.2f} ms "
            f"({row['clusterings_kept']}/{row['clusterings_solved']} kept)  "
            f"bisect {row['bisect_s']*1e3:7.2f} ms  "
            f"greedy {row['greedy_s']*1e3:6.2f} ms  "
            f"heuristic {row['heuristic_s']*1e3:6.2f} ms "
            f"({row['heuristic_scored']} scored)"
        )
        if not args.quick and P >= GREEDY_GATE_P:
            assert row["greedy_s"] < row["assign_dp_s"], (
                f"greedy {row['greedy_s']:.4f} s not faster than the "
                f"assignment DP {row['assign_dp_s']:.4f} s at k={k} P={P}"
            )

    report["small_p"] = bench_small_p()
    for row in report["small_p"]:
        print(
            f"P={row['P']} {row['modules']} modules  DP {row['dp_us']:7.1f} us "
            f"(seed {row['seed_dp_us']:7.1f} us)  pricing "
            f"{row['pricing_us']:6.1f} us"
        )

    flagship = [r for r in report["grid"] if r["k"] == 5 and r["P"] == 64]
    if flagship:
        sp = flagship[0]["exhaustive_speedup"]
        report["k5_P64_exhaustive_speedup"] = sp
        report["k5_P64_meets_5x_target"] = sp >= 5.0
        print(f"\nexhaustive k=5 P=64 speedup: {sp:.1f}x (target >= 5.0x)")
        assert sp >= 5.0, f"speedup {sp:.2f}x below the 5x acceptance bar"
        dp = flagship[0]["assign_dp_speedup"]
        report["k5_P64_assign_dp_speedup"] = dp
        print(f"assignment DP k=5 P=64 speedup: {dp:.1f}x (target >= 5.0x)")
        assert dp >= 5.0, (
            f"assignment DP speedup {dp:.2f}x below the 5x acceptance bar")

    report["mappings_byte_identical"] = True  # asserted per cell above
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
