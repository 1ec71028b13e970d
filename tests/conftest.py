"""Shared fixtures, hypothesis profiles, and factories for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    Edge,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    ZeroUnary,
    all_clusterings,
)
from repro.core.response import strip_replication

try:
    from hypothesis import HealthCheck, settings as hyp_settings

    # "ci" pins the example stream (derandomize) and drops the per-example
    # deadline so shared runners can't flake; "dev" keeps the default
    # randomised exploration.  Select with HYPOTHESIS_PROFILE=ci.
    hyp_settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hyp_settings.register_profile("dev", deadline=None)
    hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: exhaustive/stress tests; deselect with -m 'not slow'"
    )


def make_random_chain(
    k: int,
    seed: int,
    replicable_prob: float = 0.7,
    with_memory: bool = False,
    comm_scale: float = 1.0,
) -> TaskChain:
    """A random chain with well-behaved (no superlinear speedup) costs.

    Coefficients are drawn so execution dominates yet communication is
    non-trivial, the regime the paper targets.
    """
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(k):
        tasks.append(
            Task(
                name=f"t{i}",
                exec_cost=PolynomialExec(
                    c_fixed=float(rng.uniform(0.0, 0.3)),
                    c_parallel=float(rng.uniform(2.0, 40.0)),
                    c_overhead=float(rng.uniform(0.0, 0.02)),
                ),
                replicable=bool(rng.random() < replicable_prob),
                mem_fixed_mb=float(rng.uniform(0.0, 0.1)) if with_memory else 0.0,
                mem_parallel_mb=float(rng.uniform(0.5, 4.0)) if with_memory else 0.0,
            )
        )
    edges = []
    for i in range(k - 1):
        edges.append(
            Edge(
                icom=PolynomialIComm(
                    c_fixed=float(rng.uniform(0.0, 0.05)) * comm_scale,
                    c_parallel=float(rng.uniform(0.0, 2.0)) * comm_scale,
                    c_overhead=float(rng.uniform(0.0, 0.005)) * comm_scale,
                ),
                ecom=PolynomialEComm(
                    c_fixed=float(rng.uniform(0.0, 0.1)) * comm_scale,
                    c_send_parallel=float(rng.uniform(0.0, 3.0)) * comm_scale,
                    c_recv_parallel=float(rng.uniform(0.0, 3.0)) * comm_scale,
                    c_send_overhead=float(rng.uniform(0.0, 0.01)) * comm_scale,
                    c_recv_overhead=float(rng.uniform(0.0, 0.01)) * comm_scale,
                ),
            )
        )
    return TaskChain(tasks, edges, name=f"random-k{k}-s{seed}")


def build_every_part(cache, P: int, replication: bool = True) -> None:
    """Build the response parts of every module of every clustering that
    fits on ``P`` processors: what one assignment DP per clustering reads.
    The exhaustive search skips clusterings that cannot win, so a solve
    alone leaves only some of them."""
    for clustering in all_clusterings(len(cache.chain)):
        mchain = cache.module_chain(clustering)
        if mchain.total_min_procs > P:
            continue
        if not replication:
            mchain = strip_replication(mchain)
        for i in range(len(mchain)):
            mchain.response_parts(i, P)


def make_three_task_chain() -> TaskChain:
    """A small deterministic chain used across unit tests."""
    t1 = Task("a", PolynomialExec(0.1, 10.0, 0.01), replicable=True)
    t2 = Task("b", PolynomialExec(0.05, 30.0, 0.02), replicable=True)
    t3 = Task("c", PolynomialExec(0.2, 5.0, 0.0), replicable=False)
    e12 = Edge(
        icom=PolynomialIComm(0.01, 1.0, 0.001),
        ecom=PolynomialEComm(0.02, 1.0, 1.0, 0.002, 0.002),
    )
    e23 = Edge(
        icom=ZeroUnary(),
        ecom=PolynomialEComm(0.05, 2.0, 2.0, 0.001, 0.001),
    )
    return TaskChain([t1, t2, t3], [e12, e23], name="three")


@pytest.fixture
def three_chain() -> TaskChain:
    return make_three_task_chain()


@pytest.fixture
def random_chain() -> TaskChain:
    return make_random_chain(4, seed=7)
