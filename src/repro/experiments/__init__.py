"""Paper-reproduction experiments: one module per table/figure plus the
supporting studies (model accuracy, greedy-vs-DP agreement, scaling,
ablations).  Each module exposes ``run()`` returning structured results and
``render(results)`` producing the paper-style text artifact."""

import importlib

__all__ = [
    "common",
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "model_accuracy",
    "greedy_vs_dp",
    "scaling",
    "ablations",
    "theorems",
    "frontier",
    "machines_study",
    "memory_study",
    "placement",
    "sizing_study",
    "interference",
    "fault_study",
    "drift_study",
    "linearization",
    "training_budget",
]


def __getattr__(name: str):
    """Import an experiment module on first access (PEP 562): a caller
    that runs one study does not import all of them."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

