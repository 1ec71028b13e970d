"""Static analysis: determinism linting and mapping-plan verification.

The repo's reproducibility guarantees — byte-identical incremental vs.
cold DP solves, bit-exact fast-path vs. event-engine runs, reproducible
seeded fault traces — are enforced dynamically by golden fixtures and
runtime audits.  This package is the *static* counterpart: it rejects the
code patterns and the mapping plans that would break those guarantees
before anything executes.

Two halves:

* :mod:`repro.analysis.engine` — an AST lint engine with repo-specific
  determinism rules (unseeded RNG, wall-clock reads in hot paths,
  order-sensitive accumulation over sets, mutable default arguments,
  protocol-contract drift).  ``repro-map lint --self`` runs it over the
  installed tree and must pass clean in CI.
* :mod:`repro.analysis.plan` — a static mapping-plan verifier that checks
  processor budgets, contiguity, replica feasibility, machine geometry,
  and deadlock-freedom of the ascending-queue redistribution without
  running the simulator.

Both halves share one vocabulary with the runtime pre-flight:
:class:`~repro.core.exceptions.Severity`, and (for plans)
:class:`~repro.core.exceptions.Violation` and the one report type,
:class:`~repro.core.validate.PlanReport`, re-exported here.
"""

from ..core.validate import PlanReport
from .diagnostics import Diagnostic, Severity
from .engine import LintEngine, LintReport, lint_paths, lint_source, self_check
from .plan import (
    StaticPlan,
    QueueState,
    Reassignment,
    load_plan,
    verify_plan,
    verify_redistribution,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "LintEngine",
    "LintReport",
    "lint_paths",
    "lint_source",
    "self_check",
    "StaticPlan",
    "PlanReport",
    "QueueState",
    "Reassignment",
    "load_plan",
    "verify_plan",
    "verify_redistribution",
]
