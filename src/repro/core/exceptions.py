"""Error types raised by the :mod:`repro` library.

Every exception the library raises deliberately derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
:class:`PlanError` carries structured :class:`Violation` records, the one
vocabulary every plan check (pre-flight, ``diagnose``, the static plan
verifier) reports in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` means the plan cannot run (or fails the lint run);
    ``WARNING`` is reported but does not gate; ``INFO`` is a performance
    observation.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Violation:
    """One structured finding about a plan.

    ``code`` is stable and machine-readable (``structure``, ``budget``,
    ``replication``, ``memory``, ``geometry``, and the performance
    smells ``idle`` and ``imbalance``); ``module`` is
    the offending module index when the finding is localised.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    module: int | None = None

    def __str__(self):
        where = f" (module {self.module})" if self.module is not None else ""
        return f"{self.code}{where}: {self.message}"

    def to_dict(self) -> dict:
        d = {"code": self.code, "message": self.message,
             "severity": self.severity.value}
        if self.module is not None:
            d["module"] = self.module
        return d


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class InvalidChainError(ReproError):
    """A task chain is structurally invalid (empty, mismatched edges, ...)."""


class InvalidMappingError(ReproError):
    """A mapping violates a structural rule (non-contiguous module, overlap,
    task missing or duplicated, replication of a non-replicable task, ...)."""


class PlanError(InvalidMappingError):
    """A mapping plan is invalid.

    Raised by :class:`~repro.core.mapping.ModuleSpec` and
    :class:`~repro.core.mapping.Mapping` construction (bad fields, gaps,
    overlaps) and by :func:`repro.core.validate.ensure_valid_plan` (and the
    ``simulate``/``RemapPlanner`` entry points that call it) *before* any
    simulation work runs.  Carries the full list of :class:`Violation`
    records, so callers see every problem at once instead of the first
    assert a simulation run happens to trip over.

    Subclasses :class:`InvalidMappingError` so pre-existing handlers keep
    working.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(
            f"invalid plan ({len(self.violations)} violation(s)): {lines}"
        )


class InfeasibleError(ReproError):
    """No mapping exists under the given resource constraints.

    Raised e.g. when the sum of per-module minimum processor counts exceeds
    the machine size, or when no rectangular packing of the module instances
    onto the processor grid exists.
    """


class ModelFitError(ReproError):
    """The cost-model fitting procedure could not produce a usable model
    (singular design matrix, too few samples, non-finite measurements)."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""
