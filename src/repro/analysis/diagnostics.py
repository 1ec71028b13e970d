"""Diagnostic records emitted by the lint engine.

Every finding carries a file:line:col span so editors and CI can jump to
it, a stable rule name (the key used by ``# repro: allow[rule]`` pragmas),
and a machine-readable dict form — the JSON the CI lint job uploads as an
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.exceptions import Severity

__all__ = ["Severity", "Diagnostic", "report_to_dict"]

JSON_FORMAT = "repro-lint/v1"


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, anchored to a source span."""

    rule: str                 # stable rule name, e.g. "unseeded-rng"
    severity: Severity
    path: str                 # file the finding is in (as given to the engine)
    line: int                 # 1-based start line
    col: int                  # 0-based start column (ast convention)
    message: str
    end_line: int | None = None
    end_col: int | None = None
    suppressed: bool = False  # True when a pragma on the line allows it

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"[{self.severity}] {self.rule}: {self.message}{tag}"
        )

    def to_dict(self) -> dict:
        d = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.end_line is not None:
            d["end_line"] = self.end_line
        if self.end_col is not None:
            d["end_col"] = self.end_col
        if self.suppressed:
            d["suppressed"] = True
        return d

    def allowed_by(self, rules: set[str]) -> bool:
        """Does a pragma rule-set cover this diagnostic?"""
        return "*" in rules or self.rule in rules


def report_to_dict(
    diagnostics: Iterable[Diagnostic],
    files_scanned: int = 0,
) -> dict:
    """The machine-readable payload for a set of diagnostics."""
    diags = sorted(
        diagnostics, key=lambda d: (d.path, d.line, d.col, d.rule)
    )
    active = [d for d in diags if not d.suppressed]
    return {
        "format": JSON_FORMAT,
        "files_scanned": files_scanned,
        "violations": sum(1 for d in active if d.severity is Severity.ERROR),
        "warnings": sum(1 for d in active if d.severity is Severity.WARNING),
        "suppressed": sum(1 for d in diags if d.suppressed),
        "diagnostics": [d.to_dict() for d in diags],
    }

