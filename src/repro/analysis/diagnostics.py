"""Diagnostic records emitted by the lint engine.

Every finding carries a file:line:col span so editors and CI can jump to
it, a stable rule name, and a machine-readable dict form — the JSON the
CI lint job uploads as an artifact.  Every finding is an error: a lint
run passes only when it finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Diagnostic", "report_to_dict"]

JSON_FORMAT = "repro-lint/v2"


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, anchored to a source span."""

    rule: str                 # stable rule name, e.g. "unseeded-rng"
    path: str                 # file the finding is in (as given to the engine)
    line: int                 # 1-based start line
    col: int                  # 0-based start column (ast convention)
    message: str
    end_line: int | None = None
    end_col: int | None = None

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        d = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.end_line is not None:
            d["end_line"] = self.end_line
        if self.end_col is not None:
            d["end_col"] = self.end_col
        return d


def report_to_dict(
    diagnostics: Iterable[Diagnostic],
    files_scanned: int = 0,
) -> dict:
    """The machine-readable payload for a set of diagnostics."""
    diags = sorted(
        diagnostics, key=lambda d: (d.path, d.line, d.col, d.rule)
    )
    return {
        "format": JSON_FORMAT,
        "files_scanned": files_scanned,
        "violations": len(diags),
        "diagnostics": [d.to_dict() for d in diags],
    }
