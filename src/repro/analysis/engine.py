"""The lint engine: file walking, rule dispatch, reporting.

Each file is parsed once and every rule whose scope covers it runs on
its AST.  Every finding is an error.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .diagnostics import Diagnostic, report_to_dict
from .rules import PER_FILE_RULES, RuleContext

__all__ = ["LintEngine", "LintReport", "lint_paths", "lint_source", "self_check"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def to_dict(self) -> dict:
        return report_to_dict(self.diagnostics, self.files_scanned)

    def render(self) -> str:
        lines = [
            d.format()
            for d in sorted(
                self.diagnostics, key=lambda d: (d.path, d.line, d.col, d.rule)
            )
        ]
        lines.append(
            f"{self.files_scanned} file(s) scanned: "
            f"{len(self.diagnostics)} error(s)"
        )
        return "\n".join(lines)


class LintEngine:
    """Run the per-file rules over sources."""

    def __init__(self, package_root: Path | None = None):
        self.package_root = package_root

    # -- path resolution ----------------------------------------------------
    def _parts(self, path: Path) -> tuple[str, ...]:
        """Path components used for rule scoping, package-relative when
        the file lives under the package root (or any dir named repro)."""
        parts = path.parts
        if self.package_root is not None:
            try:
                return path.resolve().relative_to(
                    Path(self.package_root).resolve()
                ).parts
            except ValueError:
                pass
        for anchor in ("repro", "src"):
            if anchor in parts[:-1]:
                return parts[len(parts) - 1 - parts[::-1].index(anchor):]
        return parts[-2:] if len(parts) > 1 else parts

    # -- the per-file pipeline ----------------------------------------------
    def _lint(self, sources: dict[str, str]) -> list[Diagnostic]:
        """Parse each file and run the rules that apply to it."""
        diagnostics: list[Diagnostic] = []
        for path, source in sources.items():
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                diagnostics.append(Diagnostic(
                    "syntax-error", path, exc.lineno or 1, (exc.offset or 1) - 1,
                    f"file does not parse: {exc.msg}",
                ))
                continue
            ctx = RuleContext(path, self._parts(Path(path)), tree)
            for rule in PER_FILE_RULES:
                if rule.applies_to(ctx.parts):
                    rule.check(ctx, rule)
            diagnostics += ctx.diagnostics
        return diagnostics

    def lint_source(self, source: str, filename: str = "<string>") -> list[Diagnostic]:
        """Lint one source string (fixture tests, editor integration)."""
        return self._lint({filename: source})

    def lint_paths(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint files and directory trees; directories recurse over *.py."""
        files: dict[Path, Path] = {}     # resolved path -> first spelling given
        for p in paths:
            p = Path(p)
            found = [
                f for f in sorted(p.rglob("*.py"))
                if not any(part in _SKIP_DIRS for part in f.parts)
            ] if p.is_dir() else [p]
            for f in found:
                files.setdefault(f.resolve(), f)

        report = LintReport()
        sources: dict[str, str] = {}
        for f in files.values():
            try:
                sources[str(f)] = f.read_text()
            except OSError as exc:
                report.diagnostics.append(
                    Diagnostic("io-error", str(f), 1, 0, f"cannot read file: {exc}")
                )
        report.files_scanned = len(sources)
        report.diagnostics += self._lint(sources)
        return report


def lint_paths(paths: Iterable[str | Path]) -> LintReport:
    return LintEngine().lint_paths(paths)


def lint_source(source: str, filename: str = "<string>") -> list[Diagnostic]:
    return LintEngine().lint_source(source, filename)


def self_check(extra: Iterable[str | Path] = ()) -> LintReport:
    """Lint the installed :mod:`repro` tree, plus any ``extra`` paths, in
    one run — the CI gate.  It must find nothing."""
    import repro

    root = Path(repro.__file__).parent
    engine = LintEngine(package_root=root.parent)
    return engine.lint_paths([root, *extra])
