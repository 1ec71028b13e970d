"""The lint engine: file walking, rule dispatch, pragmas, reporting.

Per-file rules run on each file's AST; the cross-module
protocol-contract pass runs once over a class index built from every
file.  Findings covered by a same-line ``# repro: allow[rule]`` pragma
are reported as suppressed and do not gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .contracts import CONTRACT_RULE, DEFAULT_CONTRACTS, ClassIndex, check_contracts
from .diagnostics import Diagnostic, Severity, report_to_dict
from .pragmas import apply_pragmas, collect_pragmas
from .rules import Rule, RuleContext, default_rules

__all__ = ["LintEngine", "LintReport", "lint_paths", "lint_source", "self_check"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def active(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.suppressed]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.active if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.active if d.severity is Severity.WARNING]

    @property
    def suppressed(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.suppressed]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return report_to_dict(self.diagnostics, self.files_scanned)

    def render(self, show_suppressed: bool = False) -> str:
        lines = [
            d.format()
            for d in sorted(
                self.diagnostics, key=lambda d: (d.path, d.line, d.col, d.rule)
            )
            if show_suppressed or not d.suppressed
        ]
        lines.append(
            f"{self.files_scanned} file(s) scanned: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)


class LintEngine:
    """Run a rule set (plus the contract pass) over sources."""

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        contracts=DEFAULT_CONTRACTS,
        package_root: Path | None = None,
    ):
        self.rules = tuple(default_rules() if rules is None else rules)
        self.contracts = contracts
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

    # -- single file --------------------------------------------------------
    def lint_source(self, source: str, filename: str = "<string>") -> list[Diagnostic]:
        """Lint one source string (fixture tests, editor integration)."""
        ctx, index = self._parse(source, filename)
        if ctx is None:
            return index  # parse-error diagnostics
        self._run_file_rules(ctx)
        contract_ctx = {ctx.path: ctx}
        check_contracts(index, self.contracts, contract_ctx, CONTRACT_RULE)
        return self._finish(ctx, source)

    def _parse(self, source: str, filename: str):
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            return None, [
                Diagnostic(
                    "syntax-error", Severity.ERROR, filename,
                    exc.lineno or 1, (exc.offset or 1) - 1,
                    f"file does not parse: {exc.msg}",
                )
            ]
        ctx = RuleContext(
            path=filename,
            parts=self._parts(Path(filename)),
            tree=tree,
            source=source,
        )
        index = ClassIndex()
        index.add_file(filename, tree)
        return ctx, index

    def _run_file_rules(self, ctx: RuleContext) -> None:
        for rule in self.rules:
            if rule.applies_to(ctx.parts):
                rule.check(ctx, rule)

    def _finish(self, ctx: RuleContext, source: str) -> list[Diagnostic]:
        pragmas, pragma_diags = collect_pragmas(source, ctx.path)
        return apply_pragmas(ctx.diagnostics, pragmas, ctx.path) + pragma_diags

    # -- trees --------------------------------------------------------------
    def lint_paths(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint files and directory trees; directories recurse over *.py."""
        files: list[Path] = []
        for p in paths:
            p = Path(p)
            if p.is_dir():
                files.extend(
                    f for f in sorted(p.rglob("*.py"))
                    if not any(part in _SKIP_DIRS for part in f.parts)
                )
            else:
                files.append(p)

        report = LintReport()
        index = ClassIndex()
        contexts: dict[str, RuleContext] = {}
        sources: dict[str, str] = {}
        for f in files:
            try:
                source = f.read_text()
            except OSError as exc:
                report.diagnostics.append(
                    Diagnostic(
                        "io-error", Severity.ERROR, str(f), 1, 0,
                        f"cannot read file: {exc}",
                    )
                )
                continue
            report.files_scanned += 1
            ctx, file_index = self._parse(source, str(f))
            if ctx is None:
                report.diagnostics.extend(file_index)
                continue
            self._run_file_rules(ctx)
            index.add_file(ctx.path, ctx.tree)
            contexts[ctx.path] = ctx
            sources[ctx.path] = source
        # Cross-module pass: contract findings land in each file's context
        # so that file's pragmas can suppress them.
        check_contracts(index, self.contracts, contexts, CONTRACT_RULE)
        for path, ctx in contexts.items():
            report.diagnostics.extend(self._finish(ctx, sources[path]))
        return report


def lint_paths(paths: Iterable[str | Path]) -> LintReport:
    return LintEngine().lint_paths(paths)


def lint_source(source: str, filename: str = "<string>") -> list[Diagnostic]:
    return LintEngine().lint_source(source, filename)


def self_check() -> LintReport:
    """Lint the installed :mod:`repro` tree — the CI gate.

    Must pass clean: every intentional violation carries an auditable
    ``# repro: allow[rule]`` pragma.
    """
    import repro

    root = Path(repro.__file__).parent
    engine = LintEngine(package_root=root.parent)
    return engine.lint_paths([root])
