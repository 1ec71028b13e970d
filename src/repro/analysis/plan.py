"""Static mapping-plan verifier.

A mapping produced offline (a saved JSON, a hand-written plan, a future
ILP/metaheuristic backend) is vetted here *without running the
simulator*: structural tiling (by :class:`~repro.core.mapping.ModuleSpec`
and :class:`~repro.core.mapping.Mapping` construction), everything
:func:`~repro.core.validate.preflight` owns (coverage, replication
legality, processor budget, per-instance minimums, machine geometry),
and the performance evaluation of :func:`~repro.core.validate.diagnose`
when the plan carries a chain.  The result is the one
:class:`~repro.core.validate.PlanReport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.exceptions import PlanError, Violation
from ..core.mapping import Mapping, ModuleSpec
from ..core.task import TaskChain
from ..core.validate import PlanReport, diagnose

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.machine import MachineSpec

__all__ = ["StaticPlan", "load_plan", "verify_plan"]


@dataclass
class StaticPlan:
    """A plan to verify: raw modules plus whatever context is known.

    ``modules`` stay raw, so malformed entries are *reported* by
    :func:`verify_plan` rather than thrown while loading.  Unset
    ``total_procs`` and ``mem_per_proc_mb`` come from ``machine``.
    """

    modules: list[dict]
    chain: TaskChain | None = None
    machine: "MachineSpec | None" = None
    total_procs: int | None = None
    mem_per_proc_mb: float | None = None
    source: str = "<memory>"

    @classmethod
    def from_dict(cls, payload: dict, source: str = "<dict>") -> "StaticPlan":
        """Build from a persisted JSON payload.

        Accepts the three on-disk kinds: ``mapping`` (from
        :func:`~repro.tools.persist.save_mapping`), ``plan`` (from
        :func:`~repro.tools.persist.save_plan_summary`, which embeds the
        fitted chain and machine name), and ``plan-check`` (the explicit
        verifier format).  A field of the wrong type, a malformed chain
        and a ``redistribution`` section raise ``ValueError`` naming them.
        """
        if "redistribution" in payload:
            raise ValueError(
                f"{source}: 'redistribution' sections are not supported; the "
                f"simulator checks reassignments when it makes them"
            )
        if payload.get("kind", "plan-check") == "mapping":
            modules, chain_d = _field(payload, "modules", list, "a list", source), None
        else:
            mapping_d = _field(payload, "mapping", dict, "an object", source) or {}
            modules = _field(mapping_d, "modules", list, "a list", source)
            chain_d = payload.get("fitted_chain") or payload.get("chain")
        try:
            chain = TaskChain.from_dict(chain_d) if chain_d else None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{source}: chain is malformed: {exc!r}") from None
        return cls(
            modules=list(modules or []), chain=chain,
            machine=_resolve_machine(
                _field(payload, "machine", str, "a preset name", source), source
            ),
            total_procs=_field(payload, "total_procs", int, "an integer", source),
            mem_per_proc_mb=_field(
                payload, "mem_per_proc_mb", (int, float), "a number", source
            ),
            source=source,
        )


def _field(payload: dict, key: str, types, what: str, source: str):
    """``payload[key]`` (``None`` when absent), which must be of ``types``
    (never a bool, which JSON keeps apart from numbers)."""
    value = payload.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
        raise ValueError(f"{source}: {key} must be {what}, found {value!r}")
    return value


def _resolve_machine(name, source: str):
    """Preset lookup tolerant of both CLI keys and spec names."""
    if name is None:
        return None
    from ..machine import PRESETS, by_name

    specs = {key: by_name(key) for key in PRESETS}
    for key, spec in specs.items():
        if name in (key, spec.name):
            return spec
    raise ValueError(
        f"{source}: unknown machine {name!r}; known presets: "
        f"{sorted(specs)} (spec names {sorted(m.name for m in specs.values())})"
    )


def verify_plan(plan: StaticPlan) -> PlanReport:
    """Run every applicable check family over a plan.

    Structure first: each raw module is parsed with
    :meth:`ModuleSpec.from_dict` and the list with :class:`Mapping`,
    which report every bad field, gap and overlap (nothing else is
    meaningful on a broken tiling).  Then
    :func:`~repro.core.validate.diagnose` — preflight's coverage,
    replication, budget, per-instance minimums and geometry, and, when
    the plan carries a chain, its performance.
    """
    violations: list[Violation] = []
    specs = []
    for i, d in enumerate(plan.modules):
        try:
            specs.append(ModuleSpec.from_dict(d))
        except PlanError as err:
            violations += [replace(v, module=i) for v in err.violations]
    if not violations:
        try:
            mapping = Mapping(specs)
        except PlanError as err:
            violations = err.violations
    if violations:
        return PlanReport(violations, source=plan.source, checked=("structure",))

    report = diagnose(
        plan.chain, mapping, plan.machine, plan.mem_per_proc_mb, plan.total_procs
    )
    report.source = plan.source
    report.checked = ("structure", *report.checked)
    return report


def load_plan(path: str | Path) -> StaticPlan:
    """Read a plan from any of the persisted JSON kinds."""
    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in ("mapping", "plan", "plan-check"):
        raise ValueError(
            f"{path}: expected kind 'mapping', 'plan' or 'plan-check', "
            f"found {kind!r}"
        )
    return StaticPlan.from_dict(payload, source=str(path))
