"""Plan checks: the legality rules a mapping must meet, and the linter.

:func:`preflight` is the one owner of the paper's legality rules (§2.2,
§3.2, §6.1): the modules cover the chain, only replicable segments get
``r > 1``, the processor total fits the budget, each instance gets at
least its minimum processor count (the tasks' ``min_procs`` floor or
the memory footprint, whichever binds), and — with a machine in scope —
the modules fit its geometry.  :func:`ensure_valid_plan` raises on its
findings; :func:`diagnose` adds performance evaluation and smells (idle
processors, a module starving the bottleneck, replication left on the
table) and returns the one :class:`PlanReport`, which the static plan
verifier (:func:`repro.analysis.verify_plan`, ``repro-map lint --plan``)
also returns, so a mapping produced elsewhere (a saved JSON, a
hand-written one) can be vetted before deployment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exceptions import PlanError, Severity, Violation
from .mapping import Mapping
from .replication import split_replicas
from .response import (
    UNFIT,
    UNLIMITED_MEMORY_MB,
    build_module_chain,
    evaluate_module_chain,
)
from .task import TaskChain

__all__ = [
    "PlanReport",
    "diagnose",
    "preflight",
    "ensure_valid_plan",
]


@dataclass
class PlanReport:
    """Every finding about one plan, and its predicted throughput.

    ``throughput`` is ``None`` when the plan was not evaluated; ``checked``
    names the check families that ran.  The plan is ``ok`` when no
    finding is an ERROR: warnings and performance observations do not
    gate.
    """

    violations: list[Violation]
    throughput: float | None = None
    source: str = "<memory>"
    checked: tuple[str, ...] = ()

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise PlanError(self.errors)

    def to_dict(self) -> dict:
        return {
            "format": "repro-plan-check/v1",
            "source": self.source,
            "ok": self.ok,
            "checked": list(self.checked),
            "violations": [v.to_dict() for v in self.violations],
            "throughput": self.throughput,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        if self.ok:
            lines = [f"plan ok ({', '.join(self.checked)} checked)"]
        else:
            lines = [f"plan rejected: {len(self.errors)} error(s)"]
        lines += [f"  [{v.severity}] {v}" for v in self.violations]
        if self.throughput is not None:
            lines.append(f"predicted throughput: {self.throughput:.4g} data sets/s")
        return "\n".join(lines)


def _geometry_in_scope(machine, total_procs) -> bool:
    """Geometry applies to the whole machine only, not to a partial one."""
    return machine is not None and total_procs in (None, machine.total_procs)


def _limits(machine, total_procs, mem_per_proc_mb):
    """The processor budget and per-processor memory, unset ones taken
    from ``machine``."""
    if machine is None:
        return total_procs, mem_per_proc_mb
    return (
        machine.total_procs if total_procs is None else total_procs,
        machine.mem_per_proc_mb if mem_per_proc_mb is None else mem_per_proc_mb,
    )


def preflight(
    chain: TaskChain | None,
    mapping: Mapping,
    total_procs: int | None = None,
    mem_per_proc_mb: float | None = None,
    machine=None,
) -> list[Violation]:
    """Every static check a mapping must pass before it may execute.

    Chain coverage, replication legality and each instance's minimum
    processor count — the tasks' ``min_procs`` floor and, when a memory
    limit is known, the memory footprint — when ``chain`` is known;
    processor budget (when ``total_procs`` is known); and machine geometry —
    rectangularity, packing and pathway caps via
    :func:`~repro.machine.feasibility.check_feasible` — when ``machine``
    is given and every other check passed.  ``machine`` also supplies
    the budget and memory limit left unset.  Geometry is skipped when
    ``total_procs`` overrides the machine's size: that is the
    partial-machine case, vetting a plan (e.g. a remap candidate) against
    the processors *surviving* after failures, which no longer form the
    preset's full grid.

    The ``simulate`` and :class:`~repro.core.remap.RemapPlanner` entry
    points run this and raise a structured
    :class:`~repro.core.exceptions.PlanError` instead of letting a bad
    plan surface as a mid-simulation deadlock or assert.
    """
    geometry = _geometry_in_scope(machine, total_procs)
    total_procs, mem_per_proc_mb = _limits(machine, total_procs, mem_per_proc_mb)
    violations: list[Violation] = []
    mchain = None
    if chain is not None:
        if mapping.ntasks != len(chain):
            # Module/task indices are meaningless past here.
            return [Violation(
                "structure",
                f"mapping covers {mapping.ntasks} tasks, chain "
                f"{chain.name!r} has {len(chain)}",
            )]
        mchain = build_module_chain(
            chain, mapping.clustering(),
            UNLIMITED_MEMORY_MB if mem_per_proc_mb is None else mem_per_proc_mb,
        )
        for i, (m, info) in enumerate(zip(mapping.modules, mchain.infos)):
            if m.replicas > 1 and not info.replicable:
                names = [t.name for t in m.tasks_of(chain)]
                violations.append(Violation(
                    "replication",
                    f"module {names} contains a non-replicable task but "
                    f"has {m.replicas} instances",
                    module=i,
                ))
    if total_procs is not None and mapping.total_procs > total_procs:
        violations.append(Violation(
            "budget",
            f"mapping uses {mapping.total_procs} processors, machine "
            f"has {total_procs}",
        ))
    if mchain is not None:
        for i, (spec, info) in enumerate(zip(mapping.modules, mchain.infos)):
            if spec.procs >= info.p_min:
                continue
            tasks = spec.tasks_of(chain)
            names = ",".join(t.name for t in tasks)
            if info.p_min == UNFIT:
                fixed, _ = chain.segment_memory(spec.start, spec.stop)
                why = (f"has a fixed footprint of {fixed} MB on every "
                       f"processor, over the {mem_per_proc_mb} MB "
                       f"per-processor memory")
            else:
                bound = ("its tasks' min_procs"
                         if info.p_min == max(t.min_procs for t in tasks)
                         else "its memory footprint")
                why = (f"needs >= {info.p_min} processors per instance for "
                       f"{bound}, has {spec.procs}")
            violations.append(Violation(
                "memory", f"module {{{names}}} {why}", module=i,
            ))
    if geometry and not violations:
        from ..machine.feasibility import check_feasible

        report = check_feasible(mapping, machine)
        if not report.feasible:
            violations.append(Violation("geometry", report.reason))
    return violations


def ensure_valid_plan(
    chain: TaskChain,
    mapping: Mapping,
    total_procs: int | None = None,
    mem_per_proc_mb: float | None = None,
) -> None:
    """Raise :class:`PlanError` (all violations at once) if the mapping
    fails :func:`preflight`."""
    violations = preflight(chain, mapping, total_procs, mem_per_proc_mb)
    if violations:
        raise PlanError(violations)


def diagnose(
    chain: TaskChain | None,
    mapping: Mapping,
    machine=None,
    mem_per_proc_mb: float | None = None,
    total_procs: int | None = None,
) -> PlanReport:
    """:func:`preflight`, then performance evaluation and smells; never
    raises for mapping problems — reports them.

    A plan that passes preflight is evaluated only when ``chain`` is
    known; ``checked`` then ends in ``"performance"`` and ``throughput``
    is set.  ``total_procs`` overrides the machine's processor count (the
    partial-machine case, see :func:`preflight`).
    """
    checked = ("preflight",)
    if _geometry_in_scope(machine, total_procs):
        checked += ("geometry",)
    violations = preflight(chain, mapping, total_procs, mem_per_proc_mb, machine)
    if violations or chain is None:
        return PlanReport(violations, checked=checked)
    total_procs, mem = _limits(machine, total_procs, mem_per_proc_mb)
    mchain = build_module_chain(
        chain, mapping.clustering(), UNLIMITED_MEMORY_MB if mem is None else mem
    )
    perf = evaluate_module_chain(
        mchain, [(m.procs, m.replicas) for m in mapping.modules]
    )

    # Performance smells.
    if total_procs is not None:
        idle = total_procs - mapping.total_procs
        if idle > max(2, total_procs // 8):
            violations.append(Violation(
                "idle", f"{idle} of {total_procs} processors are idle",
                Severity.WARNING,
            ))
    worst = max(perf.effective_responses)
    for i, (spec, resp) in enumerate(zip(mapping.modules, perf.effective_responses)):
        names = ",".join(t.name for t in spec.tasks_of(chain))
        if resp < 0.5 * worst:
            violations.append(Violation(
                "imbalance",
                f"module {{{names}}} runs at {resp / worst:.0%} of the "
                f"bottleneck response — processors could shift to module "
                f"{perf.bottleneck + 1}",
                Severity.INFO, module=i,
            ))
        info = mchain.infos[i]
        if info.replicable and spec.replicas == 1:
            r_max, s = split_replicas(spec.total_procs, info.p_min, True)
            if r_max > 1:
                violations.append(Violation(
                    "replication",
                    f"module {{{names}}} is replicable and could run "
                    f"{r_max} instances of {s} processors (§3.2 suggests "
                    f"replicating maximally)",
                    Severity.INFO, module=i,
                ))
    return PlanReport(violations, perf.throughput, checked=(*checked, "performance"))
