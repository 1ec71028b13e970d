"""Plan checks: the legality rules a mapping must meet, and the linter.

:func:`preflight` is the one owner of the paper's legality rules (§2.2,
§3.2): the modules cover the chain, only replicable segments get
``r > 1``, the processor total fits the budget, each instance meets its
memory minimum, and — with a machine in scope — the modules fit its
geometry.  :func:`ensure_valid_plan` raises on its findings;
:func:`diagnose` adds performance evaluation and smells (idle
processors, a module starving the bottleneck, replication left on the
table).  The CLI's ``check`` command wraps ``diagnose``, so a mapping
produced elsewhere (a saved JSON, a hand-written one) can be vetted
before deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exceptions import InfeasibleError, InvalidMappingError, PlanError, Severity, Violation
from .mapping import Mapping
from .replication import split_replicas
from .response import build_module_chain, evaluate_module_chain
from .task import TaskChain

__all__ = [
    "Diagnosis",
    "diagnose",
    "preflight",
    "ensure_valid_plan",
]


@dataclass
class Diagnosis:
    violations: list[Violation]
    throughput: Optional[float]          # None when the mapping cannot run

    @property
    def ok(self) -> bool:
        return not any(v.severity is Severity.ERROR for v in self.violations)

    def render(self) -> str:
        lines = [f"[{v.severity}] {v}" for v in self.violations]
        if self.throughput is not None:
            lines.append(f"predicted throughput: {self.throughput:.4g} data sets/s")
        if not self.violations:
            lines.insert(0, "no findings")
        return "\n".join(lines)


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

    Chain coverage and replication legality (when ``chain`` is known),
    processor budget (when ``total_procs`` is known), per-module memory
    minimums (when a memory limit is known), and machine geometry —
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
    geometry = machine is not None and total_procs in (None, machine.total_procs)
    total_procs, mem_per_proc_mb = _limits(machine, total_procs, mem_per_proc_mb)
    violations: list[Violation] = []
    if chain is not None:
        if mapping.ntasks != len(chain):
            # Module/task indices are meaningless past here.
            return [Violation(
                "structure",
                f"mapping covers {mapping.ntasks} tasks, chain "
                f"{chain.name!r} has {len(chain)}",
            )]
        for i, m in enumerate(mapping.modules):
            if m.replicas > 1 and not chain.segment_replicable(m.start, m.stop):
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
    if chain is not None and mem_per_proc_mb not in (None, float("inf")):
        mchain = build_module_chain(chain, mapping.clustering(), mem_per_proc_mb)
        for i, (spec, info) in enumerate(zip(mapping.modules, mchain.infos)):
            if spec.procs < info.p_min:
                names = ",".join(t.name for t in spec.tasks_of(chain))
                violations.append(Violation(
                    "memory",
                    f"module {{{names}}} needs >= {info.p_min} "
                    f"processors per instance for its memory footprint, "
                    f"has {spec.procs}",
                    module=i,
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
    chain: TaskChain,
    mapping: Mapping,
    machine=None,
    mem_per_proc_mb: float | None = None,
    total_procs: int | None = None,
) -> Diagnosis:
    """:func:`preflight`, then performance evaluation and smells; never
    raises for mapping problems — reports them.

    ``total_procs`` overrides the machine's processor count (the
    partial-machine case, see :func:`preflight`).
    """
    violations = preflight(chain, mapping, total_procs, mem_per_proc_mb, machine)
    if violations:
        return Diagnosis(violations, None)
    total_procs, mem = _limits(machine, total_procs, mem_per_proc_mb)
    mchain = build_module_chain(
        chain, mapping.clustering(), float("inf") if mem is None else mem
    )
    try:
        perf = evaluate_module_chain(
            mchain, [(m.procs, m.replicas) for m in mapping.modules]
        )
    except (InfeasibleError, InvalidMappingError) as exc:
        return Diagnosis([Violation("evaluate", str(exc))], None)

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
    return Diagnosis(violations, perf.throughput)
