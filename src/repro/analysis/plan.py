"""Static mapping-plan verifier.

A mapping produced offline (a saved JSON, a hand-written plan, a future
ILP/metaheuristic backend) is vetted here *without running the
simulator*: structural tiling (by :class:`~repro.core.mapping.ModuleSpec`
and :class:`~repro.core.mapping.Mapping` construction), everything
:func:`~repro.core.validate.preflight` owns (coverage, replication
legality, processor budget, memory minimums, machine geometry), and — for
degradation plans — deadlock-freedom of the ascending-queue
redistribution.

The deadlock check is the static image of the simulator's runtime
invariant (:meth:`repro.sim.pipeline._Run.reassign_or_drop`): an orphaned
data set may only move to a surviving instance that has not started a
larger data set (``high < dataset``).  Inserting behind a larger
in-flight data set breaks the ascending-queue invariant, and the blocking
rendezvous protocol then deadlocks — the downstream owner of the smaller
data set waits on a producer that is blocked sending the larger one.
The seed code only discovered such plans mid-simulation; this verifier
rejects them before anything executes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.exceptions import PlanError, Violation
from ..core.mapping import Mapping, ModuleSpec
from ..core.task import TaskChain
from ..core.validate import preflight

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.machine import MachineSpec

__all__ = [
    "QueueState",
    "Reassignment",
    "StaticPlan",
    "PlanReport",
    "load_plan",
    "verify_redistribution",
    "verify_plan",
]

_STAGES = ("recv", "exec", "send")


@dataclass(frozen=True)
class QueueState:
    """One module instance's queue position at redistribution time.

    ``high`` is the largest data-set index the instance has started
    (``-1`` when it has started nothing); ``alive`` is False for an
    instance lost to a processor failure.
    """

    module: int
    instance: int
    high: int = -1
    alive: bool = True

    @classmethod
    def from_dict(cls, d: dict) -> "QueueState":
        return cls(
            int(d["module"]), int(d["instance"]),
            int(d.get("high", -1)), bool(d.get("alive", True)),
        )


@dataclass(frozen=True)
class Reassignment:
    """Hand orphaned data set ``dataset`` (resuming at ``stage``) to
    instance ``instance`` of module ``module``."""

    module: int
    dataset: int
    stage: str
    instance: int

    @classmethod
    def from_dict(cls, d: dict) -> "Reassignment":
        return cls(
            int(d["module"]), int(d["dataset"]),
            str(d.get("stage", "exec")), int(d["instance"]),
        )


@dataclass
class StaticPlan:
    """A plan to verify: raw modules plus whatever context is known.

    ``modules`` and ``redistribution`` (``{"queues": [...], "moves":
    [...]}``, the dict forms of :class:`QueueState` and
    :class:`Reassignment`) stay raw, so malformed entries are *reported*
    by :func:`verify_plan` rather than thrown while loading.  Unset
    ``total_procs`` and ``mem_per_proc_mb`` come from ``machine``.
    """

    modules: list[dict]
    chain: TaskChain | None = None
    machine: "MachineSpec | None" = None
    total_procs: int | None = None
    mem_per_proc_mb: float | None = None
    redistribution: dict = field(default_factory=dict)
    source: str = "<memory>"

    @classmethod
    def from_dict(cls, payload: dict, source: str = "<dict>") -> "StaticPlan":
        """Build from a persisted JSON payload.

        Accepts the three on-disk kinds: ``mapping`` (from
        :func:`~repro.tools.persist.save_mapping`), ``plan`` (from
        :func:`~repro.tools.persist.save_plan_summary`, which embeds the
        fitted chain and machine name), and ``plan-check`` (the explicit
        verifier format, optionally carrying a redistribution section).
        """
        kind = payload.get("kind", "plan-check")
        if kind == "mapping":
            modules = payload.get("modules", [])
            chain = None
        else:
            modules = payload.get("mapping", {}).get("modules", [])
            chain_d = payload.get("fitted_chain") or payload.get("chain")
            chain = TaskChain.from_dict(chain_d) if chain_d else None
        return cls(
            modules=list(modules), chain=chain,
            machine=_resolve_machine(payload.get("machine"), source),
            total_procs=payload.get("total_procs"),
            mem_per_proc_mb=payload.get("mem_per_proc_mb"),
            redistribution=payload.get("redistribution") or {},
            source=source,
        )


def _resolve_machine(name, source: str):
    """Preset lookup tolerant of both CLI keys and spec names."""
    if name is None or not isinstance(name, str):
        return name                      # already a MachineSpec (or absent)
    from ..machine import PRESETS, by_name

    specs = {key: by_name(key) for key in PRESETS}
    for key, spec in specs.items():
        if name in (key, spec.name):
            return spec
    raise ValueError(
        f"{source}: unknown machine {name!r}; known presets: "
        f"{sorted(specs)} (spec names {sorted(m.name for m in specs.values())})"
    )


@dataclass
class PlanReport:
    """Every violation the static verifier found."""

    violations: list[Violation]
    source: str = "<memory>"
    checked: tuple[str, ...] = ()        # which check families ran

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            raise PlanError(self.violations)

    def to_dict(self) -> dict:
        return {
            "format": "repro-plan-check/v1",
            "source": self.source,
            "ok": self.ok,
            "checked": list(self.checked),
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        if self.ok:
            return (
                f"plan ok ({', '.join(self.checked)} checked)"
            )
        lines = [f"plan rejected: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Check families
# ---------------------------------------------------------------------------


def verify_redistribution(
    replicas: list[int],
    queues: list[QueueState],
    moves: list[Reassignment],
) -> list[Violation]:
    """Deadlock-freedom of a proposed ascending-queue redistribution.

    ``replicas`` is the per-module instance count of the mapping the
    stream is degrading under.  Every move must target a *surviving*
    instance whose high-water mark is below the moved data set; anything
    else either loses the data set (dead target — downstream waits
    forever) or breaks queue ascent (the rendezvous cycle described in
    the module docstring).
    """
    v: list[Violation] = []
    state: dict[tuple[int, int], QueueState] = {}
    for q in queues:
        if not 0 <= q.module < len(replicas):
            v.append(
                Violation(
                    "structure",
                    f"queue state names module {q.module}; the mapping has "
                    f"{len(replicas)} modules", module=q.module,
                )
            )
            continue
        if not 0 <= q.instance < replicas[q.module]:
            v.append(
                Violation(
                    "structure",
                    f"queue state names instance {q.instance} of module "
                    f"{q.module}, which has {replicas[q.module]} instances",
                    module=q.module,
                )
            )
            continue
        state[(q.module, q.instance)] = q
    highs = {key: q.high for key, q in state.items()}
    seen: dict[tuple[int, int], Reassignment] = {}
    for mv in moves:
        if mv.stage not in _STAGES:
            v.append(
                Violation(
                    "structure",
                    f"unknown resume stage {mv.stage!r} for data set "
                    f"{mv.dataset} (expected one of {_STAGES})",
                    module=mv.module,
                )
            )
        if not 0 <= mv.module < len(replicas) or (
            not 0 <= mv.instance < replicas[mv.module]
        ):
            v.append(
                Violation(
                    "structure",
                    f"move of data set {mv.dataset} targets instance "
                    f"{mv.instance} of module {mv.module}, which does not "
                    f"exist in the mapping", module=mv.module,
                )
            )
            continue
        key = (mv.module, mv.dataset)
        if key in seen:
            v.append(
                Violation(
                    "deadlock",
                    f"data set {mv.dataset} is assigned to two instances of "
                    f"module {mv.module}: both would arrive at the same "
                    f"rendezvous and the duplicate blocks forever",
                    module=mv.module,
                )
            )
            continue
        seen[key] = mv
        target = (mv.module, mv.instance)
        q = state.get(target)
        if q is not None and not q.alive:
            v.append(
                Violation(
                    "deadlock",
                    f"data set {mv.dataset} moves to dead instance "
                    f"{mv.instance} of module {mv.module}: it would never "
                    f"be produced and every downstream consumer of it "
                    f"blocks", module=mv.module,
                )
            )
            continue
        high = highs.get(target, -1)
        if mv.dataset <= high:
            v.append(
                Violation(
                    "deadlock",
                    f"data set {mv.dataset} moves to instance {mv.instance} "
                    f"of module {mv.module} whose queue already started "
                    f"data set {high}: inserting behind a larger in-flight "
                    f"data set breaks the ascending-queue invariant and "
                    f"deadlocks the blocking rendezvous", module=mv.module,
                )
            )
            continue
        highs[target] = mv.dataset
    return v


def _parse_redistribution(
    redist: dict,
) -> tuple[list[QueueState], list[Reassignment], list[Violation]]:
    """Queue states and moves of a raw redistribution section; each
    malformed entry becomes a ``structure`` violation."""
    parsed: dict[str, list] = {"queues": [], "moves": []}
    bad: list[Violation] = []
    for key, parse in (("queues", QueueState.from_dict), ("moves", Reassignment.from_dict)):
        for i, entry in enumerate(redist.get(key, [])):
            try:
                parsed[key].append(parse(entry))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                bad.append(Violation(
                    "structure",
                    f"redistribution {key} entry {i} is malformed: {exc!r}",
                ))
    return parsed["queues"], parsed["moves"], bad


def verify_plan(plan: StaticPlan) -> PlanReport:
    """Run every applicable check family over a plan.

    Structure first: each raw module is parsed with
    :meth:`ModuleSpec.from_dict` and the list with :class:`Mapping`,
    which report every bad field, gap and overlap (nothing else is
    meaningful on a broken tiling).  Then
    :func:`~repro.core.validate.preflight` — coverage, replication,
    budget, memory, and geometry when a machine is in scope — and the
    redistribution.
    """
    checked = ["structure"]
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
        return PlanReport(violations, source=plan.source, checked=tuple(checked))

    checked.append("preflight")
    if plan.machine is not None and plan.total_procs in (None, plan.machine.total_procs):
        checked.append("geometry")
    violations = preflight(
        plan.chain, mapping, plan.total_procs, plan.mem_per_proc_mb, plan.machine
    )
    if plan.redistribution:
        checked.append("redistribution")
        queues, moves, bad = _parse_redistribution(plan.redistribution)
        violations += bad + verify_redistribution(
            [m.replicas for m in mapping.modules], queues, moves
        )
    return PlanReport(violations, source=plan.source, checked=tuple(checked))


def load_plan(path: str | Path) -> StaticPlan:
    """Read a plan from any of the persisted JSON kinds."""
    path = Path(path)
    payload = json.loads(path.read_text())
    kind = payload.get("kind")
    if kind not in ("mapping", "plan", "plan-check"):
        raise ValueError(
            f"{path}: expected kind 'mapping', 'plan' or 'plan-check', "
            f"found {kind!r}"
        )
    return StaticPlan.from_dict(payload, source=str(path))
