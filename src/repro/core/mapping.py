"""Mappings: clustering + replication + processor allocation (paper §2.2).

A *mapping* of a chain of ``k`` tasks is a list of modules.  Following the
paper, each module ``M(i)`` is a triplet ``(T, r, p)``: a contiguous
subsequence of tasks ``T``, a replication count ``r``, and ``p`` processors
per instance.  Instances of one module process alternate data sets on
disjoint processor groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .exceptions import InvalidMappingError, PlanError, Violation
from .task import TaskChain

__all__ = [
    "ModuleSpec",
    "Mapping",
    "all_clusterings",
    "singleton_clustering",
    "clustering_from_boundaries",
]


@dataclass(frozen=True)
class ModuleSpec:
    """One module of a mapping: tasks ``start..stop`` (inclusive), ``replicas``
    instances with ``procs`` processors each."""

    start: int
    stop: int
    procs: int
    replicas: int = 1

    def __post_init__(self):
        if self.start < 0 or self.stop < self.start or self.procs < 1 or self.replicas < 1:
            raise PlanError(
                Violation("structure", message)
                for bad, message in (
                    (self.start < 0 or self.stop < self.start,
                     f"bad module span [{self.start}, {self.stop}]"),
                    (self.procs < 1, "module needs at least one processor "
                     f"per instance, has {self.procs}"),
                    (self.replicas < 1, "module needs at least one instance, "
                     f"has {self.replicas}"),
                )
                if bad
            )

    @property
    def ntasks(self) -> int:
        return self.stop - self.start + 1

    @property
    def total_procs(self) -> int:
        return self.procs * self.replicas

    def tasks_of(self, chain: TaskChain) -> list:
        return chain.segment_tasks(self.start, self.stop)

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "stop": self.stop,
            "procs": self.procs,
            "replicas": self.replicas,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModuleSpec":
        try:
            return cls(
                int(d["start"]), int(d["stop"]), int(d["procs"]),
                int(d.get("replicas", 1)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PlanError(
                [Violation("structure", f"module entry is malformed: {exc!r}")]
            ) from None


class Mapping:
    """An ordered list of modules covering a chain exactly once."""

    def __init__(self, modules: Sequence[ModuleSpec]):
        if not modules:
            raise PlanError(
                [Violation("structure", "a mapping needs at least one module")]
            )
        mods = sorted(modules, key=lambda m: m.start)
        pos = 0
        for m in mods:
            if m.start != pos:
                raise PlanError(_tiling_problems(mods))
            pos = m.stop + 1
        self.modules = mods

    # -- container protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self) -> Iterator[ModuleSpec]:
        return iter(self.modules)

    def __getitem__(self, i: int) -> ModuleSpec:
        return self.modules[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mapping) and self.modules == other.modules

    def __hash__(self):
        return hash(tuple(self.modules))

    def __repr__(self):
        inner = ", ".join(
            f"[{m.start}..{m.stop}]x{m.replicas}@{m.procs}p" for m in self.modules
        )
        return f"Mapping({inner})"

    # -- properties --------------------------------------------------------
    @property
    def ntasks(self) -> int:
        return self.modules[-1].stop + 1

    @property
    def total_procs(self) -> int:
        return sum(m.total_procs for m in self.modules)

    def clustering(self) -> tuple[tuple[int, int], ...]:
        """The clustering decision alone: tuple of (start, stop) spans."""
        return tuple((m.start, m.stop) for m in self.modules)

    def module_of_task(self, task_index: int) -> int:
        """Index of the module containing task ``task_index``."""
        for i, m in enumerate(self.modules):
            if m.start <= task_index <= m.stop:
                return i
        raise InvalidMappingError(f"task {task_index} outside mapping")

    # -- serialisation --------------------------------------------------------
    def to_dict(self) -> dict:
        return {"modules": [m.to_dict() for m in self.modules]}

    @classmethod
    def from_dict(cls, d: dict) -> "Mapping":
        return cls([ModuleSpec.from_dict(m) for m in d["modules"]])


def _tiling_problems(mods: list[ModuleSpec]) -> list[Violation]:
    """Every gap and overlap in modules sorted by start (failure path of
    :class:`Mapping` construction only)."""
    problems, pos = [], 0
    for m in mods:
        if m.start > pos:
            problems.append(Violation(
                "structure", f"non-contiguous clustering: tasks {pos}.."
                f"{m.start - 1} belong to no module",
            ))
        elif m.start < pos:
            problems.append(
                Violation("structure", f"modules overlap at task {m.start}")
            )
        pos = max(pos, m.stop + 1)
    return problems


# ---------------------------------------------------------------------------
# Clustering enumeration
# ---------------------------------------------------------------------------


def singleton_clustering(k: int) -> tuple[tuple[int, int], ...]:
    """Every task its own module."""
    return tuple((i, i) for i in range(k))


def clustering_from_boundaries(k: int, boundaries: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Build a clustering from the set of cut positions.

    ``boundaries`` holds the indices ``b`` such that there is a module break
    between task ``b`` and task ``b+1`` (``0 <= b < k-1``).
    """
    cuts = sorted(set(boundaries))
    if any(b < 0 or b >= k - 1 for b in cuts):
        raise InvalidMappingError(f"boundary out of range for chain of {k}")
    spans = []
    start = 0
    for b in cuts:
        spans.append((start, b))
        start = b + 1
    spans.append((start, k - 1))
    return tuple(spans)


def all_clusterings(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield all ``2**(k-1)`` contiguous clusterings of a chain of ``k`` tasks.

    The paper's footnote to §4.2 notes exhaustive clustering is feasible for
    small ``k``; this enumerator backs the provably-optimal solver and the
    test oracles.
    """
    for mask in range(1 << (k - 1)):
        cuts = [b for b in range(k - 1) if mask & (1 << b)]
        yield clustering_from_boundaries(k, cuts)
