"""Fork/join pipelines — an extension beyond the paper's linear chains.

The paper restricts programs to linear task chains, linearising even its
own motivating example (multibaseline stereo really forks over camera
images).  This package extends the model to *non-nested fork/join*
pipelines: a top-level series of stages, where a stage is either a single
task or a parallel section whose branches are linear chains processing the
same data set concurrently.

Semantics stay the paper's: every module occupies its processors for its
whole response; a fork module sends to each branch head in turn (the
transfers serialise at the sender), a join receives from each branch tail
in turn; replication round-robins data sets.  The evaluator, greedy
mapper and brute-force oracle implement these semantics, and
:func:`~repro.fjgraph.simulate_fj` runs them on the chain simulator's
event engine; the test suite cross-checks them.

Limitations (documented, asserted): parallel sections do not nest, and
modules never span a fork or join boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.exceptions import InvalidChainError
from ..core.task import Edge, Task, TaskChain

__all__ = ["ParallelSection", "FJGraph", "Segment"]


@dataclass
class ParallelSection:
    """A parallel stage: ``branches[b]`` is a linear chain of tasks, all
    fed by the preceding stage and drained by the following one.

    ``fork_edges[b]`` carries the communication from the preceding stage
    into branch ``b``'s head; ``join_edges[b]`` from branch ``b``'s tail
    into the following stage; ``branch_edges[b]`` the edges inside branch
    ``b`` (length ``len(branches[b]) - 1``).
    """

    branches: list[list[Task]]
    fork_edges: list[Edge]
    join_edges: list[Edge]
    branch_edges: list[list[Edge]] = field(default_factory=list)

    def __post_init__(self):
        if len(self.branches) < 2:
            raise InvalidChainError("a parallel section needs >= 2 branches")
        if not self.branch_edges:
            self.branch_edges = [
                [Edge() for _ in range(len(b) - 1)] for b in self.branches
            ]
        if len(self.fork_edges) != len(self.branches):
            raise InvalidChainError("need one fork edge per branch")
        if len(self.join_edges) != len(self.branches):
            raise InvalidChainError("need one join edge per branch")
        for b, (tasks, edges) in enumerate(zip(self.branches, self.branch_edges)):
            if not tasks:
                raise InvalidChainError(f"branch {b} is empty")
            if len(edges) != len(tasks) - 1:
                raise InvalidChainError(
                    f"branch {b} needs {len(tasks) - 1} edges, got {len(edges)}"
                )


@dataclass
class Segment:
    """One linear run of tasks in the flattened graph.

    ``role`` is ``"series"`` for a top-level run or ``"branch"`` for one
    branch of a parallel section; ``section``/``branch`` locate branch
    segments.  ``tasks``/``edges`` are the run's chain pieces.
    """

    role: str
    tasks: list[Task]
    edges: list[Edge]
    section: int = -1
    branch: int = -1

    def as_chain(self, name: str) -> TaskChain:
        return TaskChain(self.tasks, self.edges, name=name)


class FJGraph:
    """A fork/join pipeline: an alternating series of task runs and
    parallel sections.

    ``stages`` is a list whose elements are :class:`~repro.core.Task`,
    :class:`~repro.core.Edge` (between two adjacent series tasks), or
    :class:`ParallelSection`.  Edges around a parallel section live inside
    the section (``fork_edges`` / ``join_edges``); a section must therefore
    be directly preceded and followed by a task.
    """

    def __init__(self, stages: list, name: str = "fj"):
        self.name = name
        self.segments: list[Segment] = []
        self.sections: list[ParallelSection] = []
        #: for each section index: (segment index feeding the fork,
        #: segment index draining the join)
        self.section_neighbours: list[tuple[int, int]] = []

        current_tasks: list[Task] = []
        current_edges: list[Edge] = []
        pending_edge = False
        for item in stages:
            if isinstance(item, Task):
                if current_tasks and not pending_edge:
                    current_edges.append(Edge())
                current_tasks.append(item)
                pending_edge = False
            elif isinstance(item, Edge):
                if not current_tasks or pending_edge:
                    raise InvalidChainError("an edge must follow a task")
                current_edges.append(item)
                pending_edge = True
            elif isinstance(item, ParallelSection):
                if pending_edge:
                    raise InvalidChainError(
                        "edges around a parallel section belong to the section"
                    )
                if not current_tasks:
                    raise InvalidChainError(
                        "a parallel section must follow a task"
                    )
                self._close_series(current_tasks, current_edges)
                current_tasks, current_edges = [], []
                before = len(self.segments) - 1
                sec_idx = len(self.sections)
                self.sections.append(item)
                for b, (tasks, edges) in enumerate(
                    zip(item.branches, item.branch_edges)
                ):
                    self.segments.append(
                        Segment("branch", list(tasks), list(edges),
                                section=sec_idx, branch=b)
                    )
                self.section_neighbours.append((before, -1))  # join fixed below
            else:
                raise InvalidChainError(f"unsupported stage {item!r}")
        if pending_edge:
            raise InvalidChainError("trailing edge without a following task")
        if not current_tasks:
            raise InvalidChainError(
                "the pipeline must end with a task after any parallel section"
            )
        self._close_series(current_tasks, current_edges)

        # Fix up join neighbours: the series segment created right after a
        # section's branches drains its join.
        fixed = []
        for sec_idx, (before, _) in enumerate(self.section_neighbours):
            after = None
            for i, seg in enumerate(self.segments):
                if seg.role == "series" and i > before:
                    # first series segment after this section's branches
                    branch_idxs = [
                        j for j, s in enumerate(self.segments)
                        if s.role == "branch" and s.section == sec_idx
                    ]
                    if i > max(branch_idxs):
                        after = i
                        break
            if after is None:
                raise InvalidChainError("parallel section has no join stage")
            fixed.append((before, after))
        self.section_neighbours = fixed

        names = [t.name for seg in self.segments for t in seg.tasks]
        if len(set(names)) != len(names):
            raise InvalidChainError(f"duplicate task names: {names}")

    def _close_series(self, tasks: list[Task], edges: list[Edge]) -> None:
        if tasks:
            self.segments.append(Segment("series", list(tasks), list(edges)))

    # -- introspection ----------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return sum(len(seg.tasks) for seg in self.segments)

    def task_names(self) -> list[str]:
        return [t.name for seg in self.segments for t in seg.tasks]

    def __repr__(self):
        parts = []
        for seg in self.segments:
            names = ",".join(t.name for t in seg.tasks)
            parts.append(f"[{names}]" if seg.role == "series" else f"({names})")
        return f"FJGraph({self.name!r}: {' '.join(parts)})"
