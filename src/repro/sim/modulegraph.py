"""The module graph a simulated mapping runs on.

Both engines read a mapping through one :class:`ModuleGraph`: per-module
execution phases and replica counts, plus an edge table giving each
external transfer's sender, receiver, base duration and label.  A module
instance receives over its in-edges, runs its phases, then sends over its
out-edges, each list in edge-table order.  That fixed global order keeps
a fork/join rendezvous pattern acyclic, so the blocking protocol cannot
deadlock.  A chain is the case where edge ``e`` joins module ``e`` to
module ``e + 1``; :func:`chain_graph` builds it, and
:mod:`repro.fjgraph` builds fork/join graphs with the same phase rule
(:func:`module_phases`).
"""

from __future__ import annotations

from ..core.mapping import Mapping, ModuleSpec
from ..core.task import TaskChain

__all__ = ["ModuleGraph", "chain_graph", "module_phases"]


class ModuleGraph:
    """Phases, replicas and edge table of one mapped module graph.

    ``phases[i]`` lists module ``i``'s ``(kind, label, base duration)``
    execution phases; ``edges`` lists ``(src, dst, base, label)`` per
    external edge.  The graph has one source (the module without
    in-edges, whose execution start is a data set's injection) and one
    ``sink`` (the module without out-edges, whose execution end is its
    completion).  ``hop`` (chains with a placement model only) holds the
    transfer slowdown ``hop[e][sender instance][receiver instance]``.
    """

    def __init__(self, phases: list, replicas: list[int], edges: list,
                 hop: list | None = None):
        self.phases = phases
        self.replicas = replicas
        self.edge_src = [e[0] for e in edges]
        self.edge_base = [e[2] for e in edges]
        self.edge_label = [e[3] for e in edges]
        self.in_edges: list[list[int]] = [[] for _ in phases]
        self.out_edges: list[list[int]] = [[] for _ in phases]
        for e, (src, dst, _, _) in enumerate(edges):
            self.out_edges[src].append(e)
            self.in_edges[dst].append(e)
        self.sink = next(i for i, out in enumerate(self.out_edges) if not out)
        self.hop = hop

    def __len__(self) -> int:
        return len(self.phases)


def module_phases(chain: TaskChain, m: ModuleSpec) -> list[tuple[str, str, float]]:
    """A module's execution phases at its instance size: each task, then
    the internal redistribution to the next task when it costs anything."""
    phases = []
    for t in range(m.start, m.stop + 1):
        task = chain.tasks[t]
        phases.append(("task", task.name, float(task.exec_cost(m.procs))))
        if t < m.stop:
            icom = float(chain.edges[t].icom(m.procs))
            if icom > 0:
                label = f"{task.name}->{chain.tasks[t + 1].name}"
                phases.append(("icom", label, icom))
    return phases


def chain_graph(chain: TaskChain, mapping: Mapping, placements=None,
                   hop_penalty: float = 0.0) -> ModuleGraph:
    """The chain's module graph under ``mapping``.

    ``placements`` (per-module instance rectangles) with ``hop_penalty``
    slows each transfer by ``1 + hop_penalty * manhattan_hops`` between
    the instance rectangles' centers — the "processor locations" effect
    §2.1 calls second order.
    """
    mods = mapping.modules
    edges = []
    for i in range(len(mods) - 1):
        a, b = mods[i], mods[i + 1]
        edges.append((
            i, i + 1, float(chain.edges[a.stop].ecom(a.procs, b.procs)),
            f"{chain.tasks[a.stop].name}->{chain.tasks[b.start].name}",
        ))
    hop = None
    if placements is not None and hop_penalty > 0.0:
        hop = []
        for e in range(len(edges)):
            rows = []
            for sr in placements[e]:
                row = []
                for rr in placements[e + 1]:
                    (ar, ac), (br, bc) = sr.center(), rr.center()
                    row.append(1.0 + hop_penalty * (abs(ar - br) + abs(ac - bc)))
                rows.append(row)
            hop.append(rows)
    return ModuleGraph([module_phases(chain, m) for m in mods],
                    [m.replicas for m in mods], edges, hop)
