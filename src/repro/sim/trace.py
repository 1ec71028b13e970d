"""Execution traces: the raw material for profiling (§5) and for
regenerating the paper's Figure 2 (the pipelined execution timeline)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["TraceEvent", "TraceLog", "render_gantt"]

#: Event kinds recorded by the pipeline simulator.  ``fault`` marks the
#: wasted window of a transient-communication retry, ``fail`` a processor
#: failure (zero-width), and ``remap`` the downtime of a DP-driven remap.
KINDS = ("recv", "task", "icom", "send", "fault", "fail", "remap")


@dataclass(frozen=True)
class TraceEvent:
    """One busy interval of one module instance.

    ``kind`` is ``recv``/``send`` for external transfers (both endpoints
    record the same interval), ``task`` for one task's execution slice, and
    ``icom`` for an internal redistribution inside a module.  ``label``
    names the task or edge involved.
    """

    module: int
    instance: int
    kind: str
    label: str
    dataset: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceLog:
    """An append-only list of trace events with query helpers.

    The event engine writes to any *recorder*: an object with this
    class's :meth:`add` method.  ``TraceLog`` is the recorder that keeps
    every interval as a :class:`TraceEvent`; the §5 profiler passes one
    that keeps only durations (``repro.estimate.profiler``).
    """

    def __init__(self):
        self.events: list[TraceEvent] = []

    def add(self, module: int, instance: int, kind: str, label: str,
            dataset: int, start: float, end: float) -> None:
        """Record one busy interval."""
        self.events.append(
            TraceEvent(module, instance, kind, label, dataset, start, end))

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def for_module(self, module: int) -> list[TraceEvent]:
        return [e for e in self.events if e.module == module]

    def for_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def task_durations(self, label: str) -> list[float]:
        """Durations of every execution slice of the named task."""
        return [e.duration for e in self.events if e.kind == "task" and e.label == label]

    def comm_durations(self, label: str, kind: str = "recv") -> list[float]:
        """Durations of transfers over the named edge (each transfer is
        recorded once per endpoint; ``recv`` selects one endpoint)."""
        return [e.duration for e in self.events if e.kind == kind and e.label == label]

    def dumps(self) -> str:
        """Canonical byte-stable text form of the log.

        One line per event, fields separated by tabs, floats via ``repr``
        (shortest round-trip, platform-independent) — two runs are
        byte-identical iff their event streams are.  Backs the golden-trace
        determinism tests and the ``--dump`` CLI option.
        """
        lines = [
            f"{e.module}\t{e.instance}\t{e.kind}\t{e.label}\t{e.dataset}"
            f"\t{float(e.start)!r}\t{float(e.end)!r}"
            for e in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def busy_fraction(self, module: int, instance: int, horizon: float) -> float:
        busy = sum(
            e.duration
            for e in self.events
            if e.module == module and e.instance == instance
        )
        return busy / horizon if horizon > 0 else 0.0


def render_gantt(
    log: TraceLog,
    width: int = 78,
    until: float | None = None,
    datasets: Iterable[int] | None = None,
) -> str:
    """ASCII Gantt chart of the trace (regenerates Figure 2's shape).

    One row per module instance; execution slices print the data-set number
    (mod 10), transfers print ``<``/``>`` for recv/send and ``.`` for
    internal redistribution.
    """
    events = list(log.events)
    if datasets is not None:
        chosen = set(datasets)
        events = [e for e in events if e.dataset in chosen]
    if not events:
        return "(empty trace)"
    t_end = until if until is not None else max(e.end for e in events)
    if t_end <= 0:
        return "(empty trace)"
    lanes = sorted({(e.module, e.instance) for e in events})
    scale = (width - 12) / t_end
    lines = []
    for module, inst in lanes:
        row = [" "] * (width - 12)
        for e in events:
            if (e.module, e.instance) != (module, inst) or e.start >= t_end:
                continue
            a = int(e.start * scale)
            b = max(a + 1, int(min(e.end, t_end) * scale))
            if e.kind == "task":
                ch = str(e.dataset % 10)
            elif e.kind == "recv":
                ch = "<"
            elif e.kind == "send":
                ch = ">"
            elif e.kind in ("fault", "fail", "remap"):
                ch = "x"
            else:
                ch = "."
            for x in range(a, min(b, len(row))):
                row[x] = ch
        lines.append(f"m{module}.{inst:<2d} |{''.join(row)}|")
    header = f"time 0 .. {t_end:.4g}s   (digits: dataset exec, </>: transfer, .: redistribution)"
    return header + "\n" + "\n".join(lines)
