"""Discrete-event simulation kernel.

A minimal, deterministic event-driven core: a clock, a priority queue of
(time, sequence, callback) events, and a run loop.  Determinism matters —
two runs with the same seed must produce identical traces — so ties are
broken by insertion order, never by callback identity.

Events live in a ``heapq`` binary heap keyed on ``(time, sequence)``:
O(log n) push/pop with a C inner loop, the right structure for the small
pending sets a pipeline run keeps (a handful of in-flight phase and
transfer completions).
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..core.exceptions import SimulationError

__all__ = ["Simulator"]

#: An event is (time, sequence, callback).  Comparisons never reach the
#: callback because the sequence number is unique.
_Event = tuple  # (float, int, Callable[[], None])


class Simulator:
    """An event queue with a clock."""

    def __init__(self):
        self._heap: list[_Event] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self._stopped = False

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} seconds into the past")
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute time (>= now).

        The event is queued at ``time`` itself — not ``now + (time - now)``,
        whose round-trip through a relative delay can land one ulp away from
        the requested instant — so absolute timestamps (fault scripts,
        epoch boundaries) fire exactly where they were written.  A ``time``
        within one epsilon *below* the clock is accepted and fires
        immediately at ``now`` rather than raising a spurious "past" error.
        """
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time}: clock is already at {self.now}"
            )
        heapq.heappush(self._heap, (max(time, self.now), self._seq, callback))
        self._seq += 1

    def stop(self) -> None:
        """Halt the run loop after the current event.

        Pending events stay queued; a subsequent :meth:`run` resumes them.
        Used by the fault-tolerant pipeline to freeze a stream the moment a
        remap becomes necessary.
        """
        self._stopped = True

    def run(self) -> float:
        """Process events in time order until the queue empties or a
        callback invokes :meth:`stop`.  Returns the final clock value.

        The loop is the engine's hot path: it pops through a local
        ``heappop``, tracks the clock in a local (callbacks read
        :attr:`now` but never set it) and counts events in a local that
        reaches :attr:`events_processed` once, when the loop exits — also
        when a callback raises, in which case that event is not counted.
        """
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        now = self.now
        n = 0
        try:
            while heap and not self._stopped:
                time, _, callback = pop(heap)
                if time < now - 1e-12:
                    raise SimulationError("event queue corrupted: time went backwards")
                if time > now:
                    self.now = now = time
                callback()
                n += 1
        finally:
            self.events_processed += n
        return self.now
