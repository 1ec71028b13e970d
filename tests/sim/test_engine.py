"""Unit tests for the DES kernel."""

from heapq import heappush

import pytest

from repro.core import SimulationError
from repro.sim import Simulator


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        end = sim.run()
        assert log == ["a", "b", "c"]
        assert end == pytest.approx(3.0)

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(0.5, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [pytest.approx(1.0), pytest.approx(1.5)]

    def test_schedule_at(self):
        sim = Simulator()
        hit = []
        sim.schedule_at(4.0, lambda: hit.append(sim.now))
        sim.run()
        assert hit == [pytest.approx(4.0)]

    def test_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_counts_events(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_run_on_empty_queue(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.now == 0.0
        assert sim.events_processed == 0

    def test_stop_halts_after_current_event(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("a"), sim.stop()))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a"]
        assert sim.now == pytest.approx(1.0)

    def test_stopped_run_resumes(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("a"), sim.stop()))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        end = sim.run()           # pending events survive a stop()
        assert log == ["a", "b"]
        assert end == pytest.approx(2.0)

    def test_simultaneous_failure_ties_break_by_insertion(self):
        # Two "failures" at the same instant must fire in schedule order
        # so fault injection stays deterministic across runs.
        sim = Simulator()
        log = []
        sim.schedule_at(5.0, lambda: log.append("fail-A"))
        sim.schedule_at(5.0, lambda: log.append("fail-B"))
        sim.schedule_at(5.0, lambda: log.append("work"))
        sim.run()
        assert log == ["fail-A", "fail-B", "work"]

    def test_stop_then_new_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(3.0, lambda: log.append("late"))
        sim.run()
        sim.schedule(1.0, lambda: log.append("new"))  # now = 1.0 -> fires at 2.0
        sim.run()
        assert log == ["new", "late"]


class TestRunResume:
    """`run()` must be resumable: `stop()` leaves the queue intact and a
    later `run()` picks up where it left off."""

    def test_events_processed_accumulates_across_runs(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), sim.stop if i in (1, 3) else lambda: None)
        sim.run()
        assert sim.events_processed == 2
        sim.run()
        assert sim.events_processed == 4
        sim.run()
        assert sim.events_processed == 6

    def test_schedule_at_is_exact_and_tolerates_clock_epsilon(self):
        # The absolute time goes into the queue verbatim — no now +
        # (time - now) round trip, which for t=0.1 at now=0.3 lands one
        # ulp off — and a target an epsilon below `now` fires at `now`
        # instead of raising.
        sim = Simulator()
        hits = []
        sim.schedule(0.3, lambda: sim.schedule_at(0.7, lambda: hits.append(sim.now)))
        sim.run()
        assert hits == [0.7]           # bitwise, not approx
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)   # clearly in the past
        sim.schedule_at(sim.now - 1e-15, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [0.7, 0.7]

    def test_an_event_before_the_clock_is_refused(self):
        # schedule() and schedule_at() never queue an event in the past,
        # so only a corrupted heap can: the loop refuses one a microsecond
        # before the clock instead of running it and moving time back.
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(sim.now))
        sim.run()
        heappush(sim._heap, (sim.now - 1e-6, sim._seq, lambda: hits.append(0)))
        with pytest.raises(SimulationError, match="time went backwards"):
            sim.run()
        assert hits == [1.0] and sim.now == 1.0
