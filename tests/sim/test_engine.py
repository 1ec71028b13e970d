"""Unit tests for the DES kernel."""

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

    def test_until_stops_early(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == pytest.approx(2.0)
        assert sim.pending == 1

    def test_max_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        sim.run(max_events=3)
        assert log == [0, 1, 2]

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
        assert sim.pending == 1

    def test_stopped_run_resumes(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("a"), sim.stop()))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        end = sim.run()           # pending events survive a stop()
        assert log == ["a", "b"]
        assert end == pytest.approx(2.0)
        assert sim.pending == 0

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
    """`run()` must be resumable: `until=`, `max_events=` and `stop()` all
    leave the queue intact and a later `run()` picks up where it left off."""

    def test_until_leaves_queue_intact_and_second_run_continues(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, lambda t=t: log.append(t))
        sim.run(until=2.5)
        assert log == [1.0, 2.0]
        assert sim.pending == 2
        assert sim.now == pytest.approx(2.5)
        end = sim.run()
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert end == pytest.approx(4.0)
        assert sim.pending == 0

    def test_max_events_then_stop_interplay(self):
        # stop() fired by the very last event allowed by max_events must
        # not eat any further events, and the stopped flag must not leak
        # into the next run() call.
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: (log.append("b"), sim.stop()))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run(max_events=2)          # processes a, b; b also stops
        assert log == ["a", "b"]
        assert sim.pending == 1
        sim.run(max_events=0)          # a zero budget processes nothing
        assert log == ["a", "b"]
        sim.run()
        assert log == ["a", "b", "c"]

    def test_events_processed_accumulates_across_runs(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=2)
        assert sim.events_processed == 2
        sim.run(until=3.5)
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
