"""Tests for the event queue, cycle calendar and simulation loop."""

import pytest

from repro.util.events import CycleCalendar, EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.schedule(5, lambda: fired.append("late"))
        q.schedule(1, lambda: fired.append("early"))
        for e in q.pop_due(10):
            e.action()
        assert fired == ["early", "late"]

    def test_same_time_insertion_order(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule(3, lambda i=i: fired.append(i))
        for e in q.pop_due(3):
            e.action()
        assert fired == [0, 1, 2, 3, 4]

    def test_pop_due_respects_now(self):
        q = EventQueue()
        q.schedule(2, lambda: None)
        q.schedule(8, lambda: None)
        assert len(q.pop_due(5)) == 1
        assert len(q) == 1

    def test_cancelled_events_do_not_fire(self):
        q = EventQueue()
        fired = []
        handle = q.schedule(1, lambda: fired.append("a"))
        handle.cancel()
        assert q.pop_due(5) == []
        assert fired == []

    def test_next_time_skips_cancelled(self):
        q = EventQueue()
        first = q.schedule(1, lambda: None)
        q.schedule(4, lambda: None)
        first.cancel()
        assert q.next_time() == 4

    def test_next_time_empty(self):
        assert EventQueue().next_time() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1, lambda: None)


class TestCycleCalendar:
    def test_run_due_runs_everything_at_or_before(self):
        cal = CycleCalendar()
        fired = []
        cal.schedule(3, lambda: fired.append(3))
        cal.schedule(1, lambda: fired.append(1))
        cal.schedule(7, lambda: fired.append(7))
        cal.run_due(5)
        assert fired == [1, 3]
        assert len(cal) == 1
        cal.run_due(7)
        assert fired == [1, 3, 7]
        assert not cal

    def test_same_cycle_insertion_order(self):
        cal = CycleCalendar()
        fired = []
        for i in range(5):
            cal.schedule(2, lambda i=i: fired.append(i))
        cal.run_due(2)
        assert fired == [0, 1, 2, 3, 4]

    def test_no_stale_past_keys(self):
        # The dict-of-lists predecessor left entries scheduled for a
        # cycle that had already been drained unreachable forever; the
        # heap runs them on the next drain instead.
        cal = CycleCalendar()
        fired = []
        cal.run_due(10)
        cal.schedule(3, lambda: fired.append("late-scheduled"))
        cal.run_due(10)
        assert fired == ["late-scheduled"]

    def test_action_may_reschedule(self):
        cal = CycleCalendar()
        fired = []
        cal.schedule(1, lambda: cal.schedule(5, lambda: fired.append(5)))
        cal.run_due(1)
        cal.run_due(4)
        assert fired == [] and len(cal) == 1
        cal.run_due(5)
        assert fired == [5]


class _Ticker:
    def __init__(self):
        self.cycles = []

    def tick(self, cycle):
        self.cycles.append(cycle)


class TestSimulator:
    def test_run_until(self):
        sim = Simulator()
        ticker = _Ticker()
        sim.add_clocked(ticker)
        assert sim.run(5) == 5
        assert ticker.cycles == [0, 1, 2, 3, 4]

    def test_events_fire_before_ticks(self):
        sim = Simulator()
        order = []
        sim.add_clocked(type("T", (), {"tick": lambda self, c: order.append(("tick", c))})())
        sim.schedule_at(2, lambda: order.append(("event", 2)))
        sim.run(3)
        assert order.index(("event", 2)) < order.index(("tick", 2))

    def test_schedule_in_relative(self):
        sim = Simulator()
        fired = []
        sim.schedule_in(3, lambda: fired.append(sim.cycle))
        sim.run(10)
        assert fired == [3]

    def test_stop_ends_run(self):
        sim = Simulator()
        sim.schedule_at(4, sim.stop)
        assert sim.run(100) == 5  # cycle 4 completes, then the loop exits

    def test_resume_after_stop(self):
        sim = Simulator()
        sim.schedule_at(2, sim.stop)
        sim.run(100)
        assert sim.run(10) == 10

    def test_clocked_registration_order(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.add_clocked(
                type("T", (), {"tick": lambda self, c, n=name: order.append(n)})()
            )
        sim.run(1)
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.run(5)
        with pytest.raises(ValueError):
            sim.schedule_at(2, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_in(-1, lambda: None)

    def test_event_can_schedule_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1, lambda: sim.schedule_in(2, lambda: fired.append(sim.cycle)))
        sim.run(10)
        assert fired == [3]
