"""Discrete-event scheduler and cycle-driven clock.

The reproduction uses a hybrid simulation style, mirroring the paper's
simulator ("all memory transactions are modeled using an event-driven
framework"):

* **Events** model long-latency asynchronous activities — memory channel
  completions, directory timeouts, confirmation arrivals.
* **Clocked components** (network routers, FSOI lanes, cores) register a
  per-cycle ``tick`` callback; the simulator advances one processor cycle
  at a time, firing due events first, then ticking every clocked component
  in registration order.

Determinism: events scheduled for the same cycle fire in insertion order
(a monotone sequence number breaks heap ties), and clocked components tick
in registration order, so a run is a pure function of (config, seed).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Protocol

__all__ = ["CycleCalendar", "Event", "EventQueue", "Clocked", "Simulator"]


class CycleCalendar:
    """A heap-backed ``(cycle, action)`` calendar for the tick loops.

    The simulator's hot loops used to keep ``dict[int, list]`` calendars
    popped at every cycle.  This class is the lean replacement: a binary
    heap of ``(cycle, seq, action)`` tuples, where the monotone ``seq``
    preserves insertion order within a cycle — actions due at the same
    cycle run exactly as the dict ran them.  Unlike :class:`EventQueue` there are no cancellable handles
    and no per-event objects; the entries are bare tuples.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        # The heap list is created once and only ever mutated in place,
        # so an owner on a per-cycle path may cache a reference to it
        # and guard `run_due` behind `heap and heap[0][0] <= cycle` —
        # the guard is several times cheaper than the call it saves.
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, cycle: int, action: Callable[[], None]) -> None:
        """File ``action`` to run at ``cycle``."""
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, action))

    def run_due(self, cycle: int) -> None:
        """Run every action due at or before ``cycle``, in (cycle, seq)
        order.  Actions scheduled *during* the sweep at a due cycle run
        in the same sweep (the callers all schedule strictly forward)."""
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            heapq.heappop(heap)[2]()


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by ``(time, seq)``."""

    time: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap lazily)."""
        self.cancelled = True


class EventQueue:
    """A binary-heap event queue with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: int, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run at ``time``; returns a cancellable handle."""
        if time < 0:
            raise ValueError(f"cannot schedule event in negative time: {time}")
        event = Event(time=int(time), seq=self._seq, action=action)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def next_time(self) -> int | None:
        """Time of the earliest pending (non-cancelled) event, or ``None``."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def pop_due(self, now: int) -> list[Event]:
        """Remove and return all events due at or before ``now``, in order."""
        due: list[Event] = []
        while self._heap and self._heap[0].time <= now:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                due.append(event)
        return due


class Clocked(Protocol):
    """Anything with a per-cycle ``tick``.  Registered on a :class:`Simulator`."""

    def tick(self, cycle: int) -> None:  # pragma: no cover - protocol
        ...


class Simulator:
    """The top-level simulation loop.

    Combines an event queue with a list of clocked components.  Each cycle:

    1. fire all events scheduled for this cycle (insertion order), then
    2. call ``tick(cycle)`` on every registered component (registration
       order).

    The loop stops at ``run(until)`` or when :meth:`stop` is called from
    inside a callback (the current cycle still completes).
    """

    def __init__(self) -> None:
        self.cycle = 0
        self.events = EventQueue()
        self._clocked: list[Clocked] = []
        self._stop_requested = False

    # -- registration ---------------------------------------------------

    def add_clocked(self, component: Clocked) -> None:
        """Register a component whose ``tick`` runs every cycle."""
        self._clocked.append(component)

    def schedule_in(self, delay: int, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.events.schedule(self.cycle + delay, action)

    def schedule_at(self, time: int, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute cycle ``time`` (>= now)."""
        if time < self.cycle:
            raise ValueError(f"cannot schedule in the past: {time} < {self.cycle}")
        return self.events.schedule(time, action)

    # -- control --------------------------------------------------------

    def stop(self) -> None:
        """Request the run loop to stop after the current cycle."""
        self._stop_requested = True

    def step(self) -> None:
        """Advance exactly one cycle."""
        for event in self.events.pop_due(self.cycle):
            event.action()
        for component in self._clocked:
            component.tick(self.cycle)
        self.cycle += 1

    def run(self, until: int) -> int:
        """Run until cycle ``until`` (exclusive) or :meth:`stop`.

        Returns the cycle at which the run stopped.
        """
        self._stop_requested = False
        while self.cycle < until and not self._stop_requested:
            self.step()
        return self.cycle
