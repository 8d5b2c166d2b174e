"""Live sweep telemetry: ETA estimation and a one-line progress display.

:class:`ETAEstimator` turns the per-point wall times a sweep has
already paid into a remaining-time estimate; :class:`SweepTelemetry`
plugs into :func:`repro.sweep.run_sweep`'s ``progress``/``heartbeat``
callbacks and renders a live ``done/total · ok/cache/failed · ETA``
line (the CLI's ``repro sweep --live`` and ``repro report``).

The estimator deliberately stays simple — arithmetic mean of completed
point wall times, divided by the worker count — because it must hold
two properties the tests pin down:

* **never negative**, whatever mix of cached (instant) and computed
  points it has seen;
* **monotone non-increasing** under constant per-point wall time: with
  every point costing the same, each completion can only move the ETA
  down (by exactly ``mean / workers``).

Cached points complete in microseconds; feeding their near-zero wall
times into the mean would wildly underestimate the remaining *computed*
points, so :meth:`ETAEstimator.record` files cached completions
separately and the mean covers executed points only.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from repro.sweep.runner import PointOutcome, SweepHeartbeat

__all__ = ["ETAEstimator", "SweepTelemetry", "format_eta"]


class ETAEstimator:
    """Remaining-wall-time estimate from completed-point wall times."""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"need at least one worker: {workers}")
        self.workers = workers
        self._executed_seconds = 0.0
        self._executed = 0
        self._cached = 0

    def record(self, seconds: float, cached: bool = False) -> None:
        """File one completed point's wall time."""
        if cached:
            self._cached += 1
            return
        self._executed += 1
        self._executed_seconds += max(0.0, float(seconds))

    @property
    def samples(self) -> int:
        return self._executed

    @property
    def mean_point_seconds(self) -> float:
        """Mean wall time of the executed (non-cached) points so far."""
        if not self._executed:
            return 0.0
        return self._executed_seconds / self._executed

    def eta_seconds(self, done: int, total: int) -> Optional[float]:
        """Estimated seconds until the sweep finishes, or ``None``.

        ``None`` until the first executed point completes (cached
        completions carry no timing signal).  Always ``>= 0.0`` and,
        for constant per-point wall times, non-increasing in ``done``.
        """
        if done < 0 or total < done:
            raise ValueError(f"bad progress counts: done={done}, total={total}")
        if not self._executed:
            return None
        remaining = total - done
        return max(0.0, remaining * self.mean_point_seconds / self.workers)


def format_eta(seconds: Optional[float]) -> str:
    """``1h02m`` / ``3m20s`` / ``45s`` / ``--`` for display."""
    if seconds is None:
        return "--"
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{seconds:.0f}s"


class SweepTelemetry:
    """Aggregates sweep progress and renders the ``--live`` line.

    Wire it up by passing the two bound methods to ``run_sweep``::

        telemetry = SweepTelemetry(total=len(points), workers=4)
        run_sweep(spec, workers=4,
                  progress=telemetry.on_progress,
                  heartbeat=telemetry.on_heartbeat)

    ``live=True`` redraws one carriage-return line per update;
    ``live=False`` keeps the counters (for a caller that prints its own
    per-point lines but still wants the summary/ETA).
    """

    def __init__(
        self,
        total: int,
        workers: int = 1,
        live: bool = False,
        stream: Optional[TextIO] = None,
    ):
        self.total = total
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.from_cache = 0
        self.in_flight: tuple[str, ...] = ()
        self.elapsed = 0.0
        self.live = live
        self.stream = stream if stream is not None else sys.stdout
        self.eta = ETAEstimator(workers=workers)
        self._line_dirty = False

    # -- run_sweep callbacks -------------------------------------------

    def on_progress(self, done: int, total: int, outcome: PointOutcome) -> None:
        self.done = done
        self.total = total
        if outcome.ok:
            self.ok += 1
        else:
            self.failed += 1
        if outcome.cached:
            self.from_cache += 1
        self.eta.record(outcome.elapsed, cached=outcome.cached)
        if self.live:
            self._redraw()

    def on_heartbeat(self, pulse: SweepHeartbeat) -> None:
        self.in_flight = pulse.in_flight
        self.elapsed = pulse.elapsed
        if self.live:
            self._redraw()

    # -- rendering ------------------------------------------------------

    def line(self) -> str:
        """The current progress line (no trailing newline)."""
        eta = self.eta.eta_seconds(self.done, self.total)
        parts = [
            f"[{self.done}/{self.total}]",
            f"ok {self.ok - self.from_cache}",
            f"cache {self.from_cache}",
            f"failed {self.failed}",
            f"eta {format_eta(eta)}",
        ]
        if self.in_flight and self.done < self.total:
            shown = ", ".join(self.in_flight[:2])
            if len(self.in_flight) > 2:
                shown += f", +{len(self.in_flight) - 2}"
            parts.append(f"running {shown}")
        return "  ".join(parts)

    def _redraw(self) -> None:
        self.stream.write("\r\x1b[2K" + self.line())
        self.stream.flush()
        self._line_dirty = True

    def close(self) -> None:
        """Terminate the live line (newline) if one was drawn."""
        if self._line_dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._line_dirty = False
