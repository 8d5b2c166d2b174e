"""The parallel sweep runner.

:func:`run_sweep` fans the points of a :class:`repro.sweep.SweepSpec`
out across worker processes (``ProcessPoolExecutor``), with:

* **caching** — points whose key (config + code version) is already in
  the :class:`repro.sweep.cache.ResultCache` are served from disk
  without touching the simulator; an interrupted sweep therefore
  resumes where it stopped.
* **crash isolation** — a worker that raises marks its point failed; a
  worker that *dies* (segfault, ``os._exit``) breaks the pool, which is
  rebuilt and the in-flight points retried once — a point that kills
  the pool twice is marked failed without sinking the sweep.
* **per-point timeout** — enforced inside the worker via ``SIGALRM``
  so a runaway point fails cleanly and its worker survives.
* **deterministic JSONL streaming** — results are written in point
  order (a reorder buffer holds out-of-order completions), each line
  canonical JSON, so the output file is byte-identical regardless of
  worker count and of whether points came cold or from the cache.

``workers <= 1`` runs points inline in the calling process — same code
path through :func:`_worker`, no subprocesses — which is also what the
determinism tests compare the parallel runs against.
"""

from __future__ import annotations

import functools
import json
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.cmp.results import CmpResults
from repro.cmp.sweep import SweepSummary
from repro.sweep.cache import ResultCache, _normalized
from repro.sweep.spec import SweepPoint, SweepSpec, canonical_json

__all__ = [
    "PointOutcome",
    "PointTimeout",
    "SweepHeartbeat",
    "SweepReport",
    "execute_point",
    "load_jsonl",
    "metrics_filename",
    "run_sweep",
    "timeline_filename",
]


class PointTimeout(Exception):
    """A point exceeded the per-point timeout."""


def execute_point(
    point_dict: dict,
    metrics_dir: Optional[str] = None,
    timeline_dir: Optional[str] = None,
    timeline_window: int = 100,
) -> dict:
    """Run one experiment; the default worker payload.

    Takes and returns plain dicts so the call crosses process
    boundaries with no custom pickling.  With ``metrics_dir`` set, the
    run's full metrics-registry snapshot (see
    :meth:`repro.cmp.CmpSystem.metrics_registry`) is archived there as
    ``<label>_<hash>.json`` before the result is returned.  With
    ``timeline_dir`` set, the run executes under the windowed timeline
    collector (:func:`repro.obs.timeline.timelining`, sampling every
    ``timeline_window`` cycles) and the per-window delta archive lands
    there as ``<label>_<hash>.timeline.jsonl``.  Timeline collection is
    non-perturbing — the result is bit-identical to an untimelined run.
    """
    from repro.cmp.system import CmpSystem

    point = SweepPoint.from_dict(point_dict)
    system = CmpSystem(point.to_config())
    if timeline_dir is not None:
        from repro.obs.timeline import timelining

        with timelining(window=timeline_window) as timeline:
            result = system.run(point.cycles).to_dict()
        directory = Path(timeline_dir)
        directory.mkdir(parents=True, exist_ok=True)
        timeline.write_jsonl(directory / timeline_filename(point))
    else:
        result = system.run(point.cycles).to_dict()
    if metrics_dir is not None:
        directory = Path(metrics_dir)
        directory.mkdir(parents=True, exist_ok=True)
        system.metrics_registry().write(directory / metrics_filename(point))
    return result


def metrics_filename(point: SweepPoint) -> str:
    """Deterministic per-point metrics archive filename.

    The label keeps the file recognisable; the content-hash suffix
    disambiguates points whose labels coincide (e.g. same grid at two
    cycle counts).
    """
    import hashlib

    digest = hashlib.sha256(
        canonical_json(point.to_dict()).encode()
    ).hexdigest()[:10]
    return f"{point.label().replace('/', '_')}_{digest}.json"


def timeline_filename(point: SweepPoint) -> str:
    """Deterministic per-point timeline archive filename.

    Same stem as :func:`metrics_filename` (label + content hash) so a
    point's metrics snapshot and timeline archive sit side by side.
    """
    return metrics_filename(point)[: -len(".json")] + ".timeline.jsonl"


def _worker(
    point_dict: dict,
    timeout: Optional[float],
    execute: Callable[[dict], dict],
) -> dict:
    """Execute one point under an optional SIGALRM deadline.

    Runs in a worker process (or inline for serial sweeps).  The alarm
    fires inside this process only, so a timeout fails the point
    without poisoning the pool.
    """
    use_alarm = (
        timeout is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if use_alarm:
        def _on_alarm(signum, frame):
            raise PointTimeout(f"point exceeded {timeout:g}s timeout")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return _normalized(execute(point_dict))
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class SweepHeartbeat:
    """A periodic liveness pulse from :func:`run_sweep`.

    Emitted between point completions (every ``heartbeat_interval``
    seconds in the pool path; before each point inline), so a live
    display can show progress even while every worker is deep inside a
    long point.  ``in_flight`` holds the labels of the points most
    likely occupying workers right now: the pool executes submissions
    in index order, so the lowest-index unfinished points are the ones
    on CPUs (an approximation — the pool does not expose true
    per-worker assignment).

    ``latest_window`` carries the most recent timeline window
    (``{"cycle", "deltas": {path: value}}``) when the sweep collects
    timelines and runs points inline — the payload ``repro top``
    renders as live sparklines.  ``None`` otherwise: pool workers hold
    their own process-local collectors, so the parent has no live
    window to forward.
    """

    elapsed: float
    done: int
    total: int
    in_flight: tuple[str, ...]
    workers: int
    latest_window: Optional[dict] = None


@dataclass
class PointOutcome:
    """What happened to one sweep point."""

    point: SweepPoint
    status: str                       # "ok" | "failed"
    key: str
    result: Optional[dict] = None     # CmpResults.to_dict() shape when ok
    error: Optional[str] = None
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def cmp_results(self) -> CmpResults:
        if self.result is None:
            raise ValueError(f"point {self.point.label()} has no result")
        return CmpResults.from_dict(self.result)

    def record(self, index: int) -> dict:
        """The JSONL record (deterministic fields only — no timings)."""
        return {
            "index": index,
            "key": self.key,
            "point": self.point.to_dict(),
            "status": self.status,
            "result": self.result,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """Aggregated outcome of one :func:`run_sweep` call."""

    outcomes: list[PointOutcome]
    wall_seconds: float = 0.0
    workers: int = 1
    jsonl_path: Optional[Path] = None

    # -- counters --------------------------------------------------------

    @property
    def ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def from_cache(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        """Points that actually ran the simulator (cache misses)."""
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    # -- result access ---------------------------------------------------

    def results(self) -> list[tuple[SweepPoint, CmpResults]]:
        """(point, results) for every successful point, in sweep order."""
        return [(o.point, o.cmp_results()) for o in self.outcomes if o.ok]

    def result_for(self, **match: Any) -> CmpResults:
        """The unique successful result whose point matches ``match``.

        >>> # report.result_for(app="oc", network="fsoi", seed=1)
        """
        found = [
            o for o in self.outcomes
            if o.ok and all(getattr(o.point, k) == v for k, v in match.items())
        ]
        if not found:
            raise KeyError(f"no successful point matching {match}")
        if len(found) > 1:
            raise KeyError(f"{len(found)} points match {match}; be more specific")
        return found[0].cmp_results()

    def summary(
        self, metric: Callable[[CmpResults], float], **match: Any
    ) -> SweepSummary:
        """Summary statistics of ``metric`` over matching points."""
        values = [
            metric(o.cmp_results())
            for o in self.outcomes
            if o.ok and all(getattr(o.point, k) == v for k, v in match.items())
        ]
        return SweepSummary(tuple(values))

    def paired_speedups(
        self, network: str, baseline: str, metric: str = "ipc"
    ) -> SweepSummary:
        """Speedup of ``network`` over ``baseline``, paired per point.

        Pairs share every axis except the network (app, nodes, seed,
        optimizations, variant), so workload randomness cancels — the
        same pairing :func:`repro.cmp.sweep.paired_speedups` uses.
        """
        def pair_key(point: SweepPoint):
            return (point.app, point.num_nodes, point.cycles, point.seed,
                    point.variant, point.extras)

        fast: dict[Any, CmpResults] = {}
        base: dict[Any, CmpResults] = {}
        for outcome in self.outcomes:
            if not outcome.ok:
                continue
            if outcome.point.network == network:
                fast[pair_key(outcome.point)] = outcome.cmp_results()
            elif outcome.point.network == baseline:
                base[pair_key(outcome.point)] = outcome.cmp_results()
        ratios = tuple(
            getattr(fast[key], metric) / getattr(base[key], metric)
            for key in fast
            if key in base
        )
        return SweepSummary(ratios)


class _OrderedJsonlWriter:
    """Streams records to disk in point order despite o-o-o completion."""

    def __init__(self, path: Optional[Path]):
        self.path = Path(path) if path else None
        self._handle = None
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w")
        self._buffer: dict[int, dict] = {}
        self._next = 0

    def add(self, index: int, record: dict) -> None:
        if self._handle is None:
            return
        self._buffer[index] = record
        while self._next in self._buffer:
            line = canonical_json(self._buffer.pop(self._next))
            self._handle.write(line + "\n")
            self._next += 1
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load_jsonl(path, *, strict: bool = True) -> list[dict]:
    """Read back a results file written by :func:`run_sweep`.

    With ``strict=True`` (the default) a malformed line raises
    ``ValueError`` naming the line number.  ``strict=False`` skips
    corrupt or truncated lines — an interrupted sweep leaves at most a
    truncated final record behind, and cross-run ingestion (the
    analytics ledger) wants the surviving records rather than nothing.
    """
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{number}: corrupt JSONL record: {exc}"
                    ) from exc
                continue
            records.append(record)
    return records


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepPoint]],
    *,
    workers: int = 1,
    cache_dir=None,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    jsonl_path=None,
    metrics_path=None,
    timeline_path=None,
    timeline_window: int = 100,
    code_version: Optional[str] = None,
    execute: Callable[[dict], dict] = execute_point,
    progress: Optional[Callable[[int, int, PointOutcome], None]] = None,
    heartbeat: Optional[Callable[[SweepHeartbeat], None]] = None,
    heartbeat_interval: float = 1.0,
    max_crash_retries: int = 1,
) -> SweepReport:
    """Run every point of ``spec``; returns a :class:`SweepReport`.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or an explicit point list.
    workers:
        Process count; ``<= 1`` runs inline (no subprocesses).
    cache_dir / cache:
        Enable the on-disk result cache (omit both to always compute).
    timeout:
        Per-point wall-clock limit in seconds; a timed-out point is
        marked failed.
    jsonl_path:
        Stream results here as canonical JSONL, in point order.
    metrics_path:
        Directory in which every *executed* point archives its full
        metrics-registry snapshot (one JSON file per point, named by
        :func:`metrics_filename`).  Cache hits skip the simulator and
        therefore do not write snapshots — archive metrics with the
        cache off, or on the cold pass.  A custom ``execute`` callable
        must accept a ``metrics_dir`` keyword to use this.
    timeline_path:
        Directory in which every *executed* point archives its windowed
        timeline (one JSONL file per point, named by
        :func:`timeline_filename`, sampled every ``timeline_window``
        cycles).  Same cache caveat as ``metrics_path``; a custom
        ``execute`` callable must accept ``timeline_dir`` and
        ``timeline_window`` keywords to use this.  Heartbeats gain a
        ``latest_window`` payload on the inline path.
    code_version:
        Override the cache's code-version tag (testing/pinning).
    execute:
        The per-point payload ``dict -> dict`` (default: build the
        ``CmpConfig`` and run :class:`repro.cmp.CmpSystem`).  Must be
        picklable (module-level) when ``workers > 1``.
    progress:
        Called as ``progress(done, total, outcome)`` after each point.
    heartbeat:
        Called with a :class:`SweepHeartbeat` between completions —
        every ``heartbeat_interval`` seconds while worker processes are
        busy, and before each point inline — so a live display (the
        CLI's ``--live`` line, :class:`repro.analytics.SweepTelemetry`)
        stays fresh during long points.
    max_crash_retries:
        How often a point may be retried after its worker process died
        before it is marked failed.
    """
    points = spec.points() if isinstance(spec, SweepSpec) else list(spec)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir, version=code_version)
    if metrics_path is not None:
        # functools.partial of a module-level callable stays picklable
        # for the process-pool path.
        execute = functools.partial(execute, metrics_dir=str(metrics_path))
    if timeline_path is not None:
        execute = functools.partial(
            execute,
            timeline_dir=str(timeline_path),
            timeline_window=timeline_window,
        )
    started = time.perf_counter()
    writer = _OrderedJsonlWriter(jsonl_path)
    outcomes: list[Optional[PointOutcome]] = [None] * len(points)
    done_count = 0

    def finish(index: int, outcome: PointOutcome) -> None:
        nonlocal done_count
        outcomes[index] = outcome
        writer.add(index, outcome.record(index))
        done_count += 1
        if progress is not None:
            progress(done_count, len(points), outcome)

    def beat(in_flight: Sequence[str]) -> None:
        if heartbeat is not None:
            latest = None
            if timeline_path is not None and workers <= 1:
                # Inline points run against the process-global
                # collector, so its freshest window is ours to forward
                # (pool workers keep theirs process-local).
                from repro.obs.timeline import TIMELINE

                if len(TIMELINE):
                    latest = TIMELINE.latest_window()
            heartbeat(SweepHeartbeat(
                elapsed=time.perf_counter() - started,
                done=done_count,
                total=len(points),
                in_flight=tuple(in_flight),
                workers=max(1, workers),
                latest_window=latest,
            ))

    try:
        pending: list[int] = []
        for index, point in enumerate(points):
            key = cache.key(point) if cache else _uncached_key(point, code_version)
            hit = cache.get(point) if cache else None
            if hit is not None:
                finish(index, PointOutcome(
                    point=point, status="ok", key=key, result=hit, cached=True,
                ))
            else:
                pending.append(index)

        if workers <= 1:
            for index in pending:
                beat((points[index].label(),))
                finish(index, _run_inline(points[index], timeout, execute,
                                          cache, code_version))
        else:
            _run_pool(points, pending, workers, timeout, execute, cache,
                      code_version, max_crash_retries, finish,
                      beat if heartbeat is not None else None,
                      heartbeat_interval)
    finally:
        writer.close()

    assert all(outcome is not None for outcome in outcomes)
    return SweepReport(
        outcomes=list(outcomes),
        wall_seconds=time.perf_counter() - started,
        workers=max(1, workers),
        jsonl_path=Path(jsonl_path) if jsonl_path else None,
    )


def _uncached_key(point: SweepPoint, version: Optional[str]) -> str:
    from repro.sweep.cache import point_key

    return point_key(point, version)


def _outcome_from_result(point, key, result, cache, elapsed) -> PointOutcome:
    if cache is not None:
        cache.put(point, result, elapsed)
    return PointOutcome(
        point=point, status="ok", key=key, result=result, elapsed=elapsed,
    )


def _failure(point, key, error: str, elapsed: float = 0.0) -> PointOutcome:
    return PointOutcome(
        point=point, status="failed", key=key, error=error, elapsed=elapsed,
    )


def _run_inline(point, timeout, execute, cache, code_version) -> PointOutcome:
    key = cache.key(point) if cache else _uncached_key(point, code_version)
    begin = time.perf_counter()
    try:
        result = _worker(point.to_dict(), timeout, execute)
    except Exception as exc:  # noqa: BLE001 - crash isolation by design
        return _failure(point, key, f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - begin)
    return _outcome_from_result(point, key, result, cache,
                                time.perf_counter() - begin)


def _run_pool(
    points, pending, workers, timeout, execute, cache, code_version,
    max_crash_retries, finish, beat=None, beat_interval: float = 1.0,
) -> None:
    """Fan ``pending`` point indices over a process pool.

    The pool is rebuilt whenever a worker dies; affected points are
    retried up to ``max_crash_retries`` times, then marked failed.
    With ``beat`` set, the completion wait wakes up every
    ``beat_interval`` seconds to emit a heartbeat naming the
    lowest-index in-flight points (the ones occupying workers).
    """
    crash_counts: dict[int, int] = {}
    while pending:
        retry: list[int] = []
        begin = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_worker, points[i].to_dict(), timeout, execute): i
                for i in pending
            }
            not_done = set(futures)
            while not_done:
                if beat is not None:
                    running = sorted(futures[f] for f in not_done)[:workers]
                    beat([points[i].label() for i in running])
                done, not_done = wait(
                    not_done,
                    timeout=beat_interval if beat is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = futures[future]
                    point = points[index]
                    key = (cache.key(point) if cache
                           else _uncached_key(point, code_version))
                    elapsed = time.perf_counter() - begin
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        crash_counts[index] = crash_counts.get(index, 0) + 1
                        if crash_counts[index] > max_crash_retries:
                            finish(index, _failure(
                                point, key,
                                "BrokenProcessPool: worker process died",
                                elapsed,
                            ))
                        else:
                            retry.append(index)
                        continue
                    except Exception as exc:  # noqa: BLE001
                        finish(index, _failure(
                            point, key, f"{type(exc).__name__}: {exc}", elapsed,
                        ))
                        continue
                    finish(index, _outcome_from_result(
                        point, key, result, cache, elapsed,
                    ))
        pending = sorted(retry)
