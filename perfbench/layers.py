"""Outside-in layer spans for the traced benchmark repetition.

The simulator is not edited to measure it.  Instead :class:`LayerSpans`
wraps public entry points of each layer, from the benchmark side, and
keeps per-layer totals in memory:

* ``cmp.loop``      -- ``CmpSystem.run``: the cycle loop itself;
* ``cmp.calendar``  -- ``CycleCalendar.run_due`` when called by that loop;
* ``core``          -- ``tick``/``try_send`` of the FSOI networks;
* ``mesh``          -- ``tick``/``try_send`` of the mesh and ideal networks;
* ``coherence``     -- the per-node delivery callbacks the system installs
  through ``Interconnect.set_delivery_callback``, and ``post_delivery``;
* ``cpu.cores``     -- the cores phase;
* ``cpu.memctrl``   -- ``MemoryController.tick``;
* ``sweep.cache_io``-- ``ResultCache.get``/``put``.

A layer's *self time* is the time its spans take minus the time of the
spans nested inside them (a coherence handler that injects a reply
hands that ``try_send`` to the network layer).  Garbage-collection
pauses are timed through ``gc.callbacks`` and also subtracted, so they
show once, as ``host.gc_s``, rather than inside whichever layer they
interrupted.  Spans are aggregated, not stored one by one: a 64-node
run makes millions of them.

Installing the spans patches classes of the imported simulator; it is
meant for a dedicated benchmark process and is never undone.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict
from time import perf_counter

__all__ = ["LayerSpans"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class LayerSpans:
    """Per-layer self time, network refusals and GC time."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.refusals = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        # Open spans, innermost last: [layer, seconds spent in children].
        self._stack: list[list] = [["root", 0.0]]
        self._send_depth = 0
        self._gc_started = 0.0

    # -- span wrappers ----------------------------------------------------

    def span(self, layer: str, fn):
        """``fn`` wrapped so each call is one span of ``layer``."""
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return wrapper

    def _loop_calendar(self, fn):
        # The FSOI network keeps a calendar of its own; only the cycle
        # loop's calendar is the cmp.calendar layer.
        traced = self.span("cmp.calendar", fn)
        stack = self._stack

        @functools.wraps(fn)
        def run_due(calendar, cycle):
            if stack[-1][0] == "cmp.loop":
                return traced(calendar, cycle)
            return fn(calendar, cycle)

        return run_due

    def _send(self, layer: str, fn):
        # A refusal is counted once, by the outermost try_send (subclass
        # implementations delegate to their base class).
        traced = self.span(layer, fn)

        @functools.wraps(fn)
        def try_send(network, packet, cycle):
            self._send_depth += 1
            try:
                accepted = traced(network, packet, cycle)
            finally:
                self._send_depth -= 1
            if not accepted and self._send_depth == 0:
                self.refusals += 1
            return accepted

        return try_send

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        elapsed = perf_counter() - self._gc_started
        self.gc_s += elapsed
        self.gc_collections += 1
        self._stack[-1][1] += elapsed

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch the layer entry points and start timing GC.

        Network classes imported lazily by ``CmpSystem`` must already be
        loaded (build one system per network kind first), because only
        classes that exist now are patched.
        """
        from repro.cmp import CmpSystem
        from repro.core import FsoiNetwork
        from repro.cpu import MemoryController
        from repro.net.interface import Interconnect
        from repro.sweep import ResultCache
        from repro.util.events import CycleCalendar

        CmpSystem.run = self.span("cmp.loop", CmpSystem.run)
        CycleCalendar.run_due = self._loop_calendar(CycleCalendar.run_due)
        MemoryController.tick = self.span("cpu.memctrl", MemoryController.tick)
        ResultCache.get = self.span("sweep.cache_io", ResultCache.get)
        ResultCache.put = self.span("sweep.cache_io", ResultCache.put)
        self._patch_cores()

        for cls in set(_subclasses(Interconnect)):
            layer = "core" if issubclass(cls, FsoiNetwork) else "mesh"
            if "tick" in vars(cls):
                cls.tick = self.span(layer, vars(cls)["tick"])
            if "try_send" in vars(cls):
                cls.try_send = self._send(layer, vars(cls)["try_send"])

        deliver = Interconnect.set_delivery_callback
        spans = self

        def set_delivery_callback(network, node, callback):
            deliver(network, node, spans.span("coherence", callback))

        Interconnect.set_delivery_callback = set_delivery_callback
        gc.callbacks.append(self._on_gc)

    def _patch_cores(self) -> None:
        # The columnar engine runs the whole cores phase in one call; the
        # object-per-core loop calls Core.tick once per core.
        try:
            from repro.cpu.vector import VectorCoreEngine
        except ImportError:
            VectorCoreEngine = None
        if VectorCoreEngine is not None and hasattr(
            VectorCoreEngine, "core_phase"
        ):
            VectorCoreEngine.core_phase = self.span(
                "cpu.cores", VectorCoreEngine.core_phase
            )
            return
        from repro.cpu import Core

        Core.tick = self.span("cpu.cores", Core.tick)

    def attach(self, system) -> None:
        """Wrap the per-cycle mailbox drain of a freshly built system."""
        network = system.network
        drain = getattr(network, "post_delivery", None)
        if drain is not None:
            network.post_delivery = self.span("coherence", drain)
