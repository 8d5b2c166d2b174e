"""The columnar vectorized FSOI engine.

``FsoiNetwork``'s reference slot gather visits every node at every slot
boundary and re-scans each node's retransmission list: O(nodes)
regardless of how many nodes actually hold traffic — the cost this
engine removes.

The engine mirrors each (lane, node)'s *readiness* — the earliest cycle
its oldest eligible packet can transmit, i.e. ``min(retransmission
releases, queue-head scheduled cycle)`` — into a per-lane numpy column,
maintained write-through via the base class's
:meth:`~repro.core.network.FsoiNetwork._note_lane_state` hook (fired on
every enqueue, pick, back-off and resolution-hint reschedule).  From
the columns:

* the slot gather visits only ``ready <= cycle`` nodes
  (:func:`~repro.net.kernels.due_indices`; ascending order replays the
  reference 0..N-1 sweep, and a skipped node's pick would have returned
  ``None`` without side effects — bit-exact);
* a slot whose lane minimum lies in the future returns before the
  gather, so pending-but-ineligible traffic costs one lookup.

The per-lane minimum itself is kept incrementally: a write below the
cached minimum lowers it exactly; removing the cell that held the
minimum only marks it dirty, and the next reader folds the column once
(``column.min()``).  The invariant is ``cached <= true minimum``, with
equality whenever the dirty flag is clear.

Fault plans keep the reference gather: sender-side lane sparing probes
(``lane_suppressed``) un-mark healed lanes as a *side effect* of being
queried each slot, including for nodes with nothing to send, so the
idle-node shortcut would change when a lane heals.  The columns stay
maintained either way (every mutation goes through the hook).

The columns are hybrid: a plain python list mirrors each numpy column
write-through, and below :data:`_SCAN_THRESHOLD` nodes the due scans
and lane minima sweep the lists instead (small-array numpy calls carry
microseconds of fixed dispatch overhead; the bulk kernels take over
where they win — see docs/performance.md).

Selected by ``CmpConfig.vectorized`` (default) and disabled together
with the core engine by ``REPRO_NO_VECTOR=1``; equivalence is pinned by
``tests/cmp/test_network_vector_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import FsoiConfig, FsoiNetwork, _LaneState
from repro.net.kernels import NEVER, due_indices
from repro.net.packet import LaneKind
from repro.obs.trace import TRACE
from repro.util.rng import RngHub

__all__ = ["VectorFsoiNetwork"]

_LANES = (LaneKind.META, LaneKind.DATA)

# Below this node count a plain-python sweep over the readiness list is
# cheaper than the numpy compare/nonzero round trip (small-array numpy
# calls cost microseconds of fixed overhead); above it the bulk kernels
# win and keep the gather sublinear in practice.
_SCAN_THRESHOLD = 64


def lane_ready(state: _LaneState) -> int:
    """Scalar readiness of one (lane, node): the earliest cycle any of
    its pending packets becomes eligible, :data:`NEVER` when idle.

    Only the queue *head* counts — FIFO order means a later packet
    cannot transmit before the head does, which is exactly what the
    reference pick inspects.
    """
    ready = NEVER
    for entry in state.retx:
        if entry.release < ready:
            ready = entry.release
    queue = state.queue
    if queue:
        scheduled = queue[0].scheduled_cycle
        if scheduled < ready:
            ready = scheduled
    return ready


class VectorFsoiNetwork(FsoiNetwork):
    """``FsoiNetwork`` with columnar readiness worklists."""

    def __init__(self, config: FsoiConfig, rng: RngHub | None = None):
        self._node_ready: dict[LaneKind, np.ndarray] | None = None
        super().__init__(config, rng=rng)
        self._node_ready = {
            lane: np.full(config.num_nodes, NEVER, dtype=np.int64)
            for lane in _LANES
        }
        # Python mirror of the columns: scalar reads/writes and the
        # small-system sweeps stay off numpy's per-call overhead.
        self._ready_py = {
            lane: [NEVER] * config.num_nodes for lane in _LANES
        }
        self._small = config.num_nodes < _SCAN_THRESHOLD
        self._lane_min = {lane: NEVER for lane in _LANES}
        self._min_dirty = {lane: False for lane in _LANES}
        # Hot-loop handles (attribute/dict chains hoisted out of the
        # per-slot path).
        self._slots_counter = {
            lane: self._lane_stats[lane]["slots"] for lane in _LANES
        }
        self._tx_counter = {lane: self._lane_stats[lane]["tx"] for lane in _LANES}
        self._bits_counter = self.stats.bits_sent
        # The batched gather is only exact without an injector (see the
        # module docstring) and only meaningful with slotting.
        self._columnar_slots = self._injector is None and config.slotted

    # -- write-through maintenance --------------------------------------

    def _note_lane_state(self, lane: LaneKind, node: int) -> None:
        columns = self._node_ready
        if columns is None:  # construction-time sends cannot happen
            return  # pragma: no cover - defensive
        state = self._state[lane][node]
        ready = NEVER
        retx = state.retx
        if retx:
            for entry in retx:
                release = entry.release
                if release < ready:
                    ready = release
        queue = state.queue
        if queue:
            scheduled = queue[0].scheduled_cycle
            if scheduled < ready:
                ready = scheduled
        mirror = self._ready_py[lane]
        old = mirror[node]
        if ready == old:
            return
        mirror[node] = ready
        columns[lane][node] = ready
        cached = self._lane_min[lane]
        if ready < cached:
            # Below every cell's lower bound, so it is the new minimum
            # exactly — even if the flag was dirty.
            self._lane_min[lane] = ready
            self._min_dirty[lane] = False
        elif old == cached and ready > old:
            self._min_dirty[lane] = True

    def _lane_ready_min(self, lane: LaneKind) -> int:
        """The lane's true minimum readiness (folds the column once
        after a dirtying removal)."""
        if self._min_dirty[lane]:
            if self._small:
                self._lane_min[lane] = min(self._ready_py[lane])
            else:
                self._lane_min[lane] = int(self._node_ready[lane].min())
            self._min_dirty[lane] = False
        return self._lane_min[lane]

    # -- slot processing ------------------------------------------------

    def _start_slot(self, lane: LaneKind, cycle: int) -> None:
        if not self._columnar_slots:
            super()._start_slot(lane, cycle)
            return
        self._slots_counter[lane].value += 1
        if self._lane_pending[lane] == 0:
            return
        if self._lane_ready_min(lane) > cycle:
            return  # pending traffic, but nothing eligible yet
        slot_len = self._slot_len[lane]
        states = self._state[lane]
        tx_counter = self._tx_counter[lane]
        bits_counter = self._bits_counter

        # Gather this slot's transmissions from the due nodes only; the
        # reference walks every node, but a node whose readiness is in
        # the future yields no pick and no side effects.  Both scan
        # forms replay the reference 0..N-1 sweep in ascending order.
        if self._small:
            mirror = self._ready_py[lane]
            due = [node for node in range(self.num_nodes) if mirror[node] <= cycle]
        else:
            due = due_indices(self._node_ready[lane], cycle).tolist()
        sends = []
        for node in due:
            packet = self._pick_transmission(lane, states[node], cycle)
            if packet is None:  # pragma: no cover - column invariant
                continue
            if packet.first_tx_cycle < 0:
                packet.first_tx_cycle = cycle
            opa = states[node].opa
            setup = opa.steer(packet.dst) if opa is not None else 0
            tx_counter.value += 1
            bits_counter.value += packet.bits
            if TRACE.enabled:
                TRACE.emit(
                    "tx", cat="fsoi", cycle=cycle, node=packet.src,
                    lane=lane.value, packet=packet.uid, dur=slot_len,
                    dst=packet.dst, retries=packet.retries,
                )
            sends.append((packet, setup))
        if not sends:
            return
        if len(sends) == 1:
            # A lone transmission cannot collide regardless of which
            # receiver it lands on (receiver_for is pure).
            self._handle_solo(lane, cycle, slot_len, sends[0])
            return

        # Group by (destination, receiver) — the static sender partition.
        groups: dict[tuple[int, int], list] = {}
        for packet, setup in sends:
            receiver = self.lanes.receiver_for(
                lane, packet.src, packet.dst, self.num_nodes
            )
            groups.setdefault((packet.dst, receiver), []).append((packet, setup))
        for (dst, _receiver), members in groups.items():
            if len(members) == 1:
                self._handle_solo(lane, cycle, slot_len, members[0])
            else:
                self._handle_collision(lane, cycle, slot_len, dst, members)

    # -- invariants ------------------------------------------------------

    def audit(self) -> None:
        """Columns must agree with the lane state they mirror."""
        for lane in _LANES:
            column = self._node_ready[lane]
            mirror = self._ready_py[lane]
            pending = 0
            for node, state in enumerate(self._state[lane]):
                assert column[node] == lane_ready(state)
                assert mirror[node] == lane_ready(state)
                pending += len(state.retx) + len(state.queue)
            assert pending == self._lane_pending[lane]
            true_min = int(column.min()) if len(column) else NEVER
            if self._min_dirty[lane]:
                assert self._lane_min[lane] <= true_min
            else:
                assert self._lane_min[lane] == true_min
