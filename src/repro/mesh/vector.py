"""The columnar vectorized mesh engine.

``MeshNetwork``'s reference loop ticks every router and injection queue
every cycle; each router tick scans its occupied VCs once per output
port through a ``sorted`` set.  At the bench configuration that loop is
the simulator's hottest phase (~70 µs/cycle of network time at 16
nodes), and it grows linearly with node count regardless of how many
routers actually hold traffic.

This engine keeps the same objects — ``Router``/``_VcBuffer`` stay the
source of truth for buffer contents — and adds two scheduling indexes
maintained write-through (the ``repro.cpu.vector`` pattern):

* ``_router_ready[node]`` — a numpy column of each router's earliest
  head-flit readiness (:data:`~repro.net.kernels.NEVER` when empty).
  Each cycle the engine ticks only ``router_ready <= cycle`` routers
  (:func:`~repro.net.kernels.due_indices`).
* per-router requester sets — the non-empty input VCs grouped by their
  owner's route port, so arbitration walks exactly the VCs requesting
  each output instead of re-scanning and re-sorting every occupied VC.

The worklist is *bit-exact* with the reference sweep: a router whose
heads are all future-ready arbitrates nothing and mutates nothing (the
round-robin pointer moves only on a win), an idle injection slot
returns before touching state, and nothing a ticked router does can
make another router ready in the same cycle (flits it forwards arrive
``router_latency + link_latency >= 2`` cycles later).  Within a ticked
router the fused arbitration picks the same winner as the reference
``sorted`` round-robin because arbitration indices are distinct, so the
minimum of ``(index - start) % 1000`` is the reference sort's first
element (:func:`~repro.net.kernels.rr_pick` is the spec; the property
suite pins the fused loop against it).

The per-flit bookkeeping (``accept_flit`` / ``_forward``) is fully
inlined rather than layered over ``super()`` calls: at small meshes
nearly every router is busy every cycle, so per-flit constant factors —
double dispatch and numpy scalar writes — would eat the worklist's
savings.  Only the scalar ``_router_ready`` cell is written per
mutation; the full per-VC occupancy/allocation columns that the audits
and property tests consume are *derived* on demand (:meth:`columns`).

The scheduling index is hybrid: a plain python list mirrors the numpy
column write-through, and below :data:`_SCAN_THRESHOLD` routers the due
scan sweeps the list instead (small-array numpy calls carry
microseconds of fixed dispatch overhead; the bulk kernels take over
where they win — see docs/performance.md).

Selected by ``CmpConfig.vectorized`` (default) and disabled together
with the core engine by ``REPRO_NO_VECTOR=1``; equivalence is pinned by
``tests/cmp/test_network_vector_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.network import MeshConfig, MeshNetwork
from repro.mesh.router import Router, _VcBuffer
from repro.mesh.routing import Port, opposite, xy_route
from repro.net.kernels import (
    NEVER,
    allocatable_vc_mask,
    due_indices,
    xy_route_codes,
)
from repro.net.packet import Packet
from repro.obs.trace import TRACE

__all__ = ["VectorMeshNetwork", "VectorRouter"]

_PORTS = tuple(Port)
_NUM_PORTS = len(_PORTS)
_LOCAL = Port.LOCAL
_OPPOSITE = {port: opposite(port) for port in Port if port is not Port.LOCAL}

# Below this node count a plain-python sweep over the readiness list is
# cheaper than the numpy compare/nonzero round trip (small-array numpy
# calls cost microseconds of fixed overhead); above it the bulk kernels
# win and keep the worklist sublinear in practice.
_SCAN_THRESHOLD = 64


class VectorRouter(Router):
    """A ``Router`` with a requester index and a fused hot path.

    State transitions are re-implemented inline (not layered over
    ``super()``) but semantically identical to the reference methods —
    same mutation order, same trace events, same counter updates; the
    equivalence suite compares the two flit by flit.
    """

    def __init__(self, *args, engine: "VectorMeshNetwork", **kwargs):
        super().__init__(*args, **kwargs)
        self._engine = engine
        self._ready_col = engine._router_ready
        self._ready_list = engine._router_ready_py
        # Non-empty (in_port, vc) keys grouped by their owner's route
        # port.  A non-empty buffer always has a defined route port
        # (VC allocation is packet-granular: a new head cannot enter
        # until the previous owner's tail has left), so membership is
        # stable while the buffer drains.
        self._requesters: dict[Port, set[tuple[Port, int]]] = {
            port: set() for port in Port
        }
        self._req_items = tuple(self._requesters.items())
        self._ready_min = NEVER

    # -- index maintenance ----------------------------------------------

    def _sync_ready_min(self) -> None:
        """Recompute the router's min head readiness after a head pop."""
        ready_min = NEVER
        inputs = self.inputs
        for port, vc in self._occupied:
            ready = inputs[port][vc].flits[0][0]
            if ready < ready_min:
                ready_min = ready
        self._ready_min = ready_min
        self._ready_list[self.node] = ready_min
        self._ready_col[self.node] = ready_min

    # -- upstream-facing (reference semantics, fused) --------------------

    def accept_flit(self, port: Port, vc: int, flit, ready_cycle: int) -> None:
        buffer = self.inputs[port][vc]
        flits = buffer.flits
        if buffer.capacity <= len(flits):
            raise RuntimeError(
                f"credit protocol violated: buffer overflow at node {self.node} "
                f"{port.name}.vc{vc}"
            )
        if flit.is_head:
            if buffer.owner is not None:
                raise RuntimeError(
                    f"VC allocation violated: vc{vc} at node {self.node} "
                    f"{port.name} already owned"
                )
            buffer.owner = flit.packet
            buffer.route_port = xy_route(self.node, flit.packet.dst, self.side)
            buffer.out_vc = None
            if TRACE.enabled:
                TRACE.emit(
                    "vc_alloc", cat="mesh", cycle=ready_cycle,
                    node=self.node, packet=flit.packet.uid,
                    port=port.name, vc=vc,
                    route=buffer.route_port.name,
                )
        if not flits:
            self._occupied.add((port, vc))
            self._requesters[buffer.route_port].add((port, vc))
            if ready_cycle < self._ready_min:
                self._ready_min = ready_cycle
                self._ready_list[self.node] = ready_cycle
                self._ready_col[self.node] = ready_cycle
        flits.append((ready_cycle, flit))
        self._buffered += 1
        self.buffer_writes += 1

    # -- per-cycle operation ---------------------------------------------

    def tick(self, cycle: int) -> None:
        if self._ready_min > cycle:
            return
        inputs = self.inputs
        num_vcs = self.num_vcs
        arbiter = self._arbiter_state
        for out_port, requesters in self._req_items:
            if not requesters:
                continue
            if out_port is _LOCAL:
                dinputs = None
            else:
                dinputs = self.downstream[out_port].inputs[_OPPOSITE[out_port]]
            # Fused candidate scan + round-robin: the winner is the
            # distinct-index argmin of (index - start) % 1000, i.e.
            # rr_pick over the candidate list the reference builds.
            start = arbiter[out_port]
            best_mod = 1000
            best_index = 0
            best_key = best_buffer = best_flit = None
            for req_key in requesters:
                in_port, vc = req_key
                buffer = inputs[in_port][vc]
                head = buffer.flits[0]
                if head[0] > cycle:
                    continue
                flit = head[1]
                if dinputs is not None:
                    out_vc = buffer.out_vc
                    if flit.is_head and out_vc is None:
                        # VC allocation: need a free downstream VC with
                        # a credit.
                        for dvc in range(num_vcs):
                            dbuf = dinputs[dvc]
                            if dbuf.owner is None and dbuf.capacity > len(
                                dbuf.flits
                            ):
                                break
                        else:
                            continue
                    else:
                        dbuf = dinputs[out_vc]
                        if dbuf.capacity <= len(dbuf.flits):
                            continue
                index = in_port * num_vcs + vc + 1
                mod = (index - start) % 1000
                if mod < best_mod:
                    best_mod = mod
                    best_index = index
                    best_key = req_key
                    best_buffer = buffer
                    best_flit = flit
            if best_key is not None:
                arbiter[out_port] = best_index + 1
                self._forward(out_port, best_key, best_buffer, best_flit, cycle)

    def _forward(
        self,
        out_port: Port,
        key: tuple[Port, int],
        buffer: _VcBuffer,
        flit,
        cycle: int,
    ) -> None:
        flits = buffer.flits
        flits.popleft()
        self._buffered -= 1
        if not flits:
            self._occupied.discard(key)
            self._requesters[buffer.route_port].discard(key)
        self.buffer_reads += 1
        self.flits_routed += 1

        if out_port is _LOCAL:
            if flit.is_tail:
                if TRACE.enabled:
                    TRACE.emit(
                        "eject", cat="mesh",
                        cycle=cycle + self.router_latency,
                        node=self.node, packet=flit.packet.uid,
                        src=flit.packet.src,
                    )
                self.deliver(flit.packet, cycle + self.router_latency)
                buffer.owner = None
                buffer.route_port = None
                buffer.out_vc = None
            self._sync_ready_min()
            return

        downstream = self.downstream[out_port]
        in_port = _OPPOSITE[out_port]
        if flit.is_head and buffer.out_vc is None:
            dinputs = downstream.inputs[in_port]
            for dvc in range(self.num_vcs):
                dbuf = dinputs[dvc]
                if dbuf.owner is None and dbuf.capacity > len(dbuf.flits):
                    buffer.out_vc = dvc
                    break
            else:  # pragma: no cover - arbitration guaranteed a free VC
                raise RuntimeError("VC allocation failed after flow control")
        self.link_flits += 1
        downstream.accept_flit(
            in_port, buffer.out_vc, flit,
            cycle + self.router_latency + self.link_latency,
        )
        if flit.is_tail:
            buffer.owner = None
            buffer.route_port = None
            buffer.out_vc = None
        self._sync_ready_min()


class VectorMeshNetwork(MeshNetwork):
    """``MeshNetwork`` driven by the columnar worklists."""

    def __init__(self, config: MeshConfig):
        # Created before super().__init__: the routers it builds cache
        # references into the readiness column and its python mirror
        # (scalar writes and small-system sweeps stay off numpy's
        # per-call overhead).
        self._router_ready = np.full(config.num_nodes, NEVER, dtype=np.int64)
        self._router_ready_py = [NEVER] * config.num_nodes
        self._small = config.num_nodes < _SCAN_THRESHOLD
        self._active_inject: set[int] = set()
        super().__init__(config)

    def _build_routers(self) -> list[Router]:
        config = self.config
        return [
            VectorRouter(
                node=i,
                side=self.side,
                num_vcs=config.num_vcs,
                buffer_flits=config.buffer_flits,
                router_latency=config.router_latency,
                link_latency=config.link_latency,
                deliver=self._on_eject,
                engine=self,
            )
            for i in range(config.num_nodes)
        ]

    # -- Interconnect interface -----------------------------------------

    def try_send(self, packet: Packet, cycle: int) -> bool:
        accepted = super().try_send(packet, cycle)
        if accepted:
            self._active_inject.add(packet.src)
        return accepted

    def _inject(self, node: int, cycle: int) -> None:
        # Reference semantics, fused (no credits()/vc_free() dispatch).
        state = self._inject_state[node]
        router = self.routers[node]
        local = router.inputs[_LOCAL]
        if state is None:
            queue = self._inject_queues[node]
            if not queue:
                return
            packet = queue[0]
            for vc in range(self.config.num_vcs):
                buf = local[vc]
                if buf.owner is None and buf.capacity > len(buf.flits):
                    break
            else:
                return  # all local VCs busy or full
            queue.popleft()
            packet.first_tx_cycle = cycle
            packet.final_tx_cycle = cycle
            flits = self._make_flits(packet, self.config.flits_for(packet.flits))
            state = (flits, vc)
            self._inject_state[node] = state
        flits, vc = state
        if local[vc].capacity <= len(local[vc].flits):
            return
        flit = flits.pop(0)
        router.accept_flit(_LOCAL, vc, flit, cycle + 1)
        if not flits:
            self._inject_state[node] = None
            if not self._inject_queues[node]:
                self._active_inject.discard(node)

    def tick(self, cycle: int) -> None:
        deliveries = self._deliveries.pop(cycle, None)
        if deliveries is not None:
            for packet in deliveries:  # arrival order
                self._deliver(packet, cycle)
            if self.post_delivery is not None:
                self.post_delivery()  # drain the coherence mailbox
        if self._active_inject:
            # Ascending order replays the reference 0..N-1 sweep; nodes
            # not in the set have no queue and no in-progress packet, so
            # their _inject would return without touching anything.
            for node in sorted(self._active_inject):
                self._inject(node, cycle)
        routers = self.routers
        if self._small:
            for node, ready in enumerate(self._router_ready_py):
                if ready <= cycle:
                    routers[node].tick(cycle)
        else:
            for node in due_indices(self._router_ready, cycle).tolist():
                routers[node].tick(cycle)

    # -- derived columns & invariants ------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Bulk per-VC state derived from the router objects.

        ``occ[node, port, vc]`` (buffered flits), ``owner`` (VC
        allocated), ``route`` (owner's route port code, -1 when free)
        and ``head_ready`` (:data:`NEVER` when empty) — the columnar
        view the audits and scaling checks consume.
        """
        shape = (self.num_nodes, _NUM_PORTS, self.config.num_vcs)
        occ = np.zeros(shape, dtype=np.int64)
        owner = np.zeros(shape, dtype=bool)
        route = np.full(shape, -1, dtype=np.int64)
        head_ready = np.full(shape, NEVER, dtype=np.int64)
        for router in self.routers:
            node = router.node
            for port in Port:
                for vc, buffer in enumerate(router.inputs[port]):
                    occ[node, port, vc] = len(buffer.flits)
                    owner[node, port, vc] = buffer.owner is not None
                    if buffer.owner is not None:
                        route[node, port, vc] = buffer.route_port.value
                    if buffer.flits:
                        head_ready[node, port, vc] = buffer.flits[0][0]
        return {
            "occ": occ, "owner": owner, "route": route,
            "head_ready": head_ready,
        }

    def audit(self) -> None:
        """Indexes must agree with the object state they mirror."""
        cols = self.columns()
        nodes: list[int] = []
        dsts: list[int] = []
        codes: list[int] = []
        for router in self.routers:
            node = router.node
            ready_min = NEVER
            for port in Port:
                for vc, buffer in enumerate(router.inputs[port]):
                    if buffer.flits:
                        ready_min = min(ready_min, buffer.flits[0][0])
                    if buffer.owner is not None:
                        nodes.append(node)
                        dsts.append(buffer.owner.dst)
                        codes.append(int(cols["route"][node, port, vc]))
                    in_index = (
                        (port, vc) in router._requesters[buffer.route_port]
                        if buffer.route_port is not None
                        else False
                    )
                    assert in_index == bool(buffer.flits)
            assert router._ready_min == ready_min
            assert self._router_ready[node] == ready_min
            assert self._router_ready_py[node] == ready_min
            total = sum(
                len(r) for reqs in router._requesters.values() for r in [reqs]
            )
            assert total == len(router._occupied)
        if nodes:
            expected = xy_route_codes(
                np.asarray(nodes), np.asarray(dsts), self.side
            )
            assert np.array_equal(expected, np.asarray(codes))
        # The bulk injectability mask must match the per-node VC scan.
        local = cols["owner"][:, _LOCAL.value], cols["occ"][:, _LOCAL.value]
        mask = allocatable_vc_mask(local[0], local[1], self.config.buffer_flits)
        for node in range(self.num_nodes):
            assert mask[node] == (
                self._allocate_injection_vc(self.routers[node]) is not None
            )
            busy = self._inject_state[node] is not None or bool(
                self._inject_queues[node]
            )
            assert not busy or node in self._active_inject
