"""A canonical 4-stage virtual-channel wormhole router.

Models the baseline router of §6/§7.1: route computation, VC allocation,
switch allocation and switch traversal, abstracted as a fixed
``router_latency`` per traversal with one-flit-per-cycle throughput per
output port, plus credit-based flow control against finite downstream
buffers (4 VCs x 12 flits per input port by default, Table 3).

Timing model: when a flit wins switch allocation it leaves its input
buffer, and appears in the downstream input buffer ``router_latency +
link_latency`` cycles later (it occupies the downstream slot from the
moment it is sent — in-flight flits count against credits, as in a real
credit loop).  Head flits additionally need a free downstream VC
(packet-granularity VC allocation, wormhole body flits follow their
head).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.mesh.routing import Port, xy_route
from repro.net.packet import Packet
from repro.obs.trace import TRACE

__all__ = ["Flit", "Router"]


@dataclass
class Flit:
    """One 72-bit flit of a packet."""

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool


class _VcBuffer:
    """One virtual-channel FIFO at an input port."""

    __slots__ = ("capacity", "flits", "owner", "route_port", "out_vc")

    def __init__(self, capacity: int):
        self.capacity = capacity
        # Entries are (ready_cycle, flit): a flit occupies its slot from
        # the moment the upstream router sends it, becoming processable
        # at ready_cycle.
        self.flits: deque[tuple[int, Flit]] = deque()
        self.owner: Optional[Packet] = None    # packet currently using this VC
        self.route_port: Optional[Port] = None  # RC result for the owner
        self.out_vc: Optional[int] = None       # VA result for the owner

    def free_slots(self) -> int:
        return self.capacity - len(self.flits)

    def head_ready(self, cycle: int) -> Optional[Flit]:
        if self.flits and self.flits[0][0] <= cycle:
            return self.flits[0][1]
        return None


class Router:
    """One mesh router.

    Parameters
    ----------
    node:
        This router's node id.
    side:
        Mesh side length (for XY routing).
    num_vcs, buffer_flits:
        Virtual channels per input port and flits per VC buffer.
    router_latency, link_latency:
        Cycles per router traversal and per link.
    deliver:
        Callback ``(packet, cycle)`` invoked when a tail flit ejects at
        the local port.
    """

    def __init__(
        self,
        node: int,
        side: int,
        num_vcs: int,
        buffer_flits: int,
        router_latency: int,
        link_latency: int,
        deliver: Callable[[Packet, int], None],
    ):
        if num_vcs < 1 or buffer_flits < 1:
            raise ValueError("need at least 1 VC and 1 buffer slot")
        if router_latency < 1 or link_latency < 0:
            raise ValueError("router latency >= 1, link latency >= 0")
        self.node = node
        self.side = side
        self.num_vcs = num_vcs
        self.router_latency = router_latency
        self.link_latency = link_latency
        self.deliver = deliver
        self.inputs: dict[Port, list[_VcBuffer]] = {
            port: [_VcBuffer(buffer_flits) for _ in range(num_vcs)] for port in Port
        }
        # Wired by the network: downstream router per non-local output.
        self.downstream: dict[Port, "Router"] = {}
        self._arbiter_state: dict[Port, int] = {port: 0 for port in Port}
        self._buffered = 0  # total flits across all input buffers (fast path)
        self._occupied: set[tuple[Port, int]] = set()  # non-empty (port, vc)
        # Counters consumed by the Orion-style energy model.
        self.flits_routed = 0
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.link_flits = 0

    # -- upstream-facing ----------------------------------------------------

    def accept_flit(self, port: Port, vc: int, flit: Flit, ready_cycle: int) -> None:
        """Place ``flit`` into input buffer (slot was reserved by credits)."""
        buffer = self.inputs[port][vc]
        if buffer.free_slots() <= 0:
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
        buffer.flits.append((ready_cycle, flit))
        self._buffered += 1
        self._occupied.add((port, vc))
        self.buffer_writes += 1

    def credits(self, port: Port, vc: int) -> int:
        """Free downstream-buffer slots for (``port``, ``vc``)."""
        return self.inputs[port][vc].free_slots()

    def vc_free(self, port: Port, vc: int) -> bool:
        """Whether input VC ``vc`` at ``port`` is unallocated."""
        return self.inputs[port][vc].owner is None

    # -- per-cycle operation ---------------------------------------------

    def tick(self, cycle: int) -> None:
        """One cycle: each output port forwards at most one flit."""
        if self._buffered == 0:
            return
        for out_port in Port:
            self._arbitrate_output(out_port, cycle)

    def _arbitrate_output(self, out_port: Port, cycle: int) -> None:
        candidates = self._candidates(out_port, cycle)
        if not candidates:
            return
        # Round-robin among (input port, vc) requesters.
        start = self._arbiter_state[out_port]
        order = sorted(candidates, key=lambda item: (item[0] - start) % 1000)
        key, buffer, flit = order[0][1]
        self._arbiter_state[out_port] = order[0][0] + 1
        self._forward(out_port, key, buffer, flit, cycle)

    def _candidates(self, out_port: Port, cycle: int):
        """Input VCs with a ready head flit routed to ``out_port``.

        Only occupied buffers are inspected — the arbitration scan is
        the simulator's hottest loop.
        """
        out = []
        # Sorted iteration keeps runs deterministic (sets are unordered).
        for in_port, vc in sorted(self._occupied):
            buffer = self.inputs[in_port][vc]
            if buffer.route_port is not out_port:
                continue
            flit = buffer.head_ready(cycle)
            if flit is None:
                continue
            if not self._flow_control_ok(out_port, buffer, flit):
                continue
            index = in_port.value * self.num_vcs + vc + 1
            out.append((index, ((in_port, vc), buffer, flit)))
        return out

    def _flow_control_ok(self, out_port: Port, buffer: _VcBuffer, flit: Flit) -> bool:
        if out_port is Port.LOCAL:
            return True  # ejection is never blocked
        downstream = self.downstream[out_port]
        from repro.mesh.routing import opposite

        in_port = opposite(out_port)
        if flit.is_head and buffer.out_vc is None:
            # VC allocation: need a free downstream VC with a credit.
            for vc in range(self.num_vcs):
                if downstream.vc_free(in_port, vc) and downstream.credits(
                    in_port, vc
                ) > 0:
                    return True
            return False
        return downstream.credits(in_port, buffer.out_vc) > 0

    def _forward(
        self,
        out_port: Port,
        key: tuple[Port, int],
        buffer: _VcBuffer,
        flit: Flit,
        cycle: int,
    ) -> None:
        buffer.flits.popleft()
        self._buffered -= 1
        if not buffer.flits:
            self._occupied.discard(key)
        self.buffer_reads += 1
        self.flits_routed += 1

        if out_port is Port.LOCAL:
            if flit.is_tail:
                if TRACE.enabled:
                    TRACE.emit(
                        "eject", cat="mesh",
                        cycle=cycle + self.router_latency,
                        node=self.node, packet=flit.packet.uid,
                        src=flit.packet.src,
                    )
                self.deliver(flit.packet, cycle + self.router_latency)
                self._release_vc(buffer)
            return

        downstream = self.downstream[out_port]
        from repro.mesh.routing import opposite

        in_port = opposite(out_port)
        if flit.is_head and buffer.out_vc is None:
            buffer.out_vc = next(
                vc
                for vc in range(self.num_vcs)
                if downstream.vc_free(in_port, vc)
                and downstream.credits(in_port, vc) > 0
            )
        self.link_flits += 1
        arrival = cycle + self.router_latency + self.link_latency
        downstream.accept_flit(in_port, buffer.out_vc, flit, arrival)
        if flit.is_tail:
            self._release_vc(buffer)

    @staticmethod
    def _release_vc(buffer: _VcBuffer) -> None:
        buffer.owner = None
        buffer.route_port = None
        buffer.out_vc = None

    def occupancy(self) -> int:
        """Total buffered flits (for drain checks)."""
        return sum(
            len(vc.flits) for vcs in self.inputs.values() for vc in vcs
        )
