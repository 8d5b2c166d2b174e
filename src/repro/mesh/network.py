"""The mesh interconnect: routers + network interfaces.

Wires a k-ary 2-mesh of :class:`repro.mesh.router.Router` together and
adapts it to the common :class:`repro.net.Interconnect` interface.  Each
node's network interface holds an injection queue; packets are cut into
72-bit flits (1 for meta, 5 for data) and injected into the local input
port under the same VC-allocation/credit rules as any other hop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.mesh.router import Flit, Router
from repro.mesh.routing import Port, mesh_hops, mesh_side, neighbor
from repro.net.interface import Interconnect
from repro.net.packet import Packet

__all__ = ["MeshConfig", "MeshNetwork"]


@dataclass(frozen=True)
class MeshConfig:
    """Mesh parameters (Table 3 defaults: 4 VCs, 12-flit buffers,
    4-cycle routers, 1-cycle links).

    ``bandwidth_scale`` models the Figure 11 sensitivity sweep: links
    narrower than the 72-bit flit stretch every packet over
    proportionally more flits (0.5 = half-width links).
    """

    num_nodes: int = 16
    num_vcs: int = 4
    buffer_flits: int = 12
    router_latency: int = 4
    link_latency: int = 1
    injection_queue: int = 64
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        mesh_side(self.num_nodes)  # validates squareness
        if self.injection_queue < 1:
            raise ValueError("injection queue must hold at least 1 packet")
        if not 0.1 <= self.bandwidth_scale <= 1.0:
            raise ValueError(f"bandwidth scale out of (0.1, 1]: {self.bandwidth_scale}")

    def flits_for(self, packet_flits: int) -> int:
        """Flit count after link-width scaling."""
        import math

        return math.ceil(packet_flits / self.bandwidth_scale)


class MeshNetwork(Interconnect):
    """Cycle-level k-ary 2-mesh with wormhole VC routers."""

    def __init__(self, config: MeshConfig):
        super().__init__(config.num_nodes)
        self.config = config
        self.side = mesh_side(config.num_nodes)
        self.routers = self._build_routers()
        for i, router in enumerate(self.routers):
            for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH):
                try:
                    router.downstream[port] = self.routers[neighbor(i, port, self.side)]
                except ValueError:
                    pass  # mesh edge
        self._inject_queues: list[deque[Packet]] = [
            deque() for _ in range(config.num_nodes)
        ]
        # In-progress injection: remaining flits of the packet currently
        # being pushed into the local port, plus its allocated VC.
        self._inject_state: list[tuple[list[Flit], int] | None] = [
            None
        ] * config.num_nodes
        self._deliveries: dict[int, list[Packet]] = {}
        self._hops = self.stats.group.latency("hops")

    def _build_routers(self) -> list[Router]:
        """Router construction hook; the vector engine substitutes its
        write-through subclass here (``repro.mesh.vector``)."""
        config = self.config
        return [
            Router(
                node=i,
                side=self.side,
                num_vcs=config.num_vcs,
                buffer_flits=config.buffer_flits,
                router_latency=config.router_latency,
                link_latency=config.link_latency,
                deliver=self._on_eject,
            )
            for i in range(config.num_nodes)
        ]

    # -- Interconnect interface ----------------------------------------------

    def can_accept(self, node, lane) -> bool:  # noqa: D102 - see base class
        self._check_node(node)
        return len(self._inject_queues[node]) < self.config.injection_queue

    def try_send(self, packet: Packet, cycle: int) -> bool:
        self._check_node(packet.src)
        self._check_node(packet.dst)
        queue = self._inject_queues[packet.src]
        if len(queue) >= self.config.injection_queue:
            self.stats.refused.add()
            return False
        packet.enqueue_cycle = cycle
        packet.scheduled_cycle = cycle  # mesh has no intentional scheduling
        queue.append(packet)
        self.stats.sent.add()
        self.stats.bits_sent.add(packet.bits)
        return True

    def tick(self, cycle: int) -> None:
        # Ejections scheduled for this cycle.
        deliveries = self._deliveries.pop(cycle, None)
        if deliveries is not None:
            for packet in deliveries:  # arrival order
                self._deliver(packet, cycle)
            if self.post_delivery is not None:
                self.post_delivery()  # drain the coherence mailbox
        for node in range(self.num_nodes):
            self._inject(node, cycle)
        for router in self.routers:
            router.tick(cycle)

    def quiescent(self) -> bool:
        if self._deliveries:
            return False
        if any(self._inject_queues) or any(s is not None for s in self._inject_state):
            return False
        return all(router.occupancy() == 0 for router in self.routers)

    # -- injection / ejection -----------------------------------------------

    def _inject(self, node: int, cycle: int) -> None:
        """Push at most one flit per cycle into the local input port."""
        state = self._inject_state[node]
        router = self.routers[node]
        if state is None:
            queue = self._inject_queues[node]
            if not queue:
                return
            packet = queue[0]
            vc = self._allocate_injection_vc(router)
            if vc is None:
                return  # all local VCs busy or full
            queue.popleft()
            packet.first_tx_cycle = cycle
            packet.final_tx_cycle = cycle
            flits = self._make_flits(packet, self.config.flits_for(packet.flits))
            state = (flits, vc)
            self._inject_state[node] = state
        flits, vc = state
        if router.credits(Port.LOCAL, vc) <= 0:
            return
        flit = flits.pop(0)
        router.accept_flit(Port.LOCAL, vc, flit, cycle + 1)
        if not flits:
            self._inject_state[node] = None

    def _allocate_injection_vc(self, router: Router) -> int | None:
        for vc in range(self.config.num_vcs):
            if router.vc_free(Port.LOCAL, vc) and router.credits(Port.LOCAL, vc) > 0:
                return vc
        return None

    @staticmethod
    def _make_flits(packet: Packet, count: int) -> list[Flit]:
        return [
            Flit(
                packet=packet,
                index=i,
                is_head=(i == 0),
                is_tail=(i == count - 1),
            )
            for i in range(count)
        ]

    def _on_eject(self, packet: Packet, cycle: int) -> None:
        """Router ejection callback; delivery is stamped at ``cycle``."""
        self._hops.record(mesh_hops(packet.src, packet.dst, self.side))
        self._deliveries.setdefault(cycle, []).append(packet)

    # -- energy accounting -----------------------------------------------------

    def activity(self) -> dict[str, int]:
        """Aggregate switching activity for the Orion-style energy model."""
        return {
            "flits_routed": sum(r.flits_routed for r in self.routers),
            "buffer_writes": sum(r.buffer_writes for r in self.routers),
            "buffer_reads": sum(r.buffer_reads for r in self.routers),
            "link_flits": sum(r.link_flits for r in self.routers),
        }
