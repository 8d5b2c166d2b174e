"""The CMP system: cores + coherence + interconnect + memory.

One :class:`CmpSystem` corresponds to one row of the paper's
experiments: an application signature running on N nodes over a chosen
interconnect.  The system owns the translation between coherence
messages and network packets, including the §5 optimization wiring:

* request packets are flagged ``expects_data_reply`` (request spacing
  and resolution hints key off this);
* sharer invalidations flagged ``ack_via_confirmation`` get an
  ``on_confirmed`` hook that synthesizes the InvAck at the directory
  when the FSOI confirmation arrives (§5.1);
* split writebacks announce themselves so the home node expects the
  data packet (§5.2);
* barrier/lock releases reach subscribed waiters as confirmation-channel
  signals instead of invalidation storms (§5.1).

Local traffic (an L1 talking to the directory slice on its own node)
bypasses the network with a one-cycle latency, as in the paper's
simulator.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional, Union

from repro.coherence.directory import DirectoryConfig, DirectoryController
from repro.coherence.l1 import L1Config, L1Controller
from repro.coherence.messages import CoherenceMessage, MsgType
from repro.core.lanes import LaneConfig
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.corona.network import CoronaConfig, CoronaNetwork
from repro.cpu.core import Core, CoreConfig, CoreState
from repro.cpu.memctrl import MemoryConfig, MemoryController
from repro.cpu.sync import SyncManager
from repro.cmp.results import CmpResults
from repro.faults.plan import FaultPlan
from repro.mesh.ideal import IdealConfig, IdealNetwork
from repro.mesh.network import MeshConfig, MeshNetwork
from repro.net.packet import Packet, make_packet
from repro.obs.profile import PROFILER
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TIMELINE
from repro.obs.trace import TRACE
from repro.util.events import CycleCalendar
from repro.util.rng import RngHub
from repro.util.stats import Histogram
from repro.workloads.splash2 import (
    AppSignature,
    AppWorkload,
    signature,
    warm_lines,
)

__all__ = ["CmpConfig", "CmpSystem", "run_app", "NETWORK_KINDS"]

NETWORK_KINDS = ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")

#: Message types handled by the directory slice (vs. the L1 / memory).
_DIRECTORY_TYPES = frozenset(
    {
        MsgType.REQ_SH, MsgType.REQ_EX, MsgType.REQ_UPG,
        MsgType.WRITEBACK, MsgType.WB_ANNOUNCE,
        MsgType.INV_ACK, MsgType.INV_ACK_DATA,
        MsgType.DWG_ACK, MsgType.DWG_ACK_DATA,
        MsgType.MEM_ACK,
    }
)
_MEMORY_TYPES = frozenset({MsgType.MEM_READ, MsgType.MEM_WRITE})

#: §4.4 per-line ordering sentinel: a line with a message in flight but
#: nothing queued behind it.  Shared so ``_send_from`` does not allocate
#: a deque for the common line that never queues a second message.
_LINE_IN_FLIGHT: tuple = ()


@dataclass(frozen=True)
class CmpConfig:
    """One experiment's configuration (Table 3 defaults)."""

    num_nodes: int = 16
    app: Union[str, AppSignature] = "ba"
    network: str = "fsoi"
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig.none
    )
    memory_gbps: float = 8.8
    num_memory_channels: Optional[int] = None  # 4 (16-node) / 8 (64-node)
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: L1Config = field(default_factory=L1Config)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    #: Figure 11 sensitivity knobs: narrower FSOI lanes / mesh links.
    fsoi_lanes: Optional["LaneConfig"] = None
    mesh_bandwidth_scale: float = 1.0
    #: §4.3.1 engineering-margin studies: probability a solo FSOI packet
    #: is corrupted by signaling errors (handled like a collision).
    fsoi_packet_error_rate: float = 0.0
    #: Fault-injection schedule (repro.faults, docs/faults.md).  An
    #: empty plan is passive; non-empty plans are FSOI-only — faults
    #: model the optical substrate's failure modes.
    faults: Optional[FaultPlan] = None
    local_latency: int = 1
    #: Pre-populate the L2/directory with the workload's reuse pools so
    #: runs measure steady state rather than the cold-start transient
    #: (the paper measures inside the parallel sections, long after the
    #: data is first touched).  Streaming regions stay cold by design.
    warm_start: bool = True
    #: Columnar vectorized engines: the cores phase keeps per-node
    #: counters and deadlines in numpy arrays with replayed RNG draws,
    #: the network tick (mesh and FSOI) derives per-cycle worklists
    #: from write-through readiness columns, and coherence messages
    #: batch through a per-cycle mailbox into fused per-type kernels
    #: (repro.coherence.vector), so passive nodes/routers/lanes cost
    #: nothing per cycle and protocol dispatch sheds its layers of
    #: indirection (docs/performance.md).  Results
    #: are bit-identical either way; disable here (or via
    #: REPRO_NO_VECTOR=1) to run the object-per-entity reference loops.
    vectorized: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.network not in NETWORK_KINDS:
            raise ValueError(
                f"unknown network {self.network!r}; choose from {NETWORK_KINDS}"
            )
        opts = self.optimizations
        any_opts = (
            opts.confirmation_ack or opts.llsc_subscription
            or opts.request_spacing or opts.resolution_hints
            or opts.split_writeback
        )
        if any_opts and self.network != "fsoi":
            raise ValueError(
                "the §5 optimizations rely on the FSOI confirmation "
                f"channel; network {self.network!r} cannot use them"
            )
        if (
            self.faults is not None
            and not self.faults.is_empty()
            and self.network != "fsoi"
        ):
            raise ValueError(
                "fault plans model the FSOI optical substrate; network "
                f"{self.network!r} cannot use them"
            )

    @property
    def app_signature(self) -> AppSignature:
        if isinstance(self.app, AppSignature):
            return self.app
        return signature(self.app)

    @property
    def memory_channels(self) -> int:
        if self.num_memory_channels is not None:
            return self.num_memory_channels
        return 4 if self.num_nodes <= 16 else 8


class CmpSystem:
    """One full chip: build with a config, then :meth:`run`."""

    def __init__(self, config: CmpConfig):
        self.config = config
        self.cycle = 0
        n = config.num_nodes
        self._rng = RngHub(config.seed)

        # The vectorized flag covers both columnar engines — the cores
        # phase (repro.cpu.vector) and the network tick (repro.mesh.vector
        # / repro.core.vector) — so it must be resolved before the
        # network is built.
        self._vector_on = config.vectorized and os.environ.get(
            "REPRO_NO_VECTOR", ""
        ) in ("", "0")
        self.network = self._build_network()
        self._is_fsoi = isinstance(self.network, FsoiNetwork)
        self._calendar = CycleCalendar()
        self._overflow: list[deque[Packet]] = [deque() for _ in range(n)]
        self._due = self._calendar._heap  # cached guard (never rebound)
        self._overflow_active: set[int] = set()  # nodes with queued packets
        # Per-system packet ids: the global default factory in
        # :class:`Packet` depends on process history, which would make
        # trace streams (``args.packet``) differ between otherwise
        # identical runs.  Allocating from a per-instance counter keeps
        # seeded traces byte-reproducible across runs and engines.
        self._packet_uid = itertools.count()
        # §4.4 per-line ordering: (node, line) -> queued (msg, delay)
        # deque, or the _LINE_IN_FLIGHT sentinel when nothing is queued.
        self._line_pending: dict[tuple[int, int], "deque | tuple"] = {}

        # Memory controllers, evenly spread over the nodes.
        channels = config.memory_channels
        self.controller_nodes = [
            round((i + 0.5) * n / channels) % n for i in range(channels)
        ]
        mem_config = MemoryConfig.from_gbps(config.memory_gbps)
        self.memory = {
            node: MemoryController(node, self._sender_for(node), mem_config)
            for node in self.controller_nodes
        }

        # Coherence substrate.
        opts = config.optimizations
        l1_config = replace(
            config.l1,
            confirmation_ack=opts.confirmation_ack,
            split_writeback=opts.split_writeback,
        )
        dir_config = replace(
            config.directory, confirmation_ack=opts.confirmation_ack
        )
        self.l1s = [
            L1Controller(
                node, self._sender_for(node), self.home_of, l1_config
            )
            for node in range(n)
        ]
        self.directories = [
            DirectoryController(
                node, self._sender_for(node), self.memory_node_of, dir_config
            )
            for node in range(n)
        ]

        # Cores and synchronization.  The vectorized engine and the
        # object-per-node loop are bit-exact alternatives
        # (tests/cmp/test_vector_equivalence.py); the replayed RNGs
        # reproduce the named streams' exact draw sequences.
        self.sync = SyncManager(n, subscription=opts.llsc_subscription)
        app = config.app_signature
        self.app_label = app.label
        if self._vector_on:
            from repro.cpu.vector import (
                ColumnarCore,
                ReplayRng,
                VectorCoreEngine,
            )
            from repro.util.rng import derive_seed

            self._vector = VectorCoreEngine(self)
            self.cores = [
                ColumnarCore(
                    self._vector,
                    node,
                    AppWorkload(app, node, n),
                    self.l1s[node],
                    self.sync,
                    config.core,
                    rng=ReplayRng(derive_seed(config.seed, f"core.{node}")),
                    stats=self._vector.stats_for(node),
                )
                for node in range(n)
            ]
            self._core_phase = self._vector.core_phase
        else:
            self._vector = None
            self.cores = [
                Core(
                    node,
                    AppWorkload(app, node, n),
                    self.l1s[node],
                    self.sync,
                    config.core,
                    rng=self._rng.stream(f"core.{node}"),
                )
                for node in range(n)
            ]
            self._core_phase = self._tick_cores
        self._controllers = tuple(self.memory.values())
        if opts.llsc_subscription:
            self.sync.on_barrier_release = self._signal_barrier_release
            self.sync.on_lock_release = self._signal_lock_release

        # Figure 5: read-miss request -> reply latency distribution.
        self._request_issue: dict[tuple[int, int], int] = {}
        self.reply_latency = Histogram("reply_latency", 0, 200, 20)

        # Columnar coherence engine (repro.coherence.vector): deliveries
        # collect into a per-cycle mailbox the network drains between
        # its delivery and transmit phases, and hot stable-state
        # transitions run as fused per-MsgType kernels.  Bit-exact with
        # the inline reference dispatch kept below
        # (tests/coherence/test_vector_equivalence.py).
        if self._vector_on:
            from repro.coherence.vector import CoherenceVectorEngine

            self._coherence = CoherenceVectorEngine(self)
            on_packet = self._coherence.on_packet
            self.network.post_delivery = self._coherence.drain
        else:
            self._coherence = None
            on_packet = self._on_packet
        for node in range(n):
            self.network.set_delivery_callback(node, on_packet)

        if config.warm_start:
            self._warm_start()

    def _warm_start(self) -> None:
        """Pre-populate caches with the steady-state working set.

        Reuse/sync lines become valid in their home L2 slice (DV); each
        core's private *hot set* is additionally installed in its L1 in
        E state (directory DM with that core as owner) — those lines are
        resident essentially always once the parallel section is warm,
        and without this every run would start with an unrepresentative
        compulsory-miss burst.
        """
        from repro.coherence.directory import DirState
        from repro.coherence.l1 import L1State

        app = self.config.app_signature
        hot: dict[int, int] = {}  # line -> owning node
        for node, core in enumerate(self.cores):
            workload = core.workload
            for line in workload.reuse_lines()[: app.hot_lines]:
                hot[line] = node
        if self.config.directory.capacity_lines is not None:
            # Bounded slices count live entries for capacity pressure,
            # so the warm set must be materialized eagerly.
            from repro.cpu.sync import SyncManager as SM

            lines: set[int] = set()
            for core in self.cores:
                lines.update(core.workload.reuse_lines())
            lines.update(self.cores[0].workload.shared_lines())
            lines.add(SM.barrier_line())
            lines.update(SM.lock_line(i) for i in range(app.lock_count))
            for line in lines:
                entry = self.directories[self.home_of(line)].entry(line)
                owner = hot.get(line)
                if owner is None:
                    entry.state = DirState.DV
                    continue
                entry.state = DirState.DM
                entry.sharers = {owner}
                l1 = self.l1s[owner]
                l1.array.insert(line)
                l1._states[line] = L1State.E
            return
        # Unbounded slices (the calibrated default): only the L1-hot
        # lines get real entries; the DV bulk is one arithmetic warm
        # set shared across slices (home-partitioned, so no two slices
        # ever ask about one line) and materialized on first touch.
        for line, owner in hot.items():
            entry = self.directories[self.home_of(line)].entry(line)
            entry.state = DirState.DM
            entry.sharers = {owner}
            l1 = self.l1s[owner]
            l1.array.insert(line)
            l1._states[line] = L1State.E
        warm = warm_lines(app, self.config.num_nodes)
        for directory in self.directories:
            directory.preload_valid(warm)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_network(self):
        config = self.config
        n = config.num_nodes
        kind = config.network
        if kind == "fsoi":
            fsoi_kwargs = {}
            if config.fsoi_lanes is not None:
                fsoi_kwargs["lanes"] = config.fsoi_lanes
            if config.faults is not None:
                fsoi_kwargs["faults"] = config.faults
            fsoi_cls = FsoiNetwork
            if self._vector_on:
                from repro.core.vector import VectorFsoiNetwork

                fsoi_cls = VectorFsoiNetwork
            return fsoi_cls(
                FsoiConfig(
                    num_nodes=n,
                    optimizations=config.optimizations,
                    phase_array=n > 16,
                    packet_error_rate=config.fsoi_packet_error_rate,
                    seed=config.seed,
                    **fsoi_kwargs,
                ),
                rng=self._rng.child("fsoi"),
            )
        if kind == "mesh":
            mesh_cls = MeshNetwork
            if self._vector_on:
                from repro.mesh.vector import VectorMeshNetwork

                mesh_cls = VectorMeshNetwork
            return mesh_cls(
                MeshConfig(
                    num_nodes=n, bandwidth_scale=config.mesh_bandwidth_scale
                )
            )
        if kind == "l0":
            return IdealNetwork(IdealConfig.l0(n))
        if kind == "lr1":
            return IdealNetwork(IdealConfig.lr1(n))
        if kind == "lr2":
            return IdealNetwork(IdealConfig.lr2(n))
        if kind == "corona":
            return CoronaNetwork(CoronaConfig(num_nodes=n))
        raise ValueError(f"unknown network kind {kind!r}")  # pragma: no cover

    def home_of(self, line: int) -> int:
        """Home directory slice of a line (address-interleaved)."""
        return line % self.config.num_nodes

    def memory_node_of(self, line: int) -> int:
        """Node hosting the memory channel that serves ``line``."""
        index = self.home_of(line) % self.config.memory_channels
        return self.controller_nodes[index]

    def _sender_for(self, node: int):
        def send(msg: CoherenceMessage, delay: int) -> None:
            self._send_from(node, msg, delay)

        return send

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------

    def _send_from(self, node: int, msg: CoherenceMessage, delay: int) -> None:
        """Send with per-line point-to-point ordering (paper §4.4).

        A node delays any further message about a cache line until its
        previous message about that line has been delivered — the
        serialization the paper uses to cut down transient states.
        Without it, a meta-lane DwgAck can overtake the data-lane
        WriteBack it logically follows, which Table 2 does not handle.
        """
        if msg.mtype.is_request and msg.sender == msg.requester:
            self._request_issue[(msg.requester, msg.line)] = self.cycle
        key = (node, msg.line)
        pending = self._line_pending.get(key)
        if pending is None:
            # Mark the line in flight with the shared sentinel; the real
            # deque is only allocated if a second message actually queues
            # behind this one (most lines never do).
            self._line_pending[key] = _LINE_IN_FLIGHT
            self._transmit(node, msg, delay)
            return
        if pending is _LINE_IN_FLIGHT:
            pending = self._line_pending[key] = deque()
        pending.append((msg, delay))

    def _transmit(self, node: int, msg: CoherenceMessage, delay: int) -> None:
        # Inlines _at so the common immediate case (delay 0, remote)
        # neither allocates the action closure nor pays the extra frame.
        cycle = self.cycle
        if msg.dest == node:
            due = cycle + delay + self.config.local_latency
            if due <= cycle:
                self._complete_local(node, msg)
                return
            self._calendar.schedule(
                due, lambda: self._complete_local(node, msg)
            )
            return
        due = cycle + delay
        if due <= cycle:
            self._inject(node, msg)
            return
        self._calendar.schedule(due, lambda: self._inject(node, msg))

    def _complete_local(self, node: int, msg: CoherenceMessage) -> None:
        engine = self._coherence
        if engine is not None:
            engine.complete_local(node, msg)
            return
        if PROFILER.enabled:
            t0 = perf_counter()
            self._dispatch(msg.dest, msg)
            self._release_line(node, msg.line)
            PROFILER.add("coherence", perf_counter() - t0)
            return
        self._dispatch(msg.dest, msg)
        self._release_line(node, msg.line)

    def _release_line(self, node: int, line: int) -> None:
        key = (node, line)
        pending = self._line_pending.get(key)
        if pending is None:
            return
        if pending:
            msg, delay = pending.popleft()
            self._transmit(node, msg, delay)
        else:
            del self._line_pending[key]

    def _inject(self, node: int, msg: CoherenceMessage) -> None:
        packet = self._packetize(node, msg)
        queue = self._overflow[node]
        if queue or not self.network.try_send(packet, self.cycle):
            queue.append(packet)
            self._overflow_active.add(node)

    def _packetize(self, node: int, msg: CoherenceMessage) -> Packet:
        # The packet-field booleans are precomputed per MsgType member
        # (repro.coherence.messages) and the packet is built by the
        # validation-free fast constructor: _packetize runs once per
        # remote message on the hottest send path.
        mtype = msg.mtype
        packet = make_packet(
            node,
            msg.dest,
            mtype.lane,
            msg,
            mtype.pkt_is_reply,
            mtype.pkt_is_writeback,
            mtype.pkt_is_memory,
            mtype.pkt_expects_data,
            next(self._packet_uid),
        )
        if (
            self._is_fsoi
            and mtype is MsgType.INV
            and msg.ack_via_confirmation
        ):
            home = node
            target = msg.dest
            ack = CoherenceMessage(
                mtype=MsgType.INV_ACK,
                line=msg.line,
                sender=target,
                dest=home,
                requester=msg.requester,
            )
            directory = self.directories[home]

            def _confirm_ack() -> None:
                if PROFILER.enabled:
                    t0 = perf_counter()
                    directory.handle(ack)
                    PROFILER.add("coherence", perf_counter() - t0)
                else:
                    directory.handle(ack)

            packet.on_confirmed = _confirm_ack
        return packet

    def _on_packet(self, packet: Packet) -> None:
        if PROFILER.enabled:
            t0 = perf_counter()
            self._dispatch_packet(packet)
            PROFILER.add("coherence", perf_counter() - t0)
            return
        self._dispatch_packet(packet)

    def _dispatch_packet(self, packet: Packet) -> None:
        msg = packet.payload
        if (
            self._is_fsoi
            and msg.mtype is MsgType.WB_ANNOUNCE
            and self.config.optimizations.split_writeback
        ):
            self.network.expect_data_from(msg.dest, msg.sender)
        self._dispatch(msg.dest, msg)
        self._release_line(packet.src, msg.line)

    def _dispatch(self, node: int, msg: CoherenceMessage) -> None:
        mtype = msg.mtype
        if mtype in _MEMORY_TYPES:
            self.memory[node].handle(msg, self.cycle)
            return
        if mtype in _DIRECTORY_TYPES:
            self.directories[node].handle(msg)
            return
        # L1-bound: record read-miss reply latency for Figure 5.
        if mtype in (
            MsgType.DATA_S, MsgType.DATA_E, MsgType.DATA_M, MsgType.EXC_ACK
        ):
            issued = self._request_issue.pop((node, msg.line), None)
            if issued is not None:
                self.reply_latency.record(self.cycle - issued)
        self.l1s[node].handle(msg)

    def _at(self, cycle: int, action) -> None:
        # Clamp past/present cycles to "run now": the tick sweep has
        # already passed them, so a calendar entry would never fire (the
        # stale-key bug of the old dict calendar — see its test).
        if cycle <= self.cycle:
            action()
            return
        self._calendar.schedule(cycle, action)

    # -- §5.1 subscription signals ----------------------------------------------

    def _signal_barrier_release(self, epoch: int) -> None:
        waiting = [
            core
            for core in self.cores
            if core.state is CoreState.BARRIER_WAIT
        ]
        for core in waiting:
            self._signal(core)

    def _signal_lock_release(self, lock_id: int, waiters: list[int]) -> None:
        for node in waiters:
            self._signal(self.cores[node])

    def _signal(self, core: Core) -> None:
        delay = self.network.confirmations.delay if self._is_fsoi else 1
        if self._is_fsoi:
            self.network.confirmations.send_signal(
                self.cycle, core.release_signal
            )
        else:  # pragma: no cover - guarded by CmpConfig validation
            self._at(self.cycle + delay, core.release_signal)

    # ------------------------------------------------------------------
    # the simulation loop
    # ------------------------------------------------------------------

    def tick(self) -> None:
        if PROFILER.enabled:
            self._tick_profiled()
            return
        cycle = self.cycle
        if TRACE.enabled:
            TRACE.cycle = cycle
        if TIMELINE.enabled:
            TIMELINE.on_tick(self)
        due = self._due
        if due and due[0][0] <= cycle:
            self._calendar.run_due(cycle)  # due events
        if self._overflow_active:
            self._drain_overflow(cycle)
        for controller in self._controllers:
            controller.tick(cycle)
        self.network.tick(cycle)
        self._core_phase(cycle)
        self.cycle = cycle + 1

    def _drain_overflow(self, cycle: int) -> None:
        # Node order matters for injection fairness; only nodes with a
        # backed-up queue are visited (the naive sweep's empty-queue
        # iterations were pure overhead).
        for node in sorted(self._overflow_active):
            queue = self._overflow[node]
            while queue and self.network.try_send(queue[0], cycle):
                queue.popleft()
            if not queue:
                self._overflow_active.discard(node)

    def _tick_cores(self, cycle: int) -> None:
        """The reference cores phase: tick every core object."""
        for core in self.cores:
            core.tick(cycle)

    def _tick_profiled(self) -> None:
        """The :meth:`tick` body with per-subsystem wall-time attribution.

        Kept as a separate method so the common (profiling-off) path
        pays nothing; the subsystem order must mirror :meth:`tick`.
        """
        cycle = self.cycle
        if TRACE.enabled:
            TRACE.cycle = cycle
        if TIMELINE.enabled:
            TIMELINE.on_tick(self)
        # Coherence dispatch runs *inside* the calendar window (local
        # completions) and the network window (packet deliveries); the
        # dispatch sites accrue against "coherence" and the enclosing
        # windows subtract the delta, so handler cost is attributed to
        # the protocol rather than lumped into transport.
        t0 = perf_counter()
        coh0 = PROFILER.phase_seconds("coherence")
        due = self._due
        if due and due[0][0] <= cycle:
            self._calendar.run_due(cycle)  # due events
        t1 = perf_counter()
        coh1 = PROFILER.phase_seconds("coherence")
        PROFILER.add("calendar", (t1 - t0) - (coh1 - coh0))
        if self._overflow_active:
            self._drain_overflow(cycle)
        t2 = perf_counter()
        PROFILER.add("overflow", t2 - t1)
        for controller in self._controllers:
            controller.tick(cycle)
        t3 = perf_counter()
        PROFILER.add("memory", t3 - t2)
        self.network.tick(cycle)
        t4 = perf_counter()
        coh2 = PROFILER.phase_seconds("coherence")
        PROFILER.add("network", (t4 - t3) - (coh2 - coh1))
        self._core_phase(cycle)
        PROFILER.add("cores", perf_counter() - t4)
        PROFILER.cycle_done()
        self.cycle = cycle + 1

    def run(self, cycles: int) -> CmpResults:
        """Simulate ``cycles`` cycles and collect the results."""
        target = self.cycle + cycles
        while self.cycle < target:
            self.tick()
        if TIMELINE.enabled:
            TIMELINE.on_run_end(self)  # final (possibly partial) window
        return self._results()

    def run_until_instructions(
        self, instructions: int, max_cycles: int = 10_000_000
    ) -> CmpResults:
        """Run until the cores have retired ``instructions`` in total.

        This is the paper's own methodology — execution *time* for a
        fixed workload ("we measure the same workload"); the speedup of
        two configurations is then their cycle-count ratio, identical
        to the IPC ratio only in steady state.  The work target is
        checked before every tick.
        """
        if instructions < 1:
            raise ValueError(f"need a positive work target: {instructions}")
        limit = self.cycle + max_cycles
        while self.cycle < limit:
            if sum(core.instructions for core in self.cores) >= instructions:
                if TIMELINE.enabled:
                    TIMELINE.on_run_end(self)
                return self._results()
            self.tick()
        raise RuntimeError(
            f"work target {instructions} not reached within {max_cycles} cycles"
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        """One registry over every subsystem's live stats.

        Mounts the interconnect's stat tree plus the per-node L1,
        directory, core and memory-controller groups, and gauges for
        run progress, sync totals and the confirmation channel.  The
        registry reads live objects, so build it once and snapshot
        whenever needed (``repro trace --metrics``, the sweep metric
        archive, the golden metrics tests).
        """
        reg = MetricsRegistry(f"{self.app_label}.{self.config.network}")
        reg.mount("network", self.network.stats.group)
        for node, l1 in enumerate(self.l1s):
            reg.mount(f"l1.n{node:02d}", l1.stats)
        for node, directory in enumerate(self.directories):
            reg.mount(f"directory.n{node:02d}", directory.stats)
        for node, core in enumerate(self.cores):
            reg.mount(f"core.n{node:02d}", core.stats)
        for node in sorted(self.memory):
            reg.mount(f"memory.n{node:02d}", self.memory[node].stats)
        reg.gauge("run.app", self.app_label)
        reg.gauge("run.network", self.config.network)
        reg.gauge("run.num_nodes", self.config.num_nodes)
        reg.gauge("run.cycles", lambda: self.cycle)
        reg.gauge(
            "run.instructions",
            lambda: sum(core.instructions for core in self.cores),
        )
        reg.gauge("sync.barriers_completed", lambda: self.sync.barriers_completed)
        reg.gauge("sync.lock_acquisitions", lambda: self.sync.lock_acquisitions)
        reg.gauge("sync.lock_retries", lambda: self.sync.lock_retries)
        reg.gauge(
            "reply_latency",
            lambda: {
                "count": self.reply_latency.count,
                "fractions": self.reply_latency.fractions(),
            },
        )
        if TRACE.enabled:
            # Gauges exist only while tracing so untraced metrics
            # snapshots stay byte-identical (the fault-gauge pattern).
            # ``dropped`` counts ring-buffer overwrites — a non-zero
            # value means the exported trace is a truncated suffix.
            reg.gauge("trace.emitted", lambda: TRACE.emitted)
            reg.gauge("trace.dropped", lambda: TRACE.dropped)
        if self._is_fsoi:
            reg.gauge(
                "confirmation.confirmations_sent",
                lambda: self.network.confirmations.confirmations_sent,
            )
            reg.gauge(
                "confirmation.signals_sent",
                lambda: self.network.confirmations.signals_sent,
            )
            if self.network.fault_injector is not None:
                # Gauges exist only under an active plan so fault-free
                # metrics snapshots stay byte-identical.
                reg.gauge(
                    "confirmation.confirmations_dropped",
                    lambda: self.network.confirmations.confirmations_dropped,
                )
                reg.gauge("fault.plan_label", self.config.faults.label)
                reg.gauge("fault.plan_hash", self.config.faults.content_hash())
        return reg

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _results(self) -> CmpResults:
        if self._vector is not None:
            self._vector.flush()

        def merge(groups) -> dict[str, int]:
            out: dict[str, int] = {}
            for group in groups:
                for key, value in group.as_dict().items():
                    if isinstance(value, int):
                        out[key] = out.get(key, 0) + value
            return out

        net = self.network.stats
        fsoi: dict = {}
        if self._is_fsoi:
            from repro.net.packet import LaneKind

            lane_groups = self.network.stats.group.as_dict()
            fsoi = {
                "meta_transmissions": lane_groups["meta"]["transmissions"],
                "data_transmissions": lane_groups["data"]["transmissions"],
                "meta_tx_probability": self.network.transmission_probability(
                    LaneKind.META
                ),
                "data_tx_probability": self.network.transmission_probability(
                    LaneKind.DATA
                ),
                "meta_collision_rate": self.network.collision_rate(LaneKind.META),
                "data_collision_rate": self.network.collision_rate(LaneKind.DATA),
                "meta_collisions_per_node_slot": (
                    self.network.collision_events_per_node_slot(LaneKind.META)
                ),
                "meta_resolution_delay": (
                    self.network.mean_resolution_delay(LaneKind.META)
                ),
                "data_resolution_delay": (
                    self.network.mean_resolution_delay(LaneKind.DATA)
                ),
                "data_collision_breakdown": self.network.data_collision_breakdown(),
                "hints": self.network.hint_summary(),
                "confirmations": self.network.confirmations.confirmations_sent,
                "signals": self.network.confirmations.signals_sent,
                "phase_array": self.network.phase_array_summary(),
            }
            if self.network.fault_injector is not None:
                fsoi["faults"] = self.network.fault_summary()
        mesh_activity = (
            self.network.activity() if isinstance(self.network, MeshNetwork) else {}
        )
        return CmpResults(
            app=self.app_label,
            network=self.config.network,
            num_nodes=self.config.num_nodes,
            cycles=self.cycle,
            instructions=sum(c.instructions for c in self.cores),
            instructions_per_core=[c.instructions for c in self.cores],
            latency_breakdown=net.breakdown(),
            packets_sent=int(net.sent),
            packets_delivered=int(net.delivered),
            bits_sent=int(net.bits_sent),
            l1=merge(c.stats for c in self.l1s),
            directory=merge(d.stats for d in self.directories),
            memory=merge(m.stats for m in self.memory.values()),
            sync={
                "barriers_completed": self.sync.barriers_completed,
                "lock_acquisitions": self.sync.lock_acquisitions,
                "lock_retries": self.sync.lock_retries,
            },
            core_cycles={
                "busy": sum(int(c.busy_cycles) for c in self.cores),
                "stall": sum(int(c.stall_cycles) for c in self.cores),
                "sync": sum(int(c.sync_cycles) for c in self.cores),
            },
            reply_latency=self.reply_latency,
            fsoi=fsoi,
            mesh_activity=mesh_activity,
            traffic_matrix=self.network.traffic_matrix(),
        )


def run_app(
    app: str,
    network: str,
    num_nodes: int = 16,
    cycles: int = 20_000,
    optimizations: Optional[OptimizationConfig] = None,
    seed: int = 0,
    **config_kwargs,
) -> CmpResults:
    """Convenience one-call experiment: build, run, return results."""
    config = CmpConfig(
        num_nodes=num_nodes,
        app=app,
        network=network,
        optimizations=optimizations or OptimizationConfig.none(),
        seed=seed,
        **config_kwargs,
    )
    return CmpSystem(config).run(cycles)
