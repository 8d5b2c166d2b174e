"""The columnar coherence engine (docs/performance.md).

The naive message path dispatches every delivered packet through four
layers of indirection — ``_on_packet`` → ``_dispatch_packet`` →
``_dispatch`` (two frozenset membership tests) → ``handle()`` (a trace
check plus an if/elif chain) → ``_on_*`` — and every outgoing reply
back down through ``send`` → ``_send_from`` → ``_transmit`` → ``_at``
→ ``CycleCalendar.schedule``.  At 16 nodes the protocol work is the
single largest profiler phase of an FSOI run.  None of that indirection
shrinks with better networks; like the cores phase before it
(``repro.cpu.vector``), it is pure per-message interpretive overhead.

This module replaces the per-delivery dispatch with a *columnar* engine
that is **bit-exact** with the reference handlers (every counter,
packet uid, trace stream and ``CmpResults`` field identical — enforced
by ``tests/coherence/test_vector_equivalence.py``):

* **A per-cycle mailbox** — the network's delivery callback appends
  packets instead of dispatching them; the network drains the mailbox
  (``post_delivery``) after its delivery phase and before any transmit
  work, so handler side effects (injections, releases of §4.4
  line-ordering holds) become visible at exactly the point the inline
  dispatch would have made them visible.  Batch boundaries never cross
  a cycle, and within the batch messages run in strict delivery order,
  so uid allocation, calendar sequencing and stat updates are
  reproduced exactly.
* **Fused per-type kernels** — a jump table indexed by
  ``MsgType._value_`` maps each message class to one flat function
  that fuses the handler body with its dispatch preamble and reply
  path: state dicts, cache arrays, counters, the line-ordering map and
  the calendar heap are pre-resolved into closure locals, and replies
  go straight to a ``heappush`` on the system calendar.  Only the hot
  stable-state transitions are fused; transient-state queueing
  (``_enqueue_or_nack``), queue drains, RETRY resends, capacity-bounded
  slices and fault-plan runs fall back to the retained reference
  handlers, which stay the single source of protocol truth.
* **Write-through state columns** — per-node occupancy columns (L1
  transient lines, directory "z"-queue depth, MSHRs in use, memory
  channel backlog) are mirrored write-through by ledger hooks on the
  reference paths and inline deltas in the kernels, then accrued into
  numpy arrays in bulk (:meth:`CoherenceVectorEngine.accrue_columns`).
  :meth:`CoherenceVectorEngine.audit` recomputes every column from the
  underlying dicts and verifies the mirrors — the equivalence suite
  runs it after every run.

Tracing forces the reference path per delivery (the handlers own the
``l1_event``/``dir_event`` emission points, and a deferred batch would
interleave trace records differently); fault-plan and capacity-bounded
runs keep the mailbox but route every message through the reference
dispatch.

The reference dispatch remains the baseline implementation, selected
with ``CmpConfig(vectorized=False)`` or ``REPRO_NO_VECTOR=1``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from time import perf_counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.coherence.directory import DirState
from repro.coherence.l1 import L1State
from repro.coherence.messages import CoherenceMessage, MsgType, make_message
from repro.net.packet import Packet
from repro.obs.profile import PROFILER
from repro.obs.trace import TRACE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cmp.system import CmpSystem

__all__ = ["CoherenceVectorEngine"]


class CoherenceVectorEngine:
    """Batched message dispatch for one :class:`~repro.cmp.system.CmpSystem`.

    Build *after* the cores (the kernels capture each L1's bound
    ``on_fill``) and wire three points: the networks' delivery callback
    to :meth:`on_packet`, ``network.post_delivery`` to :meth:`drain`,
    and ``CmpSystem._complete_local`` to :meth:`complete_local`.
    """

    def __init__(self, system: "CmpSystem"):
        self.system = system
        n = system.config.num_nodes
        self.num_nodes = n
        self._mailbox: list[Packet] = []
        # Kernels cover exactly the configurations whose message flow
        # stays on Table 2's stable-state fast path; bounded slices
        # (capacity recalls) and fault plans run the reference handlers
        # per message, still batched through the mailbox.
        faults = system.config.faults
        self._kernels_ok = (
            (faults is None or faults.is_empty())
            and system.config.directory.capacity_lines is None
        )

        # -- write-through occupancy mirrors (python side) --------------
        # Maintained by the ledger hooks below for reference-path
        # transitions and by inline deltas inside the kernels; accrued
        # into the numpy columns in bulk by accrue_columns().
        self._l1_transients = [0] * n
        self._dir_queued = [0] * n
        self._mshr_in_use = [0] * n
        self._mem_backlog = [0] * n

        # -- numpy-backed state columns ---------------------------------
        self.l1_transients = np.zeros(n, dtype=np.int32)
        self.dir_queued = np.zeros(n, dtype=np.int32)
        self.mshr_in_use = np.zeros(n, dtype=np.int32)
        self.mem_backlog = np.zeros(n, dtype=np.int32)

        self._install_ledgers()
        self._kernels = self._build_kernels()

    # ------------------------------------------------------------------
    # ledger hooks: write-through mirrors for the reference paths
    # ------------------------------------------------------------------

    def _install_ledgers(self) -> None:
        system = self.system
        l1_tr = self._l1_transients
        dir_q = self._dir_queued
        mshr = self._mshr_in_use
        mem_q = self._mem_backlog

        def l1_ledger(node: int) -> Callable[[L1State, L1State], None]:
            def ledger(old: L1State, new: L1State) -> None:
                l1_tr[node] += new.is_transient - old.is_transient

            return ledger

        def delta_ledger(column: list, node: int) -> Callable[[int], None]:
            def ledger(delta: int) -> None:
                column[node] += delta

            return ledger

        for node, l1 in enumerate(system.l1s):
            l1.ledger = l1_ledger(node)
        for node, directory in enumerate(system.directories):
            directory.queue_ledger = delta_ledger(dir_q, node)
        for node, core in enumerate(system.cores):
            core.mshr.ledger = delta_ledger(mshr, node)
        for node, controller in system.memory.items():
            controller.ledger = delta_ledger(mem_q, node)

    # ------------------------------------------------------------------
    # delivery-side entry points
    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Network delivery callback: collect into the cycle's mailbox.

        Tracing dispatches inline instead — the handlers own the trace
        emission points, and the reference stream interleaves them with
        the network's own events at the delivery instant.
        """
        if TRACE.enabled:
            self.system._on_packet(packet)
            return
        self._mailbox.append(packet)

    def drain(self) -> None:
        """Dispatch the mailbox in delivery order (``post_delivery``)."""
        mailbox = self._mailbox
        if not mailbox:
            return
        if PROFILER.enabled:
            t0 = perf_counter()
            self._drain_now(mailbox)
            PROFILER.add("coherence", perf_counter() - t0)
            return
        self._drain_now(mailbox)

    def _drain_now(self, mailbox: list) -> None:
        if self._kernels_ok:
            kernels = self._kernels
            for packet in mailbox:
                msg = packet.payload
                kernels[msg.mtype._value_](packet.src, msg)
        else:
            dispatch = self.system._dispatch_packet
            for packet in mailbox:
                dispatch(packet)
        mailbox.clear()

    def complete_local(self, node: int, msg: CoherenceMessage) -> None:
        """Calendar-driven local delivery (same-node L1 ↔ directory).

        Local completions stay per-message on the system calendar —
        batching them would reorder uid allocation against the other
        calendar actions interleaved at the same cycle — but each one
        dispatches through the same fused kernels.
        """
        if PROFILER.enabled:
            t0 = perf_counter()
            self._local(node, msg)
            PROFILER.add("coherence", perf_counter() - t0)
            return
        self._local(node, msg)

    def _local(self, node: int, msg: CoherenceMessage) -> None:
        if self._kernels_ok and not TRACE.enabled:
            self._kernels[msg.mtype._value_](node, msg)
            return
        system = self.system
        system._dispatch(msg.dest, msg)
        system._release_line(node, msg.line)

    # ------------------------------------------------------------------
    # columns: bulk accrual and the audit
    # ------------------------------------------------------------------

    def accrue_columns(self) -> None:
        """Refresh the numpy columns from the write-through mirrors."""
        self.l1_transients[:] = self._l1_transients
        self.dir_queued[:] = self._dir_queued
        self.mshr_in_use[:] = self._mshr_in_use
        self.mem_backlog[:] = self._mem_backlog

    def audit(self) -> None:
        """Verify every column against truth recomputed from the dicts.

        The equivalence suite calls this after each run: a drifted
        mirror means a kernel and the reference handler disagreed about
        a transition, even if the run's results happened to match.
        """
        if self._mailbox:
            raise RuntimeError(
                f"coherence mailbox not drained: {len(self._mailbox)} packets"
            )
        self.accrue_columns()
        system = self.system
        truth = {
            "l1_transients": [l1.outstanding() for l1 in system.l1s],
            "dir_queued": [d._queued_total for d in system.directories],
            "mshr_in_use": [core.mshr.in_use for core in system.cores],
            "mem_backlog": [
                system.memory[node].pending if node in system.memory else 0
                for node in range(self.num_nodes)
            ],
        }
        for name, expect in truth.items():
            column = getattr(self, name)
            if column.tolist() != expect:
                raise RuntimeError(
                    f"column {name} drifted: engine={column.tolist()} "
                    f"truth={expect}"
                )

    # ------------------------------------------------------------------
    # the fused kernels
    # ------------------------------------------------------------------

    def _build_kernels(self) -> list:
        """Build the jump table of fused per-``MsgType`` kernels.

        Each kernel is one flat function ``kernel(src, msg)`` serving
        both network deliveries (``src = packet.src``) and local
        completions (``src = the sending node``); it reproduces, in
        order: the system dispatch preamble for its type, the reference
        handler body for stable states, the outgoing sends (fused down
        to the calendar heap), and the §4.4 line release.  Cold and
        error paths delegate to the reference methods so exceptional
        behaviour (including the exact exception text) is shared.
        """
        from repro.cmp.system import _LINE_IN_FLIGHT

        system = self.system
        l1s = system.l1s
        dirs = system.directories
        mem = system.memory

        # Per-node pre-resolved structures (lists indexed by node).
        states = [l1._states for l1 in l1s]
        arrays = [l1.array for l1 in l1s]
        on_fills = [l1.on_fill for l1 in l1s]
        entries = [d._entries for d in dirs]

        def counters(objs, name):
            return [obj._count[name] for obj in objs]

        c_l1_inv = counters(l1s, "invalidations")
        c_l1_dwg = counters(l1s, "downgrades")
        c_l1_wb = counters(l1s, "writebacks")
        c_l1_sup = counters(l1s, "acks_suppressed")
        c_d_req = counters(dirs, "requests")
        c_d_reint = counters(dirs, "reinterpreted")
        c_d_memr = counters(dirs, "mem_reads")
        c_d_memw = counters(dirs, "mem_writes")
        c_d_wb = counters(dirs, "writebacks")
        c_d_dwgs = counters(dirs, "downgrades_sent")
        c_d_invs = counters(dirs, "invalidations_sent")
        c_d_conf = counters(dirs, "conf_acked_invs")

        # Shared transport state and scalars.
        line_pending = system._line_pending
        calendar = system._calendar
        heap = calendar._heap
        local_latency = system.config.local_latency
        request_issue = system._request_issue
        reply_record = system.reply_latency.record
        home_of = system.home_of
        memory_node_of = system.memory_node_of
        l2 = dirs[0].config.l2_latency
        l2_local = l2 + local_latency
        conf_ack = dirs[0].config.confirmation_ack
        split_wb = l1s[0].config.split_writeback
        wb_lead = l1s[0].config.wb_announce_lead
        expect_data = (
            system.network.expect_data_from
            if system._is_fsoi and system.config.optimizations.split_writeback
            else None
        )
        overflow = system._overflow
        overflow_active = system._overflow_active
        overflow_add = overflow_active.add
        net_try_send = system.network.try_send
        packetize = system._packetize
        make_msg = make_message

        l1_tr = self._l1_transients
        mem_q = self._mem_backlog

        Deque = deque
        I, S, E, M = L1State.I, L1State.S, L1State.E, L1State.M
        I_SD, I_MD, S_MA = L1State.I_SD, L1State.I_MD, L1State.S_MA
        DI, DV, DS, DM = DirState.DI, DirState.DV, DirState.DS, DirState.DM
        DI_DSD, DI_DMD = DirState.DI_DSD, DirState.DI_DMD
        DS_DIA, DS_DMDA, DS_DMA = (
            DirState.DS_DIA, DirState.DS_DMDA, DirState.DS_DMA,
        )
        DM_DID, DM_DSD, DM_DMD = (
            DirState.DM_DID, DirState.DM_DSD, DirState.DM_DMD,
        )
        DM_DSA, DM_DMA = DirState.DM_DSA, DirState.DM_DMA
        REQ_SH, REQ_EX, REQ_UPG = MsgType.REQ_SH, MsgType.REQ_EX, MsgType.REQ_UPG
        WRITEBACK, WB_ANNOUNCE = MsgType.WRITEBACK, MsgType.WB_ANNOUNCE
        INV_ACK, INV_ACK_DATA = MsgType.INV_ACK, MsgType.INV_ACK_DATA
        DWG_ACK, DWG_ACK_DATA = MsgType.DWG_ACK, MsgType.DWG_ACK_DATA
        DATA_S, DATA_E, DATA_M = MsgType.DATA_S, MsgType.DATA_E, MsgType.DATA_M
        EXC_ACK, INV, DWG = MsgType.EXC_ACK, MsgType.INV, MsgType.DWG
        MEM_READ, MEM_WRITE = MsgType.MEM_READ, MsgType.MEM_WRITE

        # The jump table is allocated up front (and filled at the end)
        # so the transport closures below can dispatch local completions
        # straight into it without going through the profiled
        # complete_local wrapper's two extra frames.
        table = [None] * (len(MsgType) + 1)
        profiler_add = PROFILER.add

        # -- fused transport (== _send_from / _transmit / _at / _release_line)

        def local_now(node, msg):
            # complete_local for a kernel-scheduled delivery: the engine
            # only schedules these while the kernels are active, so the
            # _kernels_ok re-check is unnecessary; tracing may have been
            # switched on between scheduling and firing, in which case
            # fall back to the reference dispatch like _local does.
            if TRACE.enabled:
                system._dispatch(msg.dest, msg)
                system._release_line(node, msg.line)
                return
            if PROFILER.enabled:
                t0 = perf_counter()
                table[msg.mtype._value_](node, msg)
                profiler_add("coherence", perf_counter() - t0)
                return
            table[msg.mtype._value_](node, msg)

        def inject_fast(node, msg):
            # == CmpSystem._inject, minus the bound-method dispatch.
            packet = packetize(node, msg)
            queue = overflow[node]
            if queue or not net_try_send(packet, system.cycle):
                queue.append(packet)
                overflow_add(node)

        def transmit(node, msg, delay):
            cycle = system.cycle
            if msg.dest == node:
                due = cycle + delay + local_latency
                if due <= cycle:
                    local_now(node, msg)
                    return
            else:
                due = cycle + delay
                if due <= cycle:
                    inject_fast(node, msg)
                    return

                def action(node=node, msg=msg):
                    inject_fast(node, msg)

                calendar._seq = seq = calendar._seq + 1
                heappush(heap, (due, seq, action))
                return

            def action(node=node, msg=msg):
                local_now(node, msg)

            calendar._seq = seq = calendar._seq + 1
            heappush(heap, (due, seq, action))

        def send_msg(node, msg, delay):
            # _send_from minus the request-issue stamp: no kernel sends
            # a REQ_* (RETRY resends go through the reference handler).
            key = (node, msg.line)
            pending = line_pending.get(key)
            if pending is None:
                line_pending[key] = _LINE_IN_FLIGHT
                transmit(node, msg, delay)
            elif pending is _LINE_IN_FLIGHT:
                queue = line_pending[key] = Deque()
                queue.append((msg, delay))
            else:
                pending.append((msg, delay))

        def release(node, line):
            key = (node, line)
            pending = line_pending.get(key)
            if pending is None:
                return
            if pending:
                queued_msg, queued_delay = pending.popleft()
                transmit(node, queued_msg, queued_delay)
            else:
                del line_pending[key]

        # -- shared directory helpers --------------------------------------

        def dir_entry(home, line):
            ent = entries[home].get(line)
            if ent is None:
                ent = dirs[home].entry(line)  # cold: materialize / warm set
            directory = dirs[home]
            directory._lru_clock = clock = directory._lru_clock + 1
            ent.last_use = clock
            return ent

        def reply(home, line, dest, mtype):
            # send_msg + transmit, manually inlined for the directory's
            # L2-latency response — the single most frequent send.
            msg = make_msg(mtype, line, home, dest, dest)
            key = (home, line)
            pending = line_pending.get(key)
            if pending is None:
                line_pending[key] = _LINE_IN_FLIGHT
                cycle = system.cycle
                if dest == home:
                    due = cycle + l2_local
                    if due <= cycle:
                        local_now(home, msg)
                        return

                    def action(home=home, msg=msg):
                        local_now(home, msg)

                else:
                    due = cycle + l2
                    if due <= cycle:
                        inject_fast(home, msg)
                        return

                    def action(home=home, msg=msg):
                        inject_fast(home, msg)

                calendar._seq = seq = calendar._seq + 1
                heappush(heap, (due, seq, action))
            elif pending is _LINE_IN_FLIGHT:
                queue = line_pending[key] = Deque()
                queue.append((msg, l2))
            else:
                pending.append((msg, l2))

        def invalidate(home, line, targets, sharer_inv):
            count = c_d_invs[home]
            for target in sorted(targets):
                count.value += 1
                use_conf = sharer_inv and conf_ack and target != home
                if use_conf:
                    c_d_conf[home].value += 1
                send_msg(
                    home,
                    make_msg(INV, line, home, target, home, use_conf),
                    l2,
                )

        def evict_line(home, ent, line):
            if ent.dirty:
                c_d_memw[home].value += 1
                send_msg(
                    home,
                    make_msg(MEM_WRITE, line, home, memory_node_of(line),
                             home),
                    l2,
                )
            ent.state = DI
            ent.sharers.clear()
            ent.dirty = False
            if ent.queued:
                dirs[home]._drain(ent, line)
            if not ent.queued and ent.state is DI:
                entries[home].pop(line, None)

        # -- shared L1 helpers ---------------------------------------------

        def l1_ack(node, cause, mtype):
            # send_msg + transmit inlined for the delay-0 acknowledgment:
            # a free line goes straight to inject (remote) or the
            # local-latency calendar slot (home == node).
            line = cause.line
            msg = make_msg(mtype, line, node, cause.sender, cause.requester)
            key = (node, line)
            pending = line_pending.get(key)
            if pending is None:
                line_pending[key] = _LINE_IN_FLIGHT
                dest = msg.dest
                if dest != node:
                    inject_fast(node, msg)
                    return
                cycle = system.cycle
                due = cycle + local_latency
                if due <= cycle:
                    local_now(node, msg)
                    return

                def action(node=node, msg=msg):
                    local_now(node, msg)

                calendar._seq = seq = calendar._seq + 1
                heappush(heap, (due, seq, action))
            elif pending is _LINE_IN_FLIGHT:
                queue = line_pending[key] = Deque()
                queue.append((msg, 0))
            else:
                pending.append((msg, 0))

        def l1_evict(node, state_map, victim):
            # The Repl column; the victim is never transient (the cache
            # array's is_evictable predicate excludes transient lines).
            if state_map.get(victim, I) is M:
                c_l1_wb[node].value += 1
                home = home_of(victim)
                delay = 0
                if split_wb:
                    send_msg(
                        node,
                        make_msg(WB_ANNOUNCE, victim, node, home, node),
                        0,
                    )
                    delay = wb_lead
                send_msg(
                    node,
                    make_msg(WRITEBACK, victim, node, home, node),
                    delay,
                )
            state_map.pop(victim, None)

        # -- directory kernels ---------------------------------------------

        def k_request(src, msg):
            home = msg.dest
            line = msg.line
            # dir_entry, inlined: the hottest kernel touches the entry
            # map once per request.
            ent = entries[home].get(line)
            if ent is None:
                ent = dirs[home].entry(line)  # cold: materialize / warm set
            directory = dirs[home]
            directory._lru_clock = clock = directory._lru_clock + 1
            ent.last_use = clock
            c_d_req[home].value += 1
            state = ent.state
            if state.is_transient:
                dirs[home]._enqueue_or_nack(ent, msg)
                release(src, line)
                return
            mtype = msg.mtype
            req = msg.requester
            if mtype is REQ_UPG and req not in ent.sharers:
                c_d_reint[home].value += 1
                mtype = REQ_EX
            if state is DM:
                sharers = ent.sharers
                if len(sharers) != 1:
                    raise RuntimeError(f"owner of a non-DM entry: {sharers}")
                owner = next(iter(sharers))
                ent.requester = req
                ent.acks_needed = 1
                if mtype is REQ_SH:
                    c_d_dwgs[home].value += 1
                    send_msg(
                        home,
                        make_msg(DWG, line, home, owner, req),
                        l2,
                    )
                    ent.state = DM_DSD
                else:
                    invalidate(home, line, {owner}, False)
                    ent.state = DM_DMD
            elif state is DS:
                if mtype is REQ_SH:
                    reply(home, line, req, DATA_S)
                    ent.sharers.add(req)
                else:
                    targets = ent.sharers - {req}
                    ent.requester = req
                    if not targets:
                        reply(
                            home, line, req,
                            EXC_ACK if mtype is REQ_UPG else DATA_M,
                        )
                        ent.sharers = {req}
                        ent.state = DM
                    else:
                        invalidate(home, line, targets, True)
                        ent.acks_needed = len(targets)
                        ent.sharers -= targets
                        ent.state = DS_DMA if mtype is REQ_UPG else DS_DMDA
            elif state is DV:
                reply(home, line, req, DATA_E if mtype is REQ_SH else DATA_M)
                ent.sharers = {req}
                ent.state = DM
            else:  # DI
                c_d_memr[home].value += 1
                ent.requester = req
                ent.state = DI_DSD if mtype is REQ_SH else DI_DMD
                send_msg(
                    home,
                    make_msg(MEM_READ, line, home, memory_node_of(line),
                             home),
                    l2,
                )
            # _enforce_capacity is a no-op here: bounded slices disable
            # the kernels at construction (self._kernels_ok).
            # release, inlined.
            key = (src, line)
            pending = line_pending.get(key)
            if pending is not None:
                if pending:
                    queued_msg, queued_delay = pending.popleft()
                    transmit(src, queued_msg, queued_delay)
                else:
                    del line_pending[key]

        def k_writeback(src, msg):
            home = msg.dest
            line = msg.line
            ent = dir_entry(home, line)
            c_d_wb[home].value += 1
            ent.dirty = True
            state = ent.state
            if state is DM:
                ent.sharers.clear()
                ent.state = DV
            elif state is DM_DID:
                ent.state = DS_DIA
            elif state is DM_DSD:
                ent.state = DM_DSA
            elif state is DM_DMD:
                ent.state = DM_DMA
            else:
                raise RuntimeError(f"WriteBack in {state.name}: {msg}")
            if ent.queued:
                dirs[home]._drain(ent, line)
            release(src, line)

        def k_wb_announce(src, msg):
            # §5.2: informational for the directory; the FSOI network
            # pre-arms its data-packet expectation — but only for a
            # *network* delivery (dest != src), never a local loop.
            if expect_data is not None and msg.dest != src:
                expect_data(msg.dest, msg.sender)
            dir_entry(msg.dest, msg.line)
            release(src, msg.line)

        def k_mem_ack(src, msg):
            home = msg.dest
            line = msg.line
            ent = dir_entry(home, line)
            state = ent.state
            if state is DI_DSD:
                reply(home, line, ent.requester, DATA_E)
            elif state is DI_DMD:
                reply(home, line, ent.requester, DATA_M)
            else:
                raise RuntimeError(f"MemAck in {state.name}: {msg}")
            ent.dirty = False
            ent.sharers = {ent.requester}
            ent.state = DM
            ent.requester = -1
            ent.acks_needed = 0
            if ent.queued:
                dirs[home]._drain(ent, line)
            release(src, line)

        def make_inv_ack(carries_data):
            def k_inv_ack(src, msg):
                home = msg.dest
                line = msg.line
                ent = dir_entry(home, line)
                if carries_data:
                    ent.dirty = True
                state = ent.state
                if state is DS_DMDA or state is DS_DMA or state is DS_DIA:
                    ent.acks_needed -= 1
                    if ent.acks_needed <= 0:
                        if state is DS_DMDA:
                            reply(home, line, ent.requester, DATA_M)
                            ent.sharers = {ent.requester}
                            ent.state = DM
                            ent.requester = -1
                            ent.acks_needed = 0
                        elif state is DS_DMA:
                            reply(home, line, ent.requester, EXC_ACK)
                            ent.sharers = {ent.requester}
                            ent.state = DM
                            ent.requester = -1
                            ent.acks_needed = 0
                        else:  # DS_DIA — evicting
                            evict_line(home, ent, line)
                elif state is DM_DMD or state is DM_DMA:
                    reply(home, line, ent.requester, DATA_M)
                    ent.sharers = {ent.requester}
                    ent.state = DM
                    ent.requester = -1
                    ent.acks_needed = 0
                elif state is DM_DID:
                    evict_line(home, ent, line)
                else:
                    raise RuntimeError(f"InvAck in {state.name}: {msg}")
                if ent.queued:
                    dirs[home]._drain(ent, line)
                release(src, line)

            return k_inv_ack

        def make_dwg_ack(carries_data):
            def k_dwg_ack(src, msg):
                home = msg.dest
                line = msg.line
                ent = dir_entry(home, line)
                if carries_data:
                    ent.dirty = True
                state = ent.state
                if state is DM_DSD:
                    reply(home, line, ent.requester, DATA_S)
                    ent.sharers.add(ent.requester)
                    ent.state = DS
                    ent.requester = -1
                    ent.acks_needed = 0
                elif state is DM_DSA:
                    reply(home, line, ent.requester, DATA_E)
                    ent.sharers = {ent.requester}
                    ent.state = DM
                    ent.requester = -1
                    ent.acks_needed = 0
                else:
                    raise RuntimeError(f"DwgAck in {state.name}: {msg}")
                if ent.queued:
                    dirs[home]._drain(ent, line)
                release(src, line)

            return k_dwg_ack

        # -- L1 kernels ------------------------------------------------------

        def make_data(mtype, to_state, for_write):
            def k_data(src, msg):
                node = msg.dest
                line = msg.line
                issued = request_issue.pop((node, line), None)
                if issued is not None:
                    reply_record(system.cycle - issued)
                state_map = states[node]
                state = state_map.get(line, I)
                if state is I_SD:
                    if for_write:
                        raise RuntimeError(f"DATA_M for a read miss: {msg}")
                    new = to_state
                elif state is I_MD:
                    if not for_write:
                        raise RuntimeError(
                            f"{mtype.name} for a write miss: {msg}"
                        )
                    new = M
                else:
                    raise RuntimeError(
                        f"unexpected data in {state.name}: {msg}"
                    )
                victim = arrays[node].insert(line)
                if victim is not None:
                    l1_evict(node, state_map, victim)
                state_map[line] = new
                l1_tr[node] -= 1
                on_fills[node](line)
                # release, inlined.
                key = (src, line)
                pending = line_pending.get(key)
                if pending is not None:
                    if pending:
                        queued_msg, queued_delay = pending.popleft()
                        transmit(src, queued_msg, queued_delay)
                    else:
                        del line_pending[key]

            return k_data

        def k_exc_ack(src, msg):
            node = msg.dest
            line = msg.line
            issued = request_issue.pop((node, line), None)
            if issued is not None:
                reply_record(system.cycle - issued)
            state_map = states[node]
            state = state_map.get(line, I)
            if state is not S_MA:
                raise RuntimeError(f"ExcAck in {state.name}: {msg}")
            state_map[line] = M
            l1_tr[node] -= 1
            on_fills[node](line)
            release(src, line)

        def k_inv(src, msg):
            node = msg.dest
            line = msg.line
            state_map = states[node]
            state = state_map.get(line, I)
            c_l1_inv[node].value += 1
            if state is M:
                l1_ack(node, msg, INV_ACK_DATA)
                arrays[node].remove(line)
                del state_map[line]
                release(src, line)
                return
            if state is S or state is E:
                arrays[node].remove(line)
                del state_map[line]
            elif state is S_MA:
                # Upgrade lost the race: full write miss (both transient,
                # so the occupancy column is unchanged).
                arrays[node].remove(line)
                state_map[line] = I_MD
            # I / I.SD / I.MD: acknowledge and stay.
            if msg.ack_via_confirmation and state is not E:
                c_l1_sup[node].value += 1
            else:
                l1_ack(node, msg, INV_ACK)
            release(src, line)

        def k_dwg(src, msg):
            node = msg.dest
            line = msg.line
            state_map = states[node]
            state = state_map.get(line, I)
            c_l1_dwg[node].value += 1
            if state is S or state is S_MA:
                raise RuntimeError(f"Dwg to a shared line: {msg}")
            if state is M:
                l1_ack(node, msg, DWG_ACK_DATA)
                state_map[line] = S
                release(src, line)
                return
            if state is E:
                state_map[line] = S
            # I / I.SD / I.MD: acknowledge and stay.
            l1_ack(node, msg, DWG_ACK)
            release(src, line)

        def k_retry(src, msg):
            # NACK resend: rare, and the resend must stamp the Figure 5
            # request-issue table — keep the reference handler.
            l1s[msg.dest]._on_retry(msg)
            release(src, msg.line)

        # -- memory kernels ----------------------------------------------------

        def k_mem(src, msg):
            dest = msg.dest
            controller = mem[dest]
            controller._arrival[msg.uid] = system.cycle
            controller._queue.append(msg)
            mem_q[dest] += 1
            release(src, msg.line)

        # auto() numbers the 19 members from 1, so index by _value_
        # straight into the 20-slot table allocated above.
        table[REQ_SH._value_] = k_request
        table[REQ_EX._value_] = k_request
        table[REQ_UPG._value_] = k_request
        table[WRITEBACK._value_] = k_writeback
        table[WB_ANNOUNCE._value_] = k_wb_announce
        table[INV_ACK._value_] = make_inv_ack(False)
        table[INV_ACK_DATA._value_] = make_inv_ack(True)
        table[DWG_ACK._value_] = make_dwg_ack(False)
        table[DWG_ACK_DATA._value_] = make_dwg_ack(True)
        table[DATA_S._value_] = make_data(DATA_S, S, False)
        table[DATA_E._value_] = make_data(DATA_E, E, False)
        table[DATA_M._value_] = make_data(DATA_M, M, True)
        table[EXC_ACK._value_] = k_exc_ack
        table[INV._value_] = k_inv
        table[DWG._value_] = k_dwg
        table[MsgType.RETRY._value_] = k_retry
        table[MEM_READ._value_] = k_mem
        table[MEM_WRITE._value_] = k_mem
        table[MsgType.MEM_ACK._value_] = k_mem_ack
        return table
