"""The timing core model.

Per DESIGN.md's substitution table, the out-of-order Alpha pipeline is
abstracted into a configurable issue rate; everything the interconnect
study depends on is modeled explicitly:

* memory accesses flow through the real L1 controller and MESI protocol;
* a configurable fraction of misses are *dependent* loads that stall the
  core until the fill (the rest overlap, bounded by the MSHR file);
* barrier and lock episodes spin through the coherence protocol (or
  block on confirmation-channel subscriptions when §5.1 is enabled).

The progress metric is retired instructions; application speedup is the
ratio of instructions per cycle between two interconnect configurations,
mirroring the paper's execution-time ratio for a fixed workload window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Optional

import numpy as np

from repro.coherence.l1 import AccessResult, L1Controller, L1State
from repro.cpu.mshr import MshrFile
from repro.cpu.sync import SyncManager
from repro.util.stats import StatGroup

__all__ = ["OpKind", "Op", "CoreConfig", "Core", "CoreState"]


class OpKind(Enum):
    WORK = auto()     # a non-memory instruction
    MEM = auto()      # a load or store
    BARRIER = auto()  # global barrier episode
    LOCK = auto()     # lock acquire + hold + release episode


@dataclass(frozen=True, slots=True)
class Op:
    kind: OpKind
    line: int = 0
    is_write: bool = False
    lock_id: int = 0
    hold_cycles: int = 0


@dataclass(frozen=True)
class CoreConfig:
    """Timing parameters of one core.

    Defaults are calibrated against Table 3's 4-wide Alpha 21264 model:
    an effective issue rate of 3 (4-wide minus front-end losses) and
    75% of misses behaving as dependent loads reproduce the paper's
    network-sensitivity level (Figure 6's speedup magnitudes).
    """

    ipc: int = 3                     # effective issue slots per cycle
    blocking_fraction: float = 0.75  # misses that stall like dependent loads
    mshr_limit: int = 8
    spin_interval: int = 4           # cycles between spin reads

    def __post_init__(self) -> None:
        if self.ipc < 1:
            raise ValueError(f"ipc must be >= 1: {self.ipc}")
        if not 0.0 <= self.blocking_fraction <= 1.0:
            raise ValueError(f"blocking fraction out of [0,1]")


class CoreState(Enum):
    RUNNING = auto()
    STALLED = auto()         # waiting for a fill (dependent miss / MSHR full)
    BARRIER_ARRIVE = auto()  # performing the arrival write
    BARRIER_SPIN = auto()    # spinning on the barrier line
    BARRIER_WAIT = auto()    # §5.1 subscription: blocked on a signal
    LOCK_ACQUIRE = auto()    # performing the acquire write
    LOCK_SPIN = auto()       # spinning on the lock line
    LOCK_WAIT = auto()       # §5.1 subscription: blocked on a signal
    LOCK_HOLD = auto()       # inside the critical section
    LOCK_RELEASE = auto()    # performing the release write


class Core:
    """One node's processor, driven by a workload's operation stream."""

    def __init__(
        self,
        node: int,
        workload,
        l1: L1Controller,
        sync: SyncManager,
        config: Optional[CoreConfig] = None,
        rng: Optional[np.random.Generator] = None,
        stats: Optional[StatGroup] = None,
    ):
        self.node = node
        self.workload = workload
        self.l1 = l1
        self.sync = sync
        self.config = config or CoreConfig()
        self._rng = rng if rng is not None else np.random.default_rng(node)
        self.mshr = MshrFile(self.config.mshr_limit)
        l1.on_fill = self.on_fill

        self.state = CoreState.RUNNING
        self.instructions = 0
        self._pending: Optional[Op] = None
        self._stall_line: Optional[int] = None  # None = any fill resumes
        self._sync_line = -1
        self._sync_write = False
        self._sync_issued = False  # the sync request is in flight
        self._barrier_epoch = -1
        self._lock_id = -1
        self._lock_generation = -1
        self._hold_left = 0
        self._next_spin = 0

        stats = stats or StatGroup(f"core.{node}")
        self.stats = stats
        self.busy_cycles = stats.counter("busy_cycles")
        self.stall_cycles = stats.counter("stall_cycles")
        self.sync_cycles = stats.counter("sync_cycles")

    # ------------------------------------------------------------------
    # per-cycle operation
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        state = self.state
        if state is CoreState.RUNNING:
            self.busy_cycles.add()
            self._issue(cycle)
        elif state is CoreState.STALLED:
            self.stall_cycles.add()
        elif state is CoreState.LOCK_HOLD:
            self.sync_cycles.add()
            self._hold_left -= 1
            if self._hold_left <= 0:
                self.state = CoreState.LOCK_RELEASE
                self._sync_access(SyncManager.lock_line(self._lock_id), True)
        elif state in (CoreState.BARRIER_SPIN, CoreState.LOCK_SPIN):
            self.sync_cycles.add()
            self._spin(cycle)
        else:
            # BARRIER_ARRIVE / LOCK_ACQUIRE / LOCK_RELEASE wait for their
            # fill; BARRIER_WAIT / LOCK_WAIT wait for a release signal.
            self.sync_cycles.add()

    def _issue(self, cycle: int) -> None:
        for _slot in range(self.config.ipc):
            op = self._pending
            self._pending = None
            if op is None:
                op = self.workload.next_op(self._rng)
            if op.kind is OpKind.WORK:
                self.instructions += 1
                continue
            if op.kind is OpKind.MEM:
                if not self._issue_mem(op):
                    break
                continue
            if op.kind is OpKind.BARRIER:
                self.state = CoreState.BARRIER_ARRIVE
                self._sync_access(SyncManager.barrier_line(), True)
                break
            # LOCK episode
            self._lock_id = op.lock_id
            self._hold_left = op.hold_cycles
            self.state = CoreState.LOCK_ACQUIRE
            self._sync_access(SyncManager.lock_line(op.lock_id), True)
            break

    def _issue_mem(self, op: Op) -> bool:
        """Returns False when the core must stop issuing this cycle."""
        line = op.line
        if self.l1.state(line).is_transient:
            # Secondary access to an in-flight line ("z"): wait for it.
            self._pending = op
            self._stall_line = line
            self.state = CoreState.STALLED
            return False
        will_miss = self._would_miss(line, op.is_write)
        if will_miss and not self.mshr.allocate(line):
            # MSHR file full: structural stall until something fills.
            self._pending = op
            self._stall_line = None
            self.state = CoreState.STALLED
            return False
        result = self.l1.access(line, op.is_write)
        self.instructions += 1
        if result is AccessResult.HIT:
            if will_miss:  # defensive: prediction said miss but it hit
                self.mshr.release(line)
            return True
        if self._rng.random() < self.config.blocking_fraction:
            self._stall_line = line
            self.state = CoreState.STALLED
            return False
        return True

    def _would_miss(self, line: int, is_write: bool) -> bool:
        state = self.l1.state(line)
        if state is L1State.I:
            return True
        return is_write and state is L1State.S

    # ------------------------------------------------------------------
    # fills
    # ------------------------------------------------------------------

    def on_fill(self, line: int) -> None:
        self.mshr.release(line)
        state = self.state
        if state is CoreState.STALLED:
            if self._stall_line is None or self._stall_line == line:
                self._stall_line = None
                self.state = CoreState.RUNNING
            return
        if line != self._sync_line:
            return
        if state in (CoreState.BARRIER_SPIN, CoreState.LOCK_SPIN):
            self._check_spin_result()
        elif state in (
            CoreState.BARRIER_ARRIVE,
            CoreState.LOCK_ACQUIRE,
            CoreState.LOCK_RELEASE,
        ):
            if self._sync_issued:
                self._sync_issued = False
                self._sync_complete()
            else:
                # The fill cleared whatever transaction blocked us;
                # retry the sync access itself.
                self._sync_access(self._sync_line, self._sync_write)

    # ------------------------------------------------------------------
    # synchronization episodes
    # ------------------------------------------------------------------

    def _sync_access(self, line: int, is_write: bool) -> None:
        self._sync_line = line
        self._sync_write = is_write
        self._sync_issued = False
        if self.l1.state(line).is_transient:
            return  # a previous transaction (e.g. a spin read) is in
            # flight; on_fill will retry this access
        result = self.l1.access(line, is_write)
        if result is AccessResult.HIT:
            self._sync_complete()
        elif result is AccessResult.MISS:
            self._sync_issued = True
        # STALL cannot occur: transience was pre-checked above.

    def _sync_complete(self) -> None:
        """The current sync read/write has globally performed."""
        state = self.state
        if state is CoreState.BARRIER_ARRIVE:
            self._barrier_epoch = self.sync.barrier_arrive(self.node)
            if self.sync.barrier_released(self._barrier_epoch):
                self.state = CoreState.RUNNING  # we were the last arriver
            elif self.sync.subscription:
                self.state = CoreState.BARRIER_WAIT
            else:
                self.state = CoreState.BARRIER_SPIN
        elif state is CoreState.LOCK_ACQUIRE:
            if self.sync.try_acquire(self._lock_id, self.node):
                self.state = CoreState.LOCK_HOLD
            elif self.sync.subscription:
                self._lock_generation = self.sync.lock_generation(self._lock_id)
                self.state = CoreState.LOCK_WAIT
            else:
                self._lock_generation = self.sync.lock_generation(self._lock_id)
                self.state = CoreState.LOCK_SPIN
        elif state is CoreState.LOCK_RELEASE:
            self.sync.release(self._lock_id, self.node)
            self._lock_id = -1
            self.state = CoreState.RUNNING
        # Spin states complete via _check_spin_result instead.

    def _spin(self, cycle: int) -> None:
        if cycle < self._next_spin:
            return
        self._next_spin = cycle + self.config.spin_interval
        line = self._sync_line
        if self.l1.state(line).is_transient:
            return  # spin read already outstanding
        result = self.l1.access(line, False)
        if result is AccessResult.HIT:
            self._check_spin_result()

    def _check_spin_result(self) -> None:
        if self.state is CoreState.BARRIER_SPIN:
            if self.sync.barrier_released(self._barrier_epoch):
                self.state = CoreState.RUNNING
        elif self.state is CoreState.LOCK_SPIN:
            if self.sync.lock_generation(self._lock_id) != self._lock_generation:
                self.state = CoreState.LOCK_ACQUIRE
                self._sync_access(SyncManager.lock_line(self._lock_id), True)

    # -- §5.1 subscription signals ------------------------------------------

    def release_signal(self) -> None:
        """A confirmation-channel release bit arrived (subscription mode)."""
        if self.state is CoreState.BARRIER_WAIT:
            if self.sync.barrier_released(self._barrier_epoch):
                self.state = CoreState.RUNNING
        elif self.state is CoreState.LOCK_WAIT:
            self.state = CoreState.LOCK_ACQUIRE
            self._sync_access(SyncManager.lock_line(self._lock_id), True)
