"""The multicore trace-interleaving engine.

The engine executes a :class:`~repro.sim.trace.ProgramTrace` over a
:class:`~repro.mem.hierarchy.MemoryHierarchy`.  Each core has its own cycle
clock; the engine always steps the core with the smallest clock, which gives
a deterministic, contention-aware interleaving of the threads (the standard
trace-driven multicore approach).

Store buffers sit between the core and the hierarchy:

* Under ``ConsistencyModel.TSO`` a committed store is released to the L1D
  immediately, so stores reach the cache in program order.
* Under ``ConsistencyModel.RELAXED`` releases are deliberately reordered
  (seeded RNG) except between stores to the same cache block — modelling the
  out-of-order L1D writes of Section III-C.  Whether the crash-drain still
  yields program-order persistency then depends on the store buffer being
  battery-backed, which is exactly the paper's point.

The engine records every *committed* and every *performed* (L1D-written)
persisting store; the recovery checker uses them as the golden state.
"""

from __future__ import annotations

import heapq
import random
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Iterable, List, NamedTuple, Optional, Sequence

from repro.check.schedule import SITE_OP, CrashNow, FiredPoint
from repro.core.persistency import DrainReport
from repro.mem.block import block_address
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.events import (
    STALL_EPOCH,
    STALL_FLUSH_FENCE,
    SbRelease,
    StallBegin,
    StallEnd,
)
from repro.sim.coltrace import program_of
from repro.sim.config import ConsistencyModel
from repro.sim.reference import LogKind, LogRecord
from repro.sim.stats import SimStats
from repro.sim.trace import OpKind, ProgramTrace, TraceOp


class PersistRecord(NamedTuple):
    """One persisting store, as seen by the golden model.

    A ``NamedTuple`` rather than a (frozen) dataclass: persist-heavy runs
    create one pair per persisting store, and tuple construction is
    several times cheaper than ``object.__setattr__``-based init.
    """

    core: int
    addr: int
    size: int
    value: int
    seq: int  # global monotonic order (commit order / perform order)


@dataclass
class RunResult:
    """Everything a run produces."""

    stats: SimStats
    crashed: bool = False
    crash_op: Optional[int] = None
    committed_persists: List[PersistRecord] = field(default_factory=list)
    performed_persists: List[PersistRecord] = field(default_factory=list)
    drain_report: Optional[DrainReport] = None
    #: The crash-schedule visit that fired; set on every crash.
    crash_point: Optional[FiredPoint] = None
    #: Architectural execution log (populated when Engine(log=True)) — the
    #: exact order operations took effect, for differential testing
    #: against :mod:`repro.sim.reference`.
    log: List[LogRecord] = field(default_factory=list)

    @property
    def execution_cycles(self) -> int:
        return self.stats.execution_cycles


class Engine:
    """Drives one program over one hierarchy + scheme."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        consistency: Optional[ConsistencyModel] = None,
        reorder_seed: int = 0,
        release_probability: float = 0.5,
        log: bool = False,
    ) -> None:
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        self.stats = hierarchy.stats
        self.consistency = consistency or self.config.consistency
        self._rng = random.Random(reorder_seed)
        self._release_probability = release_probability
        self._log_enabled = log
        self._seq = 0
        # Hot-loop bound references (resolved once, not per executed op).
        self._tso = self.consistency is ConsistencyModel.TSO
        self._is_persistent = self.config.mem.is_persistent
        self._store_buffers = hierarchy.store_buffers
        self._bus = hierarchy.bus
        # Always zero (every op runs through _execute).  Kept only because
        # the repository benchmark reads it to label each run's engine path.
        self.batch_counters = {
            "phases": 0,
            "private_ops": 0,
            "shared_ops": 0,
            "rescans": 0,
        }

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self, trace: ProgramTrace, finalize: bool = True) -> RunResult:
        """Execute ``trace``, crashing where the hierarchy's crash schedule
        fires (an op-boundary crash after ``k`` ops is
        ``CrashSchedule(stop_at=k, sites=(SITE_OP,))``).

        On a crash, the active persistency scheme's battery drains whatever
        it covers and the volatile state is lost; ``finalize`` is ignored.
        On a normal completion (``finalize=True``) the scheme settles all
        outstanding persistence-domain state so the media image is complete.

        ``trace`` may be a :class:`ProgramTrace` or a
        :class:`~repro.sim.coltrace.ColumnarTrace` (converted back to ops
        once, memoized on the columnar trace); both representations
        produce identical results.  Every op runs through :meth:`_execute`
        in the order of a min-heap over ``(clock, core)``.
        """
        cursor = RunCursor(self, trace)
        cursor.step()
        return cursor.finish(finalize)

    def _epilogue(
        self,
        result: RunResult,
        clocks: List[int],
        flush_outstanding: List[List[int]],
        executed: int,
        finalize: bool,
    ) -> RunResult:
        """Settle a completed (or crashed) execution: retire remaining
        store-buffer entries and outstanding flushes, finalize the scheme,
        drain on crash, and publish per-core cycle counts.  Shared by
        :meth:`run` and :meth:`EngineStream.finish`."""
        if not result.crashed:
            try:
                for core in range(len(clocks)):
                    clocks[core] = self._release_all(core, clocks[core], result)
                    if flush_outstanding[core]:
                        clocks[core] = max(clocks[core],
                                           max(flush_outstanding[core]))
                if finalize:
                    self.hierarchy.scheme.finalize(max(clocks))
            except CrashNow as crash:
                result.crashed = True
                result.crash_op = executed
                result.crash_point = crash.point
        if result.crashed:
            result.drain_report = self.hierarchy.scheme.crash_drain(
                max(clocks) if clocks else 0
            )
        for core, clock in enumerate(clocks):
            self.stats.core[core].cycles = clock
        return result

    # ------------------------------------------------------------------
    # Per-op execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        core: int,
        op: TraceOp,
        now: int,
        result: RunResult,
        flush_outstanding: List[int],
    ) -> int:
        kind = op.kind
        if kind is OpKind.STORE:
            return self._commit_store(core, op, now, result)

        if kind is OpKind.COMPUTE:
            self.stats.core[core].compute_cycles += op.cycles
            return now + op.cycles

        if kind is OpKind.LOAD:
            forwarded = self._store_buffers[core].forward(op.addr, op.size)
            if forwarded is not None:
                self.stats.core[core].sb_forwards += 1
                self.stats.core[core].loads += 1
                if self._log_enabled:
                    result.log.append(
                        LogRecord(LogKind.LOAD, core, op.addr, op.size, forwarded)
                    )
                return now + 1
            value, done = self.hierarchy.load(core, op.addr, op.size, now)
            if self._log_enabled:
                # NOTE: under TSO, unreleased remote SB entries do not exist
                # (release is eager), so the hierarchy value is the
                # architectural one.  Under RELAXED, remote cores' buffered
                # stores are not yet visible — the log captures that.
                value_with_local = value
                result.log.append(
                    LogRecord(LogKind.LOAD, core, op.addr, op.size, value_with_local)
                )
            return done

        if kind is OpKind.FLUSH:
            # clwb is asynchronous: it starts the writeback and retires.
            now = self._release_all(core, now, result)
            done = self.hierarchy.flush_block_to_wpq(core, op.addr, now)
            if done > now:
                self.stats.flushes += 1
                flush_outstanding.append(done + self.config.mem.mc_transfer_cycles)
            return now + 1

        if kind is OpKind.FENCE:
            now = self._release_all(core, now, result)
            self.stats.fences += 1
            if flush_outstanding:
                target = max(flush_outstanding)
                if target > now:
                    self.stats.core[core].stall_cycles_flush_fence += target - now
                    if self._bus.enabled:
                        self._bus.emit(StallBegin(now, core, STALL_FLUSH_FENCE))
                        self._bus.emit(StallEnd(target, core, STALL_FLUSH_FENCE))
                    now = target
                flush_outstanding.clear()
            return now

        if kind is OpKind.EPOCH:
            now = self._release_all(core, now, result)
            stall = self.hierarchy.scheme.on_epoch_boundary(core, now)
            if stall and self._bus.enabled:
                self._bus.emit(StallBegin(now, core, STALL_EPOCH))
                self._bus.emit(StallEnd(now + stall, core, STALL_EPOCH))
            return now + stall

        raise ValueError(f"unknown op kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Store buffer handling
    # ------------------------------------------------------------------
    def _commit_store(
        self, core: int, op: TraceOp, now: int, result: RunResult
    ) -> int:
        sb = self._store_buffers[core]
        if self._tso and not len(sb):
            # TSO fast path: release is eager, so by the time a store
            # commits the buffer is empty again — the entry would be pushed
            # and immediately popped.  Skip the round trip; the observable
            # behaviour (records, stats, timing) is identical.
            addr, size, value = op.addr, op.size, op.value
            persistent = self._is_persistent(addr)
            if persistent:
                self._seq += 1
                result.committed_persists.append(
                    PersistRecord(core, addr, size, value, self._seq)
                )
            now += 1  # commit cost
            try:
                done, persistent = self.hierarchy.store(
                    core, addr, size, value, now
                )
            except CrashNow:
                # The fast path models hardware that still routes stores
                # through the SB; restore the entry so the crash drain
                # sees exactly what the slow path would.
                sb.push(addr, value, size, persistent, now)
                raise
            if self._log_enabled:
                result.log.append(LogRecord(LogKind.STORE, core, addr, size, value))
            if persistent:
                self._seq += 1
                result.performed_persists.append(
                    PersistRecord(core, addr, size, value, self._seq)
                )
            return done

        if sb.full:
            now = self._release_oldest(core, now, result)
        persistent = self.config.mem.is_persistent(op.addr)
        sb.push(op.addr, op.value, op.size, persistent, now)
        if persistent:
            self._seq += 1
            result.committed_persists.append(
                PersistRecord(core, op.addr, op.size, op.value, self._seq)
            )
        now += 1  # commit cost

        if self.consistency is ConsistencyModel.TSO:
            return self._release_all(core, now, result)
        return self._release_relaxed(core, now, result)

    def _release_entry(self, core: int, entry, now: int, result: RunResult) -> int:
        done, persistent = self.hierarchy.store(
            core, entry.addr, entry.size, entry.value, now
        )
        if self._log_enabled:
            result.log.append(
                LogRecord(LogKind.STORE, core, entry.addr, entry.size, entry.value)
            )
        if persistent:
            self._seq += 1
            result.performed_persists.append(
                PersistRecord(core, entry.addr, entry.size, entry.value, self._seq)
            )
        return done

    def _release_all(self, core: int, now: int, result: RunResult) -> int:
        sb = self.hierarchy.store_buffers[core]
        while len(sb):
            entry = sb.pop_oldest(now)
            try:
                now = self._release_entry(core, entry, now, result)
            except CrashNow:
                # Crash mid-release: the store never left the SB as far as
                # the persistence domain is concerned — reinstate it ahead
                # of the unreleased remainder for the crash drain.
                sb.requeue([entry] + sb.entries())
                raise
        return now

    def _release_oldest(self, core: int, now: int, result: RunResult) -> int:
        sb = self.hierarchy.store_buffers[core]
        entry = sb.pop_oldest(now)
        if entry is not None:
            try:
                now = self._release_entry(core, entry, now, result)
            except CrashNow:
                sb.requeue([entry] + sb.entries())
                raise
        return now

    def _release_relaxed(self, core: int, now: int, result: RunResult) -> int:
        """Out-of-order release: each entry may release ahead of older ones
        to *different* blocks; same-block order is always preserved (the
        hardware guarantee relaxed models keep)."""
        sb = self.hierarchy.store_buffers[core]
        blocked_blocks = set()
        kept = []
        released = []
        bus_on = self._bus.enabled
        for entry in sb.entries():
            baddr = block_address(entry.addr, self.config.block_size)
            if baddr in blocked_blocks:
                kept.append(entry)
                continue
            if self._rng.random() < self._release_probability:
                if bus_on:
                    released.append((now, entry.addr))
                now = self._release_entry(core, entry, now, result)
            else:
                kept.append(entry)
                blocked_blocks.add(baddr)
        sb.requeue(kept)  # preserve original relative order
        if bus_on:
            # requeue bypasses pop_*, so emit the releases here (occupancy
            # reflects the post-release buffer, as with pop_oldest).
            for cycle, addr in released:
                self._bus.emit(SbRelease(cycle, core, addr, len(kept)))
        return now

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------
    def stream(self) -> "EngineStream":
        """Open a streaming ingestion session (see :class:`EngineStream`).

        An :class:`Engine` is single-shot: use either :meth:`run` or one
        stream per engine, never both."""
        return EngineStream(self)

    def run_stream(
        self,
        streams: Sequence[Iterable[TraceOp]],
        chunk: int = 256,
        finalize: bool = True,
    ) -> RunResult:
        """Execute per-core op iterables incrementally, pulling ``chunk``
        ops at a time from whichever core the engine starves on.

        Equivalent to materializing the iterables into a
        :class:`~repro.sim.trace.ProgramTrace` and calling :meth:`run` —
        bit-identical stats and persist records — without ever holding
        more than the in-flight chunks in memory.
        """
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        num_cores = self.config.num_cores
        if len(streams) > num_cores:
            raise ValueError(
                f"{len(streams)} op streams but the system has "
                f"{num_cores} cores"
            )
        iters = [iter(s) for s in streams]
        session = self.stream()

        def refill(core: int) -> None:
            batch = list(islice(iters[core], chunk))
            if batch:
                session.feed(core, batch)
            else:
                session.end(core)

        for core in range(len(iters)):
            refill(core)
        for core in range(len(iters), num_cores):
            session.end(core)
        while True:
            needy = session.pump()
            if needy is None:
                break
            refill(needy)
        return session.finish(finalize=finalize)


class RunCursor:
    """The loop state of one :meth:`Engine.run`, resumable op by op.

    Holds the min-heap over ``(clock, core)``, per-core op indices, clocks
    and outstanding flushes, the executed-op count and the
    :class:`RunResult`.  :meth:`step` runs the engine's one per-op loop up
    to a given executed-op count; :meth:`finish` settles the run exactly
    like a completed :meth:`Engine.run`.  Stopping between ops leaves the
    machine at an op boundary, which is where the crash-exploration
    kernel (:mod:`repro.check.kernel`) snapshots it.
    """

    def __init__(self, engine: Engine, trace: ProgramTrace) -> None:
        if trace.num_threads > engine.config.num_cores:
            raise ValueError(
                f"trace has {trace.num_threads} threads but the system has "
                f"{engine.config.num_cores} cores"
            )
        self.engine = engine
        self.trace = trace = program_of(trace)
        self.result = RunResult(stats=engine.stats)
        num_threads = trace.num_threads
        self.clocks = [0] * num_threads
        self.indices = [0] * num_threads
        self.flush_outstanding: List[List[int]] = [
            [] for _ in range(num_threads)
        ]
        self.executed = 0
        # Min-heap scheduler: always step the core with the smallest
        # clock, ties broken by core index — identical to a min() over
        # live cores, but O(log n) per step and with no per-step
        # liveness list-build.
        self.heap = [(0, c) for c in range(num_threads)
                     if trace.threads[c].ops]

    def step(self, until: Optional[int] = None) -> None:
        """Execute ops until ``executed`` reaches ``until`` (``None``: the
        end of the trace) or a scheduled crash fires.

        Op boundaries the crash schedule would only count (see
        :meth:`~repro.check.schedule.CrashSchedule.quiet_ops`) run without
        a per-op ``reached`` call and are counted in one
        :meth:`~repro.check.schedule.CrashSchedule.skip_ops`."""
        limit = sys.maxsize if until is None else until
        schedule = self.engine.hierarchy.crash_schedule
        if not schedule.enabled:
            self._run(limit, None)
            return
        quiet = schedule.quiet_ops()
        if quiet:
            before = self.executed
            self._run(min(limit, before + quiet), None)
            schedule.skip_ops(self.executed - before)
        self._run(limit, schedule)

    def _run(self, limit: int, schedule) -> None:
        """The per-op loop, up to ``limit`` executed ops; ``schedule``
        (``None``: unobserved) sees every op boundary."""
        execute = self.engine._execute
        result = self.result
        heap = self.heap
        indices = self.indices
        clocks = self.clocks
        flush_outstanding = self.flush_outstanding
        ops_per_core = [t.ops for t in self.trace.threads]
        executed = self.executed
        while heap and executed < limit:
            clock, core = heapq.heappop(heap)
            i = indices[core]
            ops = ops_per_core[core]
            indices[core] = i + 1
            try:
                clock = execute(core, ops[i], clock, result,
                                flush_outstanding[core])
                clocks[core] = clock
                executed += 1
                if schedule is not None:
                    schedule.reached(SITE_OP, clock)
            except CrashNow as crash:
                # A scheduled micro-step crash fired inside (or right
                # after) this op: ``executed`` counts fully-executed ops.
                clocks[core] = max(clocks[core], clock)
                result.crashed = True
                result.crash_op = executed
                result.crash_point = crash.point
                break
            if i + 1 < len(ops):
                heapq.heappush(heap, (clock, core))
        self.executed = executed

    def finish(self, finalize: bool = True) -> RunResult:
        """Settle the run: retire buffered stores, finalize the scheme (or
        crash-drain it), and publish per-core cycle counts."""
        return self.engine._epilogue(self.result, self.clocks,
                                     self.flush_outstanding, self.executed,
                                     finalize)


class EngineStream:
    """Incremental, request-driven execution session over one
    :class:`Engine`.

    Instead of materializing a whole :class:`~repro.sim.trace.ProgramTrace`
    up front, a caller *feeds* ops to per-core queues and *pumps* the
    engine, which executes exactly as far as it can while preserving the
    deterministic smallest-clock interleaving of :meth:`Engine.run`:

    * ``pump()`` executes ops only while the globally next heap key
      ``(clock, core)`` belongs to a core with buffered work.  When the
      next key belongs to a core whose queue is empty (and that has not
      been :meth:`end`-ed or marked :meth:`idle`), the pump *starves* and
      returns that core's index — backpressure telling the caller which
      stream the engine needs next.  This is what makes streamed ingestion
      bit-identical to a materialized run: an op fed later to the starved
      core could order before anything currently buffered elsewhere.
    * ``feed(core, ops)`` appends ops to a core's queue; ``end(core)``
      declares a stream complete; ``idle(core)`` temporarily removes a
      core from the starvation barrier (closed-loop serving: the core has
      no request in flight, so it cannot block global progress — a later
      ``feed`` re-arms it).
    * ``advance(core, cycle)`` moves an (empty-queued) core's clock
      forward to a request arrival time, modelling the gap between
      requests in an open-loop workload.
    * ``finish()`` ends every core, drains, and settles the run exactly
      like :meth:`Engine.run`'s completion path, returning the
      :class:`RunResult`.

    Because a core's clock only moves when its own ops execute, a starved
    core's clock is exactly the completion cycle of the last op it was
    fed — per-request latency falls out of ``clock(core)`` with no per-op
    completion callbacks (:mod:`repro.serve` builds on this).

    Every op runs through :meth:`Engine._execute`, the same per-op path
    as :meth:`Engine.run`.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        n = engine.config.num_cores
        self.num_cores = n
        self.result = RunResult(stats=engine.stats)
        self.clocks = [0] * n
        self.flush_outstanding: List[List[int]] = [[] for _ in range(n)]
        self.executed = 0
        self._pending: List[Deque[TraceOp]] = [deque() for _ in range(n)]
        self._ended = [False] * n
        self._idle = [False] * n
        self._finished = False
        schedule = engine.hierarchy.crash_schedule
        self._schedule = schedule
        self._schedule_on = schedule.enabled

    # -- ingestion -----------------------------------------------------
    def clock(self, core: int) -> int:
        """Core ``core``'s cycle clock — after a starve, the completion
        cycle of the last op it executed."""
        return self.clocks[core]

    def feed(self, core: int, ops: Iterable[TraceOp]) -> None:
        """Append ops to ``core``'s queue (clears an ``idle`` mark)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        if self._ended[core]:
            raise ValueError(f"core {core} already ended")
        self._idle[core] = False
        self._pending[core].extend(ops)

    def end(self, core: int) -> None:
        """Declare ``core``'s stream complete; it stops blocking pumps
        once its queue drains, and may not be fed again."""
        self._ended[core] = True
        self._idle[core] = False

    def idle(self, core: int) -> None:
        """Remove an empty-queued core from the starvation barrier until
        the next :meth:`feed` (closed-loop: no request in flight)."""
        if self._pending[core]:
            raise ValueError(f"core {core} has buffered ops; cannot idle")
        self._idle[core] = True

    def advance(self, core: int, cycle: int) -> None:
        """Move an empty-queued core's clock forward to ``cycle`` (no-op
        if its clock is already past), modelling inter-request gaps."""
        if self._pending[core]:
            raise ValueError(f"core {core} has buffered ops; cannot advance")
        if cycle > self.clocks[core]:
            self.clocks[core] = cycle

    # -- execution -----------------------------------------------------
    def pump(self) -> Optional[int]:
        """Execute every buffered op that can run without violating the
        global interleaving.  Returns the index of the core the engine
        starved on (feed, idle, or end it, then pump again), or ``None``
        when nothing blocks progress — every non-ended core is idle or
        the session is fully drained (or crashed)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        if self.result.crashed:
            return None
        execute = self.engine._execute
        result = self.result
        clocks = self.clocks
        pending = self._pending
        ended = self._ended
        idle = self._idle
        fo = self.flush_outstanding
        schedule_on = self._schedule_on
        schedule = self._schedule
        n = self.num_cores
        while True:
            # Same order as Engine.run's min-heap: smallest clock wins,
            # ties break toward the lower core index (ascending scan with
            # a strict ``<``).
            best = -1
            best_clock = 0
            starve = False
            for c in range(n):
                if pending[c]:
                    blocked = False
                elif ended[c] or idle[c]:
                    continue
                else:
                    blocked = True
                clk = clocks[c]
                if best < 0 or clk < best_clock:
                    best = c
                    best_clock = clk
                    starve = blocked
            if best < 0:
                return None
            if starve:
                return best
            op = pending[best].popleft()
            try:
                clock = execute(best, op, best_clock, result, fo[best])
                clocks[best] = clock
                self.executed += 1
                if schedule_on:
                    schedule.reached(SITE_OP, clock)
            except CrashNow as crash:
                clocks[best] = max(clocks[best], best_clock)
                result.crashed = True
                result.crash_op = self.executed
                result.crash_point = crash.point
                return None

    # -- completion ----------------------------------------------------
    def finish(self, finalize: bool = True) -> RunResult:
        """End every core, drain all buffered ops, and settle the run
        exactly as :meth:`Engine.run` does on completion."""
        if self._finished:
            return self.result
        for core in range(self.num_cores):
            self._ended[core] = True
            self._idle[core] = False
        self.pump()
        self._finished = True
        return self.engine._epilogue(
            self.result, self.clocks, self.flush_outstanding,
            self.executed, finalize,
        )
