"""The multicore trace-interleaving engine.

The engine executes a :class:`~repro.sim.trace.ProgramTrace` over a
:class:`~repro.mem.hierarchy.MemoryHierarchy`.  Each core has its own cycle
clock; the engine always steps the core with the smallest clock, which gives
a deterministic, contention-aware interleaving of the threads (the standard
trace-driven multicore approach).

That interleaving lives in one per-op loop, :class:`EngineStream`, which
reads the next core off a ``(clock, core)`` min-heap.  :meth:`Engine.run`
is a session over a trace's op lists pumped to the end; serving, drills
and :meth:`Engine.run_stream` feed a session incrementally; the
crash-exploration kernel pumps one op by op, reading crash images off it.

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
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, List, NamedTuple, Optional, Sequence

from repro.check.schedule import SITE_OP, CrashNow, FiredPoint
from repro.core.persistency import DrainReport
from repro.mem.block import block_address
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.storebuffer import SBEntry
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
        self._scheduled = hierarchy.crash_schedule.enabled
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
        produce identical results.  The run is one :class:`EngineStream`
        session over the trace's op lists, pumped to the end and settled.
        """
        session = self.stream(trace)
        session._pump()
        return session.settle(finalize)

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
            if self._scheduled:
                # The fast path models hardware that still routes stores
                # through the SB: a crash inside the store finds it in
                # flight, exactly as the slow path would.
                sb.inflight = SBEntry(addr, size, value, 0, persistent)
                done, persistent = self.hierarchy.store(
                    core, addr, size, value, now
                )
                sb.inflight = None
            else:
                done, persistent = self.hierarchy.store(
                    core, addr, size, value, now
                )
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
            now = self._release_oldest(core, now, result)
        return now

    def _release_oldest(self, core: int, now: int, result: RunResult) -> int:
        sb = self.hierarchy.store_buffers[core]
        entry = sb.pop_oldest(now)
        if entry is not None:
            # Until the L1D write completes the store has not left the SB
            # as far as the persistence domain is concerned: a crash in
            # between finds it in flight, ahead of the unreleased rest.
            sb.inflight = entry
            now = self._release_entry(core, entry, now, result)
            sb.inflight = None
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
    # Sessions
    # ------------------------------------------------------------------
    def stream(self, trace: Optional[ProgramTrace] = None) -> "EngineStream":
        """Open a session of the engine's per-op loop (see
        :class:`EngineStream`).

        Without ``trace`` the session streams: ops are fed core by core.
        With ``trace`` it runs over the trace's per-thread op lists, held
        as they are, with every core already ended — the session
        :meth:`run` and the crash-exploration kernel
        (:mod:`repro.check.kernel`) pump.  An :class:`Engine` is
        single-shot: open one session per engine."""
        if trace is None:
            return EngineStream(self)
        trace = program_of(trace)
        if trace.num_threads > self.config.num_cores:
            raise ValueError(
                f"trace has {trace.num_threads} threads but the system has "
                f"{self.config.num_cores} cores"
            )
        return EngineStream(self, [thread.ops for thread in trace.threads])

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


#: Core modes of an :class:`EngineStream`.  An open core with an empty
#: queue blocks the loop; idle and ended cores do not.
_OPEN, _IDLE, _ENDED = 0, 1, 2


class EngineStream:
    """An execution session over one :class:`Engine`: the engine's one
    per-op loop.

    Each core has an op queue and a cycle clock.  The loop always steps
    the core with the smallest ``(clock, core)`` key, read off a min-heap
    that holds exactly one entry per *live* core — one with queued ops,
    or one neither :meth:`end`-ed nor :meth:`idle`.  :meth:`Engine.run`
    opens a session over a trace's op lists with every core ended and
    pumps it to the end; streaming callers (serving, drills,
    :meth:`Engine.run_stream`) feed ops incrementally instead:

    * ``pump(until=None)`` executes ops while the smallest key belongs to
      a core with queued work, stopping after ``until`` executed ops if
      given.  When the smallest key belongs to an open core whose queue
      is empty, the pump *starves* and returns that core's index —
      backpressure telling the caller which stream the engine needs
      next.  This is what makes streamed ingestion bit-identical to a
      materialized run: an op fed later to the starved core could order
      before anything currently queued elsewhere.
    * ``feed(core, ops)`` appends ops to a core's queue; ``end(core)``
      declares a stream complete; ``idle(core)`` temporarily removes a
      core from the starvation barrier (closed-loop serving: the core has
      no request in flight, so it cannot block global progress — a later
      ``feed`` re-arms it).
    * ``advance(core, cycle)`` moves an (empty-queued) core's clock
      forward to a request arrival time, modelling the gap between
      requests in an open-loop workload.
    * ``finish()`` ends every core, drains, and settles the session,
      returning the :class:`RunResult`.

    Because a core's clock only moves when its own ops execute, a starved
    core's clock is exactly the completion cycle of the last op it was
    fed — per-request latency falls out of ``clock(core)`` with no per-op
    completion callbacks (:mod:`repro.serve` builds on this).

    Stopping a pump at ``until`` leaves the machine at an op boundary;
    the crash-exploration kernel (:mod:`repro.check.kernel`) pumps op by
    op and hands out the crash images each op's visits recorded.
    """

    def __init__(self, engine: Engine,
                 ops: Optional[Sequence[List[TraceOp]]] = None) -> None:
        self.engine = engine
        # A streamed session drives every core; one over a trace only the
        # trace's threads: the cores beyond them never run.
        n = engine.config.num_cores if ops is None else len(ops)
        self.num_cores = n
        self.result = RunResult(stats=engine.stats)
        self.clocks = [0] * n
        self.flush_outstanding: List[List[int]] = [[] for _ in range(n)]
        self.executed = 0
        # Per-core op queue and the index of its next op.  A trace's op
        # lists are held as they are and never written (its cores start
        # ended, and only open cores are fed).
        if ops is None:
            self._queues: List[List[TraceOp]] = [[] for _ in range(n)]
            self._mode = [_OPEN] * n
            self._heap = [(0, core) for core in range(n)]
        else:
            self._queues = list(ops)
            self._mode = [_ENDED] * n
            self._heap = [(0, core) for core in range(n) if ops[core]]
        self._next = [0] * n
        self._finished = False

    def _queued(self, core: int) -> bool:
        return self._next[core] < len(self._queues[core])

    def _unschedule(self, core: int) -> None:
        """Take ``core``'s entry out of the heap (a rebuild of at most
        ``num_cores`` entries)."""
        self._heap.remove((self.clocks[core], core))
        heapq.heapify(self._heap)

    # -- ingestion -----------------------------------------------------
    def clock(self, core: int) -> int:
        """Core ``core``'s cycle clock — after a starve, the completion
        cycle of the last op it executed."""
        return self.clocks[core]

    def feed(self, core: int, ops: Iterable[TraceOp]) -> None:
        """Append ops to ``core``'s queue (clears an ``idle`` mark)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        mode = self._mode[core]
        if mode == _ENDED:
            raise ValueError(f"core {core} already ended")
        queue = self._queues[core]
        done = self._next[core]
        if done:
            del queue[:done]
            self._next[core] = 0
        queue.extend(ops)
        if mode == _IDLE:
            self._mode[core] = _OPEN
            heapq.heappush(self._heap, (self.clocks[core], core))

    def end(self, core: int) -> None:
        """Declare ``core``'s stream complete; it stops blocking pumps
        once its queue drains, and may not be fed again."""
        if self._mode[core] == _OPEN and not self._queued(core):
            self._unschedule(core)
        self._mode[core] = _ENDED

    def idle(self, core: int) -> None:
        """Remove an empty-queued core from the starvation barrier until
        the next :meth:`feed` (closed-loop: no request in flight)."""
        if self._queued(core):
            raise ValueError(f"core {core} has buffered ops; cannot idle")
        if self._mode[core] == _OPEN:
            self._unschedule(core)
            self._mode[core] = _IDLE

    def advance(self, core: int, cycle: int) -> None:
        """Move an empty-queued core's clock forward to ``cycle`` (no-op
        if its clock is already past), modelling inter-request gaps."""
        if self._queued(core):
            raise ValueError(f"core {core} has buffered ops; cannot advance")
        if cycle > self.clocks[core]:
            scheduled = self._mode[core] == _OPEN
            if scheduled:
                self._unschedule(core)
            self.clocks[core] = cycle
            if scheduled:
                heapq.heappush(self._heap, (cycle, core))

    # -- execution -----------------------------------------------------
    def pump(self, until: Optional[int] = None) -> Optional[int]:
        """Execute every queued op that can run without violating the
        global interleaving, stopping once ``executed`` reaches ``until``
        (``None``: no limit) or a scheduled crash fires.  Returns the
        index of the core the engine starved on (feed, idle, or end it,
        then pump again), or ``None`` when nothing blocks progress —
        every open core is idle, the session is drained or crashed, or
        ``until`` was reached."""
        if self._finished:
            raise RuntimeError("stream already finished")
        return self._pump(until)

    def _pump(self, until: Optional[int] = None) -> Optional[int]:
        """:meth:`pump`, minus the public entry check.  :meth:`Engine.run`
        calls it directly, so wrappers around :meth:`pump` (the repository
        benchmark's spans) count the pumps of sessions, not of runs.

        Op boundaries the crash schedule would only count (see
        :meth:`~repro.check.schedule.CrashSchedule.quiet_ops`) run without
        a per-op ``reached`` call and are counted in one
        :meth:`~repro.check.schedule.CrashSchedule.skip_ops`."""
        if self.result.crashed:
            return None
        limit = sys.maxsize if until is None else until
        schedule = self.engine.hierarchy.crash_schedule
        if not schedule.enabled:
            return self._run(limit, None)
        quiet = schedule.quiet_ops()
        if quiet:
            before = self.executed
            starved = self._run(min(limit, before + quiet), None)
            schedule.skip_ops(self.executed - before)
            if starved is not None:
                return starved
        return self._run(limit, schedule)

    def _run(self, limit: int, schedule) -> Optional[int]:
        """The per-op loop, up to ``limit`` executed ops; ``schedule``
        (``None``: unobserved) sees every op boundary.  Returns the core
        it starved on, if any."""
        execute = self.engine._execute
        result = self.result
        heap = self._heap
        queues = self._queues
        nexts = self._next
        clocks = self.clocks
        flush_outstanding = self.flush_outstanding
        mode = self._mode
        executed = self.executed
        starved = None
        while heap and executed < limit:
            clock, core = heap[0]
            ops = queues[core]
            i = nexts[core]
            if i == len(ops):
                # Live with nothing queued: an open core the loop waits on.
                starved = core
                break
            nexts[core] = i + 1
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
                heapq.heapreplace(heap, (clocks[core], core))
                result.crashed = True
                result.crash_op = executed
                result.crash_point = crash.point
                break
            if i + 1 < len(ops) or mode[core] == _OPEN:
                heapq.heapreplace(heap, (clock, core))
            else:
                heapq.heappop(heap)
        self.executed = executed
        return starved

    # -- completion ----------------------------------------------------
    def finish(self, finalize: bool = True) -> RunResult:
        """End every core, drain all queued ops, and settle the session."""
        if self._finished:
            return self.result
        self._mode = [_ENDED] * self.num_cores
        self._heap = [(self.clocks[core], core)
                      for core in range(self.num_cores) if self._queued(core)]
        heapq.heapify(self._heap)
        self.pump()
        return self.settle(finalize)

    def settle(self, finalize: bool = True) -> RunResult:
        """Settle the session where it stands — drained or crashed: retire
        remaining store-buffer entries and outstanding flushes, finalize
        the scheme (or crash-drain it), and publish per-core cycle counts.
        Ops still queued are dropped.  :meth:`finish`, :meth:`Engine.run`
        and the crash kernel's master pass end here; a settled session is
        finished."""
        self._finished = True
        engine = self.engine
        result = self.result
        clocks = self.clocks
        if not result.crashed:
            try:
                for core in range(self.num_cores):
                    clocks[core] = engine._release_all(core, clocks[core],
                                                       result)
                    if self.flush_outstanding[core]:
                        clocks[core] = max(clocks[core],
                                           max(self.flush_outstanding[core]))
                if finalize:
                    engine.hierarchy.scheme.finalize(max(clocks))
            except CrashNow as crash:
                result.crashed = True
                result.crash_op = self.executed
                result.crash_point = crash.point
        if result.crashed:
            result.drain_report = engine.hierarchy.scheme.crash_drain(
                max(clocks))
        for core, clock in enumerate(clocks):
            engine.stats.core[core].cycles = clock
        return result
