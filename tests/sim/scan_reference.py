"""The scan scheduler the engine's heap replaced, kept as a test reference.

:class:`ScanSession` speaks the streaming-session protocol (feed, end,
idle, advance, pump, finish) with the original scheduler: on every step a
``min()`` over the live cores by ``(clock, core)``, where a core is live
while it has queued ops or is neither ended nor idle.  It executes each op
through the same :meth:`~repro.sim.engine.Engine._execute` and settles
through an unpumped :class:`~repro.sim.engine.EngineStream` of its own
system, so comparing it with the real session checks the scheduler alone.
No crash schedule: a crash would need the engine's crash bookkeeping.
"""

from collections import deque


class ScanSession:
    def __init__(self, system) -> None:
        # Clocks, flush lists, the result and the settle step; never pumped.
        self.state = system.stream()
        n = self.state.num_cores
        self.num_cores = n
        self.pending = [deque() for _ in range(n)]
        self.ended = [False] * n
        self.idled = [False] * n

    def clock(self, core: int) -> int:
        return self.state.clocks[core]

    def feed(self, core: int, ops) -> None:
        assert not self.ended[core]
        self.idled[core] = False
        self.pending[core].extend(ops)

    def end(self, core: int) -> None:
        self.ended[core] = True
        self.idled[core] = False

    def idle(self, core: int) -> None:
        assert not self.pending[core]
        self.idled[core] = True

    def advance(self, core: int, cycle: int) -> None:
        assert not self.pending[core]
        clocks = self.state.clocks
        clocks[core] = max(clocks[core], cycle)

    def pump(self):
        """Run until the smallest live key belongs to a core with nothing
        queued (return it) or no core is live (return ``None``)."""
        state = self.state
        clocks = state.clocks
        execute = state.engine._execute
        while True:
            live = [(clocks[c], c) for c in range(self.num_cores)
                    if self.pending[c]
                    or not (self.ended[c] or self.idled[c])]
            if not live:
                return None
            clock, core = min(live)
            if not self.pending[core]:
                return core
            op = self.pending[core].popleft()
            clocks[core] = execute(core, op, clock, state.result,
                                   state.flush_outstanding[core])
            state.executed += 1

    def finish(self, finalize: bool = True):
        for core in range(self.num_cores):
            self.end(core)
        assert self.pump() is None
        return self.state.settle(finalize)


def scan_run(system, trace, finalize: bool = True):
    """``system.run(trace)`` on the scan scheduler."""
    session = ScanSession(system)
    for core, thread in enumerate(trace.threads):
        session.feed(core, thread.ops)
    return session.finish(finalize)
