"""The crash-exploration kernel: run once, read each crash image off the run.

Every crash-state consumer — the model checker, counterexample
minimization, the optimizer's final-image and litmus sweeps, the litmus
battery, and the op-boundary sweep of ``repro crash`` (``sites=(SITE_OP,)``)
— asks the same question: *what durable state does a crash at micro-step
visit ``k`` leave*, for many ``k`` of one trace.

Inside the battery domain a store is durable the moment it is visible,
so that state is the NVMM media plus what the battery would write at
that moment; what a crash does to the rest of the machine does not
matter.  Khyzha & Lahav's Px86 semantics model persistence the same way,
as an explicit state beside the volatile machine.  The kernel takes the
view literally: one *master pass* runs the trace under a schedule that
never fires.  At each target visit it records a :class:`CrashImage` —

* a copy of the media with the scheme's
  :meth:`~repro.core.persistency.PersistencyScheme.crash_writes` applied,
* the visit that would have fired,
* the number of ops executed before it,
* both persist logs up to it,

— and the run carries on.  A real crash (:class:`~repro.check.schedule.
CrashNow`, then ``crash_drain``) makes the same ``crash_writes``, and the
store, writeback or drain packet a crash interrupts is recorded where
both read it, so the image and the crash are one piece of code.

Replay — a fresh system per point, crashed through ``CrashNow`` — stays
as the reference and the fallback.  The kernel takes it, and reports why
in :attr:`KernelStats.fallback`, when an image would not match a real
crash: under an enabled fault injector (its charge and corruption draws
change what the crash drain writes) and for a scheme that overrides
``crash_drain`` itself (the image would not see what that drain does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.check.schedule import SITE_OP, CrashSchedule, FiredPoint

#: ``build(schedule) -> System``: a fresh, seeded system wired to
#: ``schedule``.
Build = Callable[[CrashSchedule], Any]


# ----------------------------------------------------------------------
# The counting pass
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointProfile:
    """What a counting pass learned about one trace: the total number of
    crash points and the per-site counts."""

    total: int
    site_counts: Dict[str, int]


def count_points(build: Build, trace,
                 sites: Optional[Iterable[str]] = None) -> PointProfile:
    """The counting pass: run ``trace`` once on ``build``'s system under
    an unbounded schedule."""
    schedule = CrashSchedule(stop_at=None, sites=sites)
    result = build(schedule).run(trace)
    if result.crashed:
        raise RuntimeError(
            "counting run crashed — an unbounded CrashSchedule must never fire"
        )
    return PointProfile(schedule.visits, dict(schedule.site_counts))


# ----------------------------------------------------------------------
# Crash images
# ----------------------------------------------------------------------

@dataclass
class CrashImage:
    """The durable state a crash at one visit leaves, read off a live run.

    It stands in for both the crashed machine (``nvmm_media``) and its
    :class:`~repro.sim.engine.RunResult` (the crash fields and the
    persist logs), which is all the oracles read of either."""

    nvmm_media: Any
    crash_point: FiredPoint
    crash_op: int
    committed_persists: List[Any]
    performed_persists: List[Any]
    crashed: bool = True


@dataclass
class CrashRun:
    """A crash at micro-step visit ``point``: a replayed machine and its
    result, or a :class:`CrashImage` standing for both."""

    point: int
    system: Any
    result: Any
    #: Read off the master pass (else replayed on a fresh system).
    virtual: bool


@dataclass
class KernelStats:
    """Which path each point took, and why, when it was replay."""

    virtual: int = 0
    replayed: int = 0
    fallback: Optional[str] = None


def replay_reason(system) -> Optional[str]:
    """Why crash images of ``system``'s run would not match a real crash,
    so that its points must be replayed; ``None`` when they do."""
    from repro.core.persistency import PersistencyScheme

    if system.fault_injector.enabled:
        return "fault injector enabled"
    cls = type(system.scheme)
    if cls.crash_drain is not PersistencyScheme.crash_drain:
        return f"{cls.__qualname__} overrides crash_drain"
    return None


class _Imager(CrashSchedule):
    """The master pass's schedule.  It never fires: at each target visit
    it records a :class:`CrashImage` instead, and the run carries on.

    ``stop_at`` holds the next target, so :meth:`quiet_ops` lets the
    engine count the op boundaries before it in bulk."""

    def __init__(self, sites: Optional[Iterable[str]],
                 points: Optional[Sequence[int]]) -> None:
        super().__init__(stop_at=None, sites=sites)
        #: Targets still ahead, ascending; ``None``: every visit.
        self._points = None if points is None else iter(points)
        self.stop_at = self._next()
        #: Ops fully executed, whatever ``sites`` counts.
        self.ops = 0
        self.images: List[CrashImage] = []
        self.system: Any = None
        self.result: Any = None

    def _next(self) -> Optional[int]:
        if self._points is None:
            return self.visits + 1
        return next(self._points, None)

    def every_visit(self) -> None:
        """Image every visit from here on."""
        self._points = None
        self.stop_at = self._next()

    def reached(self, site: str, cycle: int = 0, addr: int = 0) -> None:
        if site == SITE_OP:
            self.ops += 1
        CrashSchedule.reached(self, site, cycle, addr)

    def skip_ops(self, n: int) -> None:
        self.ops += n
        CrashSchedule.skip_ops(self, n)

    def fire(self, point: FiredPoint) -> None:
        media = self.system.nvmm_media.copy()
        for write in self.system.scheme.crash_writes():
            media.write_block(write.block_addr, write.data)
        self.images.append(CrashImage(
            media, point, self.ops,
            self.result.committed_persists[:],
            self.result.performed_persists[:],
        ))
        self.stop_at = self._next()


def _master(build: Build, trace, schedule: _Imager):
    """A master pass over ``trace``: its system and an unpumped session."""
    system = build(schedule)
    session = system.engine.stream(trace)
    schedule.system, schedule.result = system, session.result
    return system, session


def _replay(build: Build, trace, point: int,
            sites: Optional[Iterable[str]] = None) -> CrashRun:
    """Run ``trace`` from op 0 on a fresh system crashing at ``point``."""
    system = build(CrashSchedule(stop_at=point, sites=sites))
    run = CrashRun(point, system, system.run(trace), virtual=False)
    fired = run.result.crash_point
    if not run.result.crashed or fired is None or fired.index != point:
        _not_fired(point)
    return run


def _not_fired(point: int) -> None:
    raise RuntimeError(
        f"crash point {point} did not fire — the counting run reached it, "
        f"so the simulator is not deterministic"
    )


def crash_runs(
    build: Build,
    trace,
    points: Optional[Iterable[int]] = None,
    sites: Optional[Iterable[str]] = None,
    stats: Optional[KernelStats] = None,
) -> Iterator[CrashRun]:
    """Yield one :class:`CrashRun` per point, in ascending point order.

    ``points`` defaults to every point: the master pass then images
    every visit, so no counting pass is needed, and the last run's point
    is the total.  The master is pumped op by op and hands out the images
    each op recorded, so at most one op's images are alive besides the
    one the caller holds.  When :func:`replay_reason` finds one, every
    point is replayed instead and ``stats.fallback`` says why.
    """
    stats = stats if stats is not None else KernelStats()
    if points is not None:
        points = sorted(set(points))
    schedule = _Imager(sites, points)
    system, session = _master(build, trace, schedule)
    stats.fallback = replay_reason(system)
    if stats.fallback is not None:
        if points is None:
            points = range(1, count_points(build, trace, sites).total + 1)
        for point in points:
            stats.replayed += 1
            yield _replay(build, trace, point, sites)
        return
    ended = False
    while schedule.stop_at is not None and not ended:
        executed = session.executed
        # ``_pump``, as ``Engine.run`` calls it: the master pass is a run
        # pumped in steps, not a streamed session.
        session._pump(executed + 1)
        if session.executed == executed:
            ended = True  # every op ran; the epilogue's visits remain
            session.settle()
        images, schedule.images = schedule.images, []
        for image in images:
            stats.virtual += 1
            yield CrashRun(image.crash_point.index, image, image, virtual=True)
        del images
    if ended and points is not None and schedule.stop_at is not None:
        _not_fired(schedule.stop_at)


def final_crash(build: Build, trace) -> Tuple[Any, Optional[Any]]:
    """Crash ``trace`` at its last micro-step visit in one pass: the
    master images every visit from the start of its last op on and keeps
    the last image.  Returns ``(system, result)``: the image for both, or
    a replayed machine and its result; ``result`` is ``None`` when the
    run has no crash point at all (no ops), in which case ``system`` is
    the cleanly finished master."""
    schedule = _Imager(None, ())
    system, session = _master(build, trace, schedule)
    reason = replay_reason(system)
    if reason is None:
        session._pump(trace.total_ops() - 1)
        schedule.every_visit()
    session._pump()
    session.settle()
    total = schedule.visits
    if not total:
        return system, None
    if reason is not None:
        run = _replay(build, trace, total)
        return run.system, run.result
    image = schedule.images[-1]
    return image, image
