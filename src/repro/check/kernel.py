"""The crash-exploration kernel: step, snapshot, crash, compare.

Every crash-state consumer — the model checker, counterexample
minimization, the optimizer's final-image and litmus sweeps, the litmus
battery, and the op-boundary sweep of ``repro crash`` (``sites=(SITE_OP,)``)
— asks the same question: *what does the machine look like after a crash
at micro-step visit ``k``*, for many ``k`` of one trace.  The kernel
answers it in two passes instead of one replay per point (the
explicit-state view of persistency, as in Khyzha & Lahav's Px86
semantics):

1. a *counting pass* runs the trace once under an unbounded
   :class:`~repro.check.schedule.CrashSchedule` and records the visit
   count at every op boundary (:func:`count_points`);
2. a *master pass* runs the trace once more and walks the sorted target
   points.  For each point ``k`` it stops at the op boundary before the
   op that holds ``k`` (or before the run's epilogue), snapshots the
   machine together with its :class:`~repro.sim.engine.EngineStream`
   session, sets ``stop_at=k`` on the copy and resumes the copy.  The
   crash then fires through the real
   :class:`~repro.check.schedule.CrashNow` path, so every repair handler
   (store-buffer reinstatement, bbPB entry reinstatement, in-flight
   writeback capture) runs exactly as in a replay from op 0.

A snapshot shares what no run mutates — frozen configs, the trace and
its ops, persist records, enums, module-level functions and the
``NULL_*`` singletons (whose identity the NULL-object guards rely on) —
and copies everything else.  A machine holding a closure over mutable
state (an out-of-tree scheme, say) cannot be copied faithfully: the
snapshot refuses it, and the kernel falls back to replay for the rest of
that trace, reporting why.

Forking has a fixed cost that replay does not: copying an idle machine.
Points in the first :data:`REBUILD_BELOW_OPS` ops — the whole of a
litmus-size trace — are therefore replayed on a freshly built system
(see ``docs/performance.md``, "Crash exploration", for the measurement
behind the constant).
"""

from __future__ import annotations

import enum
import random
import types
from bisect import bisect_left
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from functools import partial
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

from repro.check.schedule import NULL_SCHEDULE, SITE_OP, CrashSchedule

#: Target points whose op (0-based index in execution order) lies below
#: this are replayed on a freshly built system instead of forked: for
#: such short prefixes a build plus replay is cheaper than copying the
#: machine (measured in ``docs/performance.md``, "Crash exploration").
REBUILD_BELOW_OPS = 64

#: ``build(schedule) -> System``: a fresh, seeded system wired to
#: ``schedule``.
Build = Callable[[CrashSchedule], Any]


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

class SnapshotRefused(Exception):
    """The machine holds state a snapshot cannot copy faithfully."""


#: Builtin types whose instances are immutable and shared as they are.
_IMMUTABLE_BUILTINS = frozenset({
    type(None), bool, int, float, complex, str, bytes, range, type,
    types.BuiltinFunctionType, type(Ellipsis), type(NotImplemented),
})

# A class statement makes a heap type that is not immutable; builtin and
# extension types are static, or immutable heap types.
_HEAPTYPE = 1 << 9       # Py_TPFLAGS_HEAPTYPE
_IMMUTABLETYPE = 1 << 8  # Py_TPFLAGS_IMMUTABLETYPE (Python >= 3.10)


def _is_plain(cls: type) -> bool:
    """Whether instances of ``cls`` are fully described by their
    ``__dict__``/``__slots__``: a Python-defined class with no builtin
    base but ``object`` and no custom copy or pickle protocol."""
    return (
        all(c is object or c.__flags__ & (_HEAPTYPE | _IMMUTABLETYPE)
            == _HEAPTYPE for c in cls.__mro__)
        and cls.__new__ is object.__new__
        and cls.__reduce_ex__ is object.__reduce_ex__
        and cls.__reduce__ is object.__reduce__
        and not hasattr(cls, "__deepcopy__")
    )


def _slot_names(cls: type) -> Tuple[str, ...]:
    names: List[str] = []
    for c in cls.__mro__:
        slots = c.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(s for s in slots if s not in ("__dict__", "__weakref__"))
    return tuple(names)


class Snapshotter:
    """Deep copies of one machine that share its immutable state.

    Shared, never copied: ``shared``, the ``NULL_*`` singletons (whose
    identity the NULL-object guards rely on), immutable builtins, enums,
    frozen dataclasses, persist records and module-level functions.
    Refused with :class:`SnapshotRefused`: a closure over mutable state,
    and any object whose class is not plain Python (its state would not
    be copied).  One snapshotter serves every copy of a master pass and
    learns each class's copy strategy once.
    """

    def __init__(self, shared: Iterable[Any] = ()) -> None:
        from repro.fault.injector import NULL_INJECTOR
        from repro.mem.block import BlockData
        from repro.obs.bus import NULL_BUS
        from repro.sim.engine import PersistRecord

        self._roots = (NULL_BUS, NULL_INJECTOR, NULL_SCHEDULE, *shared)
        #: Types shared as they are; grows as enums, frozen dataclasses
        #: and the like are met.  Persist records are tuples of ints, one
        #: per persisting store: shared without looking inside.
        self.shared_types = set(_IMMUTABLE_BUILTINS) | {PersistRecord}
        #: Copy strategy per class; block payloads copy themselves.
        self.kinds: Dict[type, Any] = {BlockData: Snapshotter._block}
        self.memo: Dict[int, Any] = {}

    def __call__(self, root: Any) -> Any:
        """A deep copy of ``root``."""
        self.memo = {id(obj): obj for obj in self._roots}
        try:
            return self.copy(root)
        finally:
            self.memo = {}

    def copy(self, x: Any) -> Any:
        cls = type(x)
        if cls in self.shared_types:
            return x
        memo = self.memo
        y = memo.get(id(x), memo)
        if y is not memo:
            return y
        kind = self.kinds.get(cls)
        if kind is None:
            kind = _classify(cls)
            if kind is _SHARE:
                self.shared_types.add(cls)
                return x
            self.kinds[cls] = kind
        return kind(self, x)

    # -- handlers --------------------------------------------------------
    # Handlers test ``type(v) in shared`` inline before recursing: most
    # values in a machine are ints, bools and enums.
    def _list(self, x: list) -> list:
        y: list = []
        self.memo[id(x)] = y
        copy = self.copy
        shared = self.shared_types
        y.extend([v if type(v) in shared else copy(v) for v in x])
        return y

    def _tuple(self, x: tuple) -> tuple:
        copy = self.copy
        y = tuple([copy(v) for v in x])
        if all(a is b for a, b in zip(x, y)):
            y = x
        self.memo[id(x)] = y
        return y

    def _dict(self, x: dict) -> dict:
        y = type(x)()
        self.memo[id(x)] = y
        copy = self.copy
        shared = self.shared_types
        for k, v in x.items():
            y[k if type(k) in shared else copy(k)] = (
                v if type(v) in shared else copy(v))
        return y

    def _set(self, x: set) -> set:
        y: set = set()
        self.memo[id(x)] = y
        copy = self.copy
        shared = self.shared_types
        y.update([v if type(v) in shared else copy(v) for v in x])
        return y

    def _frozenset(self, x: frozenset) -> frozenset:
        copy = self.copy
        values = [copy(v) for v in x]
        if all(a is b for a, b in zip(x, values)):
            return x
        return frozenset(values)

    def _deque(self, x: deque) -> deque:
        y: deque = deque(maxlen=x.maxlen)
        self.memo[id(x)] = y
        copy = self.copy
        y.extend([copy(v) for v in x])
        return y

    def _random(self, x: random.Random) -> random.Random:
        y = self.memo[id(x)] = random.Random()
        y.setstate(x.getstate())
        return y

    def _function(self, x: types.FunctionType) -> types.FunctionType:
        # A module-level function is shared; a closure is shared only when
        # every captured value is itself immutable.
        for cell in x.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            if self.copy(value) is not value:
                raise SnapshotRefused(
                    f"closure {x.__qualname__} captures mutable "
                    f"{type(value).__qualname__} state"
                )
        return x

    def _method(self, x: types.MethodType) -> types.MethodType:
        func, owner = self.copy(x.__func__), self.copy(x.__self__)
        if func is x.__func__ and owner is x.__self__:
            return x  # bound to a shared object (a frozen config, say)
        y = self.memo[id(x)] = types.MethodType(func, owner)
        return y

    def _object(self, x: Any) -> Any:
        y = object.__new__(type(x))
        self.memo[id(x)] = y
        copy = self.copy
        shared = self.shared_types
        state = x.__dict__.copy()
        for k, v in state.items():
            if type(v) not in shared:
                state[k] = copy(v)
        y.__dict__ = state
        return y

    def _slotted(self, x: Any, slots: Tuple[str, ...]) -> Any:
        y = object.__new__(type(x))
        self.memo[id(x)] = y
        copy = self.copy
        for name in slots:
            try:
                value = getattr(x, name)
            except AttributeError:
                continue
            setattr(y, name, copy(value))
        state = getattr(x, "__dict__", None)
        if state is not None:
            y.__dict__.update({k: copy(v) for k, v in state.items()})
        return y

    def _block(self, x: Any) -> Any:
        y = self.memo[id(x)] = x.copy()
        return y

    def _refuse(self, x: Any) -> Any:
        raise SnapshotRefused(
            f"cannot snapshot a {type(x).__module__}."
            f"{type(x).__qualname__} object"
        )


_SHARE = object()

_HANDLERS: Dict[type, Any] = {
    list: Snapshotter._list,
    tuple: Snapshotter._tuple,
    dict: Snapshotter._dict,
    OrderedDict: Snapshotter._dict,
    Counter: Snapshotter._dict,
    set: Snapshotter._set,
    frozenset: Snapshotter._frozenset,
    deque: Snapshotter._deque,
    random.Random: Snapshotter._random,
    types.FunctionType: Snapshotter._function,
    types.MethodType: Snapshotter._method,
}


def _classify(cls: type) -> Any:
    """How a snapshot treats instances of ``cls``: a handler, or
    ``_SHARE`` for immutable ones."""
    handler = _HANDLERS.get(cls)
    if handler is not None:
        return handler
    if issubclass(cls, enum.Enum):
        return _SHARE
    params = getattr(cls, "__dataclass_params__", None)
    if params is not None and params.frozen:
        return _SHARE
    if _is_plain(cls):
        slots = _slot_names(cls)
        if slots:
            return partial(Snapshotter._slotted, slots=slots)
        return Snapshotter._object
    return Snapshotter._refuse


def snapshot(root: Any, shared: Iterable[Any] = ()) -> Any:
    """A one-off :class:`Snapshotter` copy of ``root``."""
    return Snapshotter(shared)(root)


def _trace_objects(trace) -> List[Any]:
    """The trace and its per-thread op lists: read, never written, by a
    run — shared by every snapshot."""
    objs: List[Any] = [trace]
    for thread in trace.threads:
        objs.append(thread)
        objs.append(thread.ops)
    return objs


# ----------------------------------------------------------------------
# The counting pass
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointProfile:
    """What a counting pass learned about one trace: the total number of
    crash points, the per-site counts, and the visit count after each
    executed op (``boundaries[i]`` after ``i + 1`` ops)."""

    total: int
    site_counts: Dict[str, int]
    boundaries: Tuple[int, ...]

    def op_of(self, point: int) -> int:
        """Ops executed before the op holding ``point`` (the number of
        ops when it lies in the run's epilogue)."""
        return bisect_left(self.boundaries, point)


class _BoundarySchedule(CrashSchedule):
    """An unbounded schedule that also records the visit count at every
    op boundary."""

    def __init__(self, sites: Optional[Sequence[str]]) -> None:
        super().__init__(stop_at=None, sites=sites)
        self.boundaries: List[int] = []

    def reached(self, site: str, cycle: int = 0, addr: int = 0) -> None:
        CrashSchedule.reached(self, site, cycle, addr)
        if site == SITE_OP:
            self.boundaries.append(self.visits)

    def skip_ops(self, n: int) -> None:
        start = self.visits
        CrashSchedule.skip_ops(self, n)
        self.boundaries.extend(range(start + 1, self.visits + 1))


def count_points(build: Build, trace,
                 sites: Optional[Sequence[str]] = None) -> PointProfile:
    """The counting pass: run ``trace`` once on ``build``'s system under
    an unbounded schedule."""
    schedule = _BoundarySchedule(sites)
    result = build(schedule).run(trace)
    if result.crashed:
        raise RuntimeError(
            "counting run crashed — an unbounded CrashSchedule must never fire"
        )
    return PointProfile(schedule.visits, dict(schedule.site_counts),
                        tuple(schedule.boundaries))


# ----------------------------------------------------------------------
# The master pass
# ----------------------------------------------------------------------

@dataclass
class CrashRun:
    """A machine crashed at micro-step visit ``point``."""

    point: int
    system: Any
    result: Any
    #: Whether the run was forked from the master pass (else replayed on
    #: a fresh system).
    forked: bool


@dataclass
class KernelStats:
    """Which path each point took, and why forking stopped if it did."""

    forked: int = 0
    replayed: int = 0
    #: Why the snapshot refused this trace's machine (replay took over).
    fallback: Optional[str] = None


class _Master:
    """The master pass: one uncrashed run, advanced op boundary by op
    boundary, that every forked point is copied from."""

    def __init__(self, build: Build, trace,
                 sites: Optional[Sequence[str]]) -> None:
        from repro.sim.coltrace import program_of

        self.trace = program_of(trace)
        self.schedule = CrashSchedule(stop_at=None, sites=sites)
        self.system = build(self.schedule)
        self.session = self.system.engine.stream(self.trace)
        self.snapshot = Snapshotter(_trace_objects(self.trace))

    def fork(self, ops: int) -> Tuple[Any, Any]:
        """Advance to the boundary after ``ops`` executed ops and return a
        copy of ``(system, session)``."""
        self.session.pump(ops)
        return self.snapshot((self.system, self.session))


def _crash_fork(fork: Tuple[Any, Any], point: int) -> CrashRun:
    """Resume a forked machine with ``stop_at=point`` until it crashes."""
    system, session = fork
    system.hierarchy.crash_schedule.stop_at = point
    session.pump()
    return _fired(CrashRun(point, system, session.settle(), forked=True))


def _replay(build: Build, trace, point: int,
            sites: Optional[Sequence[str]] = None) -> CrashRun:
    """Run ``trace`` from op 0 on a fresh system crashing at ``point``."""
    system = build(CrashSchedule(stop_at=point, sites=sites))
    return _fired(CrashRun(point, system, system.run(trace), forked=False))


def _fired(run: CrashRun) -> CrashRun:
    point = run.result.crash_point
    if not run.result.crashed or point is None or point.index != run.point:
        raise RuntimeError(
            f"crash point {run.point} did not fire — the counting run "
            f"reached it, so the simulator is not deterministic"
        )
    return run


def crash_runs(
    build: Build,
    trace,
    points: Iterable[int],
    profile: PointProfile,
    sites: Optional[Sequence[str]] = None,
    stats: Optional[KernelStats] = None,
) -> Iterator[CrashRun]:
    """Yield one :class:`CrashRun` per point, in ascending point order.

    Points in the first :data:`REBUILD_BELOW_OPS` ops are replayed on a
    fresh system; the rest are forked from one master pass.  A snapshot
    refusal switches the remaining points to replay and records the
    reason in ``stats.fallback``.  The kernel keeps no reference to a
    yielded run, so at most the master and one copy are alive.
    """
    stats = stats if stats is not None else KernelStats()
    master: Optional[_Master] = None
    for point in sorted(points):
        ops = profile.op_of(point)
        fork = None
        if ops >= REBUILD_BELOW_OPS and stats.fallback is None:
            if master is None:
                master = _Master(build, trace, sites)
            try:
                fork = master.fork(ops)
            except SnapshotRefused as exc:
                stats.fallback = str(exc)
                master = None
        if fork is not None:
            stats.forked += 1
            run = _crash_fork(fork, point)
            del fork
        else:
            stats.replayed += 1
            run = _replay(build, trace, point, sites)
        yield run
        del run


def final_crash(build: Build, trace) -> Tuple[Any, Optional[Any]]:
    """Crash ``trace`` at its last micro-step visit in one pass and one
    fork: the master forks before the last op, runs on to count every
    visit, and the fork then crashes at the last one.  Returns
    ``(system, result)``; ``result`` is ``None`` when the run has no
    crash point at all (no ops), in which case ``system`` is the cleanly
    finished master."""
    master = _Master(build, trace, sites=None)
    last_op = master.trace.total_ops() - 1
    fork = None
    if last_op >= REBUILD_BELOW_OPS:
        try:
            fork = master.fork(last_op)
        except SnapshotRefused:
            pass
    master.session.pump()
    master.session.settle()
    total = master.schedule.visits
    if total == 0:
        return master.system, None
    run = (_crash_fork(fork, total) if fork is not None
           else _replay(build, trace, total))
    return run.system, run.result
