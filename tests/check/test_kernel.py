"""The crash-exploration kernel: a snapshot copies the whole machine (or
refuses to), and every forked crash point is the machine a replay from
op 0 reaches."""

import copy
import threading
from collections import deque
from dataclasses import asdict
from unittest import mock

import pytest

from repro.api import RunOptions, build_system
from repro.check import kernel
from repro.check.checker import (
    CheckUnit,
    build_report,
    explore,
    publish_report,
)
from repro.check.kernel import (
    KernelStats,
    SnapshotRefused,
    count_points,
    crash_runs,
    final_crash,
    snapshot,
)
from repro.check.schedule import CrashSchedule
from repro.core.persistency import BBBScheme
from repro.core.registry import (
    CONTRACT_EXACT,
    register_scheme,
    unregister_scheme,
)
from repro.fault.injector import NULL_INJECTOR
from repro.obs.bus import NULL_BUS
from repro.sim.config import BBBConfig, SystemConfig
from repro.sim.trace import ProgramTrace, ThreadTrace
from repro.workloads.base import WorkloadSpec, make_workload

CFG = SystemConfig(num_cores=2).scaled_for_testing()
SPEC = WorkloadSpec(threads=2, ops=2, elements=64, seed=3)


def _build(scheme, schedule):
    return build_system(scheme, entries=4, config=CFG,
                        options=RunOptions(crash_schedule=schedule))


def _hashmap_trace():
    return make_workload("hashmap", CFG.mem, SPEC).build()


def _mid_run_bbb():
    """A bbb machine whose run stopped short of finalize: entries still
    sit in its bbPBs and the crash schedule is live."""
    schedule = CrashSchedule()
    system = _build("bbb", schedule)
    system.run(_hashmap_trace(), finalize=False)
    assert any(len(buf) for buf in system.scheme.buffers)
    return system, schedule


class TestMachineCopies:
    def test_deepcopy_leaves_the_original_machine_alone(self):
        # Drain sinks used to be closures over the scheme and schedule:
        # a copied machine drained into the original's NVMM media.
        system, schedule = _mid_run_bbb()
        image = system.nvmm_media.image()
        drains = system.stats.bbpb_drains
        visits = schedule.visits
        clone = copy.deepcopy(system)
        clone.scheme.finalize(10 ** 9)
        assert clone.stats.bbpb_drains > drains
        assert system.stats.bbpb_drains == drains
        assert schedule.visits == visits
        assert system.nvmm_media.image() == image

    def test_snapshot_shares_immutables_and_copies_state(self):
        system, schedule = _mid_run_bbb()
        clone = snapshot(system)
        assert clone.config is system.config
        assert clone.bus is NULL_BUS and clone.fault_injector is NULL_INJECTOR
        assert clone.hierarchy is not system.hierarchy
        assert clone.crash_schedule is clone.hierarchy.crash_schedule
        assert clone.crash_schedule is not schedule
        drains = system.stats.bbpb_drains
        clone.scheme.finalize(10 ** 9)
        assert system.stats.bbpb_drains == drains
        assert clone.stats.bbpb_drains > drains

    def test_snapshot_refuses_a_closure_over_mutable_state(self):
        system, _ = _mid_run_bbb()
        system.scheme.hook = _closure_over(system.hierarchy)
        with pytest.raises(SnapshotRefused, match="closure"):
            snapshot(system)

    def test_closures_over_immutable_values_are_shared(self):
        system, _ = _mid_run_bbb()
        system.scheme.hook = _closure_over(64)
        assert snapshot(system).scheme.hook is system.scheme.hook

    def test_snapshot_refuses_unknown_builtin_objects(self):
        system, _ = _mid_run_bbb()
        system.scheme.lock = threading.Lock()
        with pytest.raises(SnapshotRefused, match="lock"):
            snapshot(system)


def _closure_over(value):
    def hook():
        return value
    return hook


def _replayed(build, trace, point, sites=None):
    system = build(CrashSchedule(stop_at=point, sites=sites))
    return system, system.run(trace)


def _state(system, result):
    return (result.crash_op, result.crash_point, system.nvmm_media.image(),
            result.committed_persists, result.performed_persists,
            asdict(result.stats))


class TestCrashRuns:
    @pytest.mark.parametrize("scheme", ["bbb", "eadr", "pmem", "bsp", "bep"])
    def test_forked_points_equal_replayed_points(self, scheme):
        def build(schedule):
            return _build(scheme, schedule)

        trace = _hashmap_trace()
        profile = count_points(build, trace)
        points = range(1, profile.total + 1, 7)
        stats = KernelStats()
        with mock.patch.object(kernel, "REBUILD_BELOW_OPS", 0):
            runs = [(run.point, _state(run.system, run.result))
                    for run in crash_runs(build, trace, points, profile,
                                          stats=stats)]
        assert stats.forked == len(runs) and stats.replayed == 0
        assert stats.fallback is None
        assert runs == [(k, _state(*_replayed(build, trace, k)))
                        for k in points]

    def test_points_before_the_cutoff_are_replayed(self):
        def build(schedule):
            return _build("bbb", schedule)

        trace = _hashmap_trace()
        profile = count_points(build, trace)
        early = [k for k in range(1, profile.total + 1)
                 if profile.op_of(k) < kernel.REBUILD_BELOW_OPS][-1]
        stats = KernelStats()
        runs = list(crash_runs(build, trace, [early, profile.total],
                               profile, stats=stats))
        assert [run.forked for run in runs] == [False, True]
        assert (stats.forked, stats.replayed) == (1, 1)

    def test_epilogue_points_fork_before_the_epilogue(self):
        def build(schedule):
            return _build("bbb", schedule)

        trace = _hashmap_trace()
        profile = count_points(build, trace)
        assert profile.total > profile.boundaries[-1]  # finalize drains
        run = next(crash_runs(build, trace, [profile.total], profile))
        assert run.forked
        assert _state(run.system, run.result) == _state(
            *_replayed(build, trace, profile.total))

    def test_final_crash_is_the_last_point(self):
        def build(schedule):
            return _build("eadr", schedule)

        trace = _hashmap_trace()
        total = count_points(build, trace).total
        system, result = final_crash(build, trace)
        assert result.crash_point.index == total
        assert system.nvmm_media.image() == _replayed(
            build, trace, total)[0].nvmm_media.image()


def _reachable(root, skip=(), stop=frozenset()):
    """``id -> object`` for every container and plain object reachable
    from ``root``, not entering ``skip`` or any object whose id is in
    ``stop``."""
    seen = {}
    todo = [root]
    while todo:
        x = todo.pop()
        if id(x) in seen or id(x) in stop or any(x is s for s in skip):
            continue
        if isinstance(x, (list, tuple, deque, set, frozenset)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif hasattr(x, "__dict__") and not isinstance(x, type):
            todo.extend(vars(x).values())
        else:
            continue
        seen[id(x)] = x
    return seen


def _copied_sizes(fork, master):
    """Sorted ``len`` of every container a forked session holds that the
    master's session does not share with it (the system is not walked)."""
    shared = _reachable(master, skip=(master.engine,))
    own = _reachable(fork, skip=(fork.engine,), stop=frozenset(shared))
    return sorted(len(x) for x in own.values()
                  if isinstance(x, (list, tuple, deque, set, dict)))


class TestForks:
    def test_a_fork_shares_the_op_lists_and_copies_nothing_sized_by_them(
            self):
        """Forks at the same op boundary of a trace and of its own head
        copy containers of equal sizes: nothing a fork copies grows with
        the ops still to run, because its per-core op lists are the
        master's."""
        def build(schedule):
            return _build("bbb", schedule)

        full = make_workload("hashmap", CFG.mem, WorkloadSpec(
            threads=2, ops=8, elements=64, seed=3)).build()
        n = min(len(thread.ops) for thread in full.threads) // 2
        head = ProgramTrace([ThreadTrace(thread.ops[:n])
                             for thread in full.threads])
        assert full.total_ops() >= 2 * head.total_ops()
        sizes = []
        for trace in (head, full):
            master = kernel._Master(build, trace, sites=None)
            _, session = master.fork(n // 2)
            assert session.executed == n // 2
            for core, thread in enumerate(trace.threads):
                assert session._queues[core] is thread.ops
                assert session._queues[core] is master.session._queues[core]
            sizes.append(_copied_sizes(session, master.session))
        assert sizes[0] == sizes[1]


class ClosureDrainBBB(BBBScheme):
    """BBB whose drain sinks are wrapped in closures over the live sinks —
    the pattern the kernel's snapshot must refuse."""

    def attach(self, hierarchy):
        super().attach(hierarchy)
        for buf in self.buffers:
            buf._drain = _closure_drain(buf._drain)


def _closure_drain(inner):
    def drain(block_addr, data, now):
        return inner(block_addr, data, now)
    return drain


@pytest.fixture
def closure_scheme():
    name = "temp-closure-bbb"
    register_scheme(
        name, cls=ClosureDrainBBB, contract=CONTRACT_EXACT, replace=True,
        battery_domain=True, doc="bbb with closure drain sinks",
    )(lambda cls, entries: cls(BBBConfig(entries=entries, memory_side=True)))
    try:
        yield name
    finally:
        unregister_scheme(name)


def _verdicts(verdicts):
    return [(v.point, v.site, v.crash_op, v.cycle, v.consistent, v.violations)
            for v in verdicts]


class TestFallback:
    def test_closure_scheme_falls_back_to_replay(self, closure_scheme):
        unit = CheckUnit(scheme=closure_scheme, spec=SPEC, config=CFG,
                         entries=4)
        with mock.patch.object(kernel, "REBUILD_BELOW_OPS", 0):
            verdicts, total, sites = explore(unit)
            stock, _, _ = explore(CheckUnit(scheme="bbb", spec=SPEC,
                                            config=CFG, entries=4))
        assert _verdicts(verdicts) == _verdicts(stock)
        assert not any(v.forked for v in verdicts)
        assert all(v.forked for v in stock)
        report = build_report(unit, verdicts, total, sites)
        assert report["points_forked"] == 0
        assert report["points_replayed"] == len(verdicts)
        assert "closure" in report["fallback"]
        reg = publish_report(report)
        assert reg.get("check.points_replayed").value == len(verdicts)
        assert reg.get("check.points_forked").value == 0
        [(reason, counter)] = list(reg.get("check.fallback").items())
        assert reason == report["fallback"] and counter.value == 1

    def test_no_fallback_metric_when_every_point_forks(self):
        unit = CheckUnit(scheme="bbb", spec=SPEC, config=CFG, entries=4)
        with mock.patch.object(kernel, "REBUILD_BELOW_OPS", 0):
            verdicts, total, sites = explore(unit)
        report = build_report(unit, verdicts, total, sites)
        assert report["fallback"] is None
        assert report["points_forked"] == len(verdicts)
        assert "check.fallback" not in publish_report(report)
