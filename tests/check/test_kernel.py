"""The crash-exploration kernel: every crash image read off the master
pass is the machine a replay from op 0 reaches, and a run whose images
would not match a real crash is replayed instead, saying why."""

import copy
from dataclasses import replace

import pytest

from repro.api import RunOptions, build_system
from repro.check.checker import (
    CheckUnit,
    build_report,
    explore,
    publish_report,
)
from repro.check.kernel import (
    KernelStats,
    count_points,
    crash_runs,
    final_crash,
)
from repro.check.schedule import SITE_WPQ, CrashSchedule
from repro.core.recovery import check_exact_durability
from repro.core.persistency import BBBScheme
from repro.core.registry import (
    CONTRACT_EXACT,
    register_scheme,
    unregister_scheme,
)
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.sim.config import BBBConfig, SystemConfig
from repro.sim.trace import TraceOp
from repro.workloads.base import WorkloadSpec, make_workload
from tests.conftest import conflict_addresses, paddr, single_thread_trace

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


def _replayed(build, trace, point, sites=None):
    system = build(CrashSchedule(stop_at=point, sites=sites))
    return system, system.run(trace)


def _state(system, result):
    return (result.crash_op, result.crash_point, system.nvmm_media.image(),
            result.committed_persists, result.performed_persists)


class TestCrashRuns:
    @pytest.mark.parametrize("scheme", ["bbb", "eadr", "pmem", "bsp", "bep"])
    def test_forked_points_equal_replayed_points(self, scheme):
        """Every virtual point equals a replay (the name predates virtual
        crashes: these points used to be forked)."""
        def build(schedule):
            return _build(scheme, schedule)

        trace = _hashmap_trace()
        profile = count_points(build, trace)
        points = range(1, profile.total + 1, 7)
        stats = KernelStats()
        runs = [(run.point, _state(run.system, run.result))
                for run in crash_runs(build, trace, points, stats=stats)]
        assert stats.virtual == len(runs) and stats.replayed == 0
        assert stats.fallback is None
        assert runs == [(k, _state(*_replayed(build, trace, k)))
                        for k in points]

    def test_epilogue_points_fork_before_the_epilogue(self):
        """A point in the run's epilogue (finalize's drains) is read off
        the settling master."""
        def build(schedule):
            return _build("bbb", schedule)

        trace = _hashmap_trace()
        profile = count_points(build, trace)
        epilogue = profile.site_counts.get("bbpb.drain", 0)
        assert epilogue and profile.total > trace.total_ops()
        run = next(crash_runs(build, trace, [profile.total]))
        assert run.virtual
        assert run.result.crash_op == trace.total_ops()
        assert _state(run.system, run.result) == _state(
            *_replayed(build, trace, profile.total))

    def test_every_point_in_one_pass(self):
        """Without ``points`` the master images every visit and needs no
        counting pass; the last point is the total."""
        def build(schedule):
            return _build("bbb", schedule)

        trace = _hashmap_trace()
        total = count_points(build, trace).total
        every = [(run.point, _state(run.system, run.result))
                 for run in crash_runs(build, trace)]
        assert [point for point, _ in every] == list(range(1, total + 1))
        assert every == [
            (run.point, _state(run.system, run.result))
            for run in crash_runs(build, trace, range(1, total + 1))]

    def test_a_point_past_the_end_is_an_error(self):
        def build(schedule):
            return _build("bbb", schedule)

        trace = _hashmap_trace()
        total = count_points(build, trace).total
        with pytest.raises(RuntimeError, match=f"{total + 1} did not fire"):
            list(crash_runs(build, trace, [total, total + 1]))

    def test_an_eviction_writeback_on_the_wire_is_durable_under_eadr(self):
        """eADR's battery covers the cache-to-controller path: a crash
        with an LLC victim's writeback still on the wire keeps it, read
        off the master or replayed."""
        def build(schedule):
            return _build("eadr", schedule)

        head = paddr(CFG, 0)
        trace = single_thread_trace(
            TraceOp.store(head, 0x2222),
            *[TraceOp.load(addr)
              for addr in conflict_addresses(CFG, head, CFG.llc.assoc)],
        )
        sites = (SITE_WPQ,)
        runs = list(crash_runs(build, trace, sites=sites))
        assert runs
        for run in runs:
            replayed = _replayed(build, trace, run.point, sites)
            for system, result in ((run.system, run.result), replayed):
                assert check_exact_durability(
                    system.nvmm_media, result.committed_persists).consistent

    def test_final_crash_is_the_last_point(self):
        def build(schedule):
            return _build("eadr", schedule)

        trace = _hashmap_trace()
        total = count_points(build, trace).total
        system, result = final_crash(build, trace)
        assert result.crash_point.index == total
        assert system.nvmm_media.image() == _replayed(
            build, trace, total)[0].nvmm_media.image()


class OwnDrainBBB(BBBScheme):
    """BBB whose crash drain is its own code — the kernel cannot read its
    crash images off a live run."""

    def crash_drain(self, now):
        return super().crash_drain(now)


@pytest.fixture
def own_drain_scheme():
    name = "temp-own-drain-bbb"
    register_scheme(
        name, cls=OwnDrainBBB, contract=CONTRACT_EXACT, replace=True,
        battery_domain=True, doc="bbb with its own crash_drain",
    )(lambda cls, entries: cls(BBBConfig(entries=entries, memory_side=True)))
    try:
        yield name
    finally:
        unregister_scheme(name)


def _verdicts(verdicts):
    return [(v.point, v.site, v.crash_op, v.cycle, v.consistent, v.violations)
            for v in verdicts]


class TestFallback:
    def test_crash_drain_override_falls_back_to_replay(self,
                                                       own_drain_scheme):
        unit = CheckUnit(scheme=own_drain_scheme, spec=SPEC, config=CFG,
                         entries=4)
        verdicts, total, sites = explore(unit)
        stock, _, _ = explore(replace(unit, scheme="bbb"))
        assert _verdicts(verdicts) == _verdicts(stock)
        assert not any(v.virtual for v in verdicts)
        assert all(v.virtual for v in stock)
        report = build_report(unit, verdicts, total, sites)
        assert report["points_virtual"] == 0
        assert report["points_replayed"] == len(verdicts)
        assert report["fallback"] == "OwnDrainBBB overrides crash_drain"
        reg = publish_report(report)
        assert reg.get("check.points_replayed").value == len(verdicts)
        assert reg.get("check.points_virtual").value == 0
        [(reason, counter)] = list(reg.get("check.fallback").items())
        assert reason == report["fallback"] and counter.value == 1

    def test_fault_injector_falls_back_to_replay(self):
        def build(schedule):
            return build_system(
                "bbb", entries=4, config=CFG,
                options=RunOptions(crash_schedule=schedule,
                                   fault_injector=FaultInjector(FaultPlan())),
            )

        trace = _hashmap_trace()
        total = count_points(build, trace).total
        stats = KernelStats()
        runs = list(crash_runs(build, trace, [1, total], stats=stats))
        assert [run.point for run in runs] == [1, total]
        assert not any(run.virtual for run in runs)
        assert (stats.virtual, stats.replayed) == (0, 2)
        assert stats.fallback == "fault injector enabled"

    def test_no_fallback_metric_when_every_point_forks(self):
        unit = CheckUnit(scheme="bbb", spec=SPEC, config=CFG, entries=4)
        verdicts, total, sites = explore(unit)
        report = build_report(unit, verdicts, total, sites)
        assert report["fallback"] is None
        assert report["points_virtual"] == len(verdicts)
        assert "check.fallback" not in publish_report(report)
