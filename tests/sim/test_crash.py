"""Op-boundary crash sweeps: ``repro crash`` and the ``SITE_OP`` projection
of the crash-exploration kernel (repro.check.kernel).

A sweep crashes a program after op 1, 2, ..., N (or a seeded sample of
those points) and audits each recovered image.  The kernel tests build
their own tiny traces; the sampling tests drive ``repro crash`` and spy on
the points it hands to :func:`repro.check.kernel.crash_runs`.
"""

import random

import pytest

from repro.api import RunOptions, build_system
from repro.check import kernel
from repro.check.schedule import SITE_OP
from repro.cli import main
from repro.core.recovery import check_exact_durability, check_prefix_consistency
from repro.sim.trace import TraceOp
from tests.conftest import conflict_addresses, paddr, single_thread_trace

SITES = (SITE_OP,)

#: A tiny ``repro crash`` run: 132 op-boundary crash points.
TINY = ["crash", "--workload", "hashmap", "--scheme", "bbb",
        "--threads", "1", "--ops", "2", "--elements", "16"]
TINY_OPS = 132


def strict_checker(system, result):
    check = check_exact_durability(system.nvmm_media, result.committed_persists)
    return check.consistent, check.violations


def prefix_checker(system, result):
    check = check_prefix_consistency(system.nvmm_media, result.committed_persists)
    return check.consistent, check.violations


def build_for(scheme, config):
    def build(schedule):
        return build_system(scheme, config=config,
                            options=RunOptions(crash_schedule=schedule))

    return build


def sweep(scheme, config, trace, checker, points=None):
    """``{op: (consistent, violations, run)}`` for an op-boundary sweep
    over ``points`` (default: every op boundary)."""
    build = build_for(scheme, config)
    profile = kernel.count_points(build, trace, SITES)
    if points is None:
        points = range(1, profile.total + 1)
    outcomes = {}
    for run in kernel.crash_runs(build, trace, points, profile, SITES):
        consistent, violations = checker(run.system, run.result)
        outcomes[run.point] = (consistent, violations, run)
    return outcomes


def set_conflict_trace(config):
    """Directed set-conflict scenario: a 'head' block is evicted (and thus
    persisted in replacement order) while the older 'node' store is still
    cached (Section II-A's corruption)."""
    node = paddr(config, 1)
    head = paddr(config, 0)
    ops = [TraceOp.store(node, 0x1111), TraceOp.store(head, 0x2222)]
    # Loads that evict the head block from the LLC (writeback persists
    # head) while node stays cached.
    for addr in conflict_addresses(config, head, config.llc.assoc):
        ops.append(TraceOp.load(addr))
    return single_thread_trace(*ops)


@pytest.fixture
def trace(small_config):
    ops = [TraceOp.store(paddr(small_config, i), i + 1) for i in range(6)]
    return single_thread_trace(*ops)


@pytest.fixture
def swept_points(monkeypatch):
    """Run ``repro crash`` with extra arguments; return the crash points
    it swept."""
    calls = []
    crash_runs = kernel.crash_runs

    def spy(build, trace, points, profile, sites=None, stats=None):
        calls.append(list(points))
        return crash_runs(build, trace, calls[-1], profile, sites, stats)

    monkeypatch.setattr(kernel, "crash_runs", spy)

    def run(*args):
        assert main(TINY + list(args)) == 0
        return calls.pop()

    return run


class TestCrashPoints:
    def test_all_points_by_default(self, small_config, trace):
        build = build_for("bbb", small_config)
        profile = kernel.count_points(build, trace, SITES)
        assert profile.total == trace.total_ops() == 6
        assert profile.boundaries == tuple(range(1, 7))

    def test_sampling_is_deterministic(self, swept_points):
        a = swept_points("--sample", "3", "--seed", "7")
        b = swept_points("--sample", "3", "--seed", "7")
        assert a == b and len(a) == 3

    def test_sample_larger_than_space_returns_all(self, swept_points):
        assert swept_points("--sample", "100000") == list(
            range(1, TINY_OPS + 1))

    def test_explicit_rng_matches_equally_seeded_generator(
        self, swept_points
    ):
        drawn = sorted(random.Random(7).sample(range(1, TINY_OPS + 1), 3))
        assert swept_points("--sample", "3", "--seed", "7") == drawn

    def test_module_global_random_state_is_untouched(self, swept_points):
        state = random.getstate()
        swept_points("--sample", "3", "--seed", "7")
        assert random.getstate() == state


class TestSweep:
    def test_bbb_sweep_is_fully_consistent(self, small_config, trace):
        outcomes = sweep("bbb", small_config, trace, strict_checker)
        assert sorted(outcomes) == list(range(1, 7))
        assert all(consistent for consistent, _, _ in outcomes.values())

    def test_outcomes_carry_crash_op(self, small_config, trace):
        """Every op-boundary crash records both its op count and the
        schedule visit that fired."""
        outcomes = sweep("bbb", small_config, trace, strict_checker)
        for op, (_, _, run) in outcomes.items():
            assert run.result.crashed
            assert run.result.crash_op == op
            assert run.result.crash_point.index == op
            assert run.result.crash_point.site == SITE_OP

    def test_sampled_sweep_is_subset_of_exhaustive(self, small_config):
        """Exhaustive vs sampled equivalence: every sampled outcome must
        match the exhaustive sweep's outcome at the same crash op."""
        trace = set_conflict_trace(small_config)
        full = sweep("none", small_config, trace, prefix_checker)
        assert {c for c, _, _ in full.values()} == {True, False}
        sample = sorted(random.Random(5).sample(sorted(full), 3))
        sampled = sweep("none", small_config, trace, prefix_checker, sample)
        assert sorted(sampled) == sample
        for op, (consistent, violations, _) in sampled.items():
            assert (consistent, violations) == full[op][:2]

    def test_summary_counts(self, capsys):
        assert main(TINY + ["--sample", "5"]) == 0
        assert capsys.readouterr().out == (
            "hashmap under bbb: 5 crash points, 5 consistent, "
            "0 inconsistent\n")

    def test_no_persistency_sweep_detects_violations(self, small_config):
        """The per-core prefix check must fail for some crash point of the
        directed set-conflict scenario."""
        trace = set_conflict_trace(small_config)
        outcomes = sweep("none", small_config, trace, prefix_checker)
        assert any(
            "persist order violated" in v
            for consistent, violations, _ in outcomes.values()
            if not consistent
            for v in violations
        )
