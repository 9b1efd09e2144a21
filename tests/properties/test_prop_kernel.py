"""Kernel equivalence: a crash image read off the master pass is the
machine a real crash leaves.

For random race-free programs, under every registered scheme, both
checker mutants and the out-of-tree scheme of
``examples/custom_scheme.py``, on every site, the image the kernel reads
at a visit has the media bytes, written blocks, fired point, executed
ops and persist-log lengths of a fresh system crashed there through
``CrashNow`` and ``crash_drain``.  Every verdict the kernel reports on
the workloads equals the verdict of a fresh replay, and a scheme that
overrides ``crash_drain`` takes the declared replay fallback."""

import runpy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES, RunOptions, build_system
from repro.check.checker import CheckUnit, _UnitContext, _verdict, explore
from repro.check.kernel import CrashRun, count_points, crash_runs
from repro.check.mutants import MUTANTS, build_mutant_system
from repro.check.schedule import (
    ALL_SITES,
    SITE_DRAIN,
    SITE_OP,
    SITE_POV,
    SITE_WPQ,
    CrashSchedule,
)
from repro.core.persistency import BBBScheme
from repro.core.registry import (
    CONTRACT_EXACT,
    register_scheme,
    scheme_names,
    unregister_scheme,
)
from repro.sim.config import BBBConfig, SystemConfig
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.base import WorkloadSpec

CFG = SystemConfig(num_cores=2).scaled_for_testing()
EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_scheme.py"
CUSTOM = "bbb-nocoalesce"

#: (scheme, mutant) pairs: every builtin, both mutants, the plugin.
TARGETS = (
    [(scheme, None) for scheme in SCHEMES]
    + [(base, name) for name, (base, _) in sorted(MUTANTS.items())]
    + [(CUSTOM, None)]
)

SITE_SETS = (None, (SITE_OP,), (SITE_POV, SITE_DRAIN, SITE_WPQ)) + tuple(
    (site,) for site in ALL_SITES[1:])


@pytest.fixture(scope="module")
def plugin_schemes():
    """Register the example's scheme (and a BBB that overrides
    ``crash_drain``) for the module; leave the registry as it was found."""
    added = []
    if CUSTOM not in scheme_names():
        runpy.run_path(str(EXAMPLE), run_name="custom_scheme_example")
        added.append(CUSTOM)
    register_scheme(
        OWN_DRAIN, cls=OwnDrainBBB, contract=CONTRACT_EXACT, replace=True,
        battery_domain=True, doc="bbb with its own crash_drain",
    )(lambda cls, entries: cls(BBBConfig(entries=entries, memory_side=True)))
    added.append(OWN_DRAIN)
    try:
        yield
    finally:
        for name in added:
            unregister_scheme(name)


# ----------------------------------------------------------------------
# Images against real crashes, on random race-free programs
# ----------------------------------------------------------------------

op_strategy = st.tuples(
    st.sampled_from(["load", "store", "store", "store", "compute", "flush",
                     "fence", "epoch"]),
    st.booleans(),                                  # persistent vs DRAM
    st.integers(min_value=0, max_value=23),         # private block index
    st.sampled_from([0, 8, 56]),                    # offset
    st.integers(min_value=1, max_value=1 << 40),    # value / cycles
)


def _op(tid, stride, kind, persistent, block, offset, value):
    """An op on thread ``tid``'s own blocks: threads share no block, so
    the program is race-free.  A ``stride`` of LLC sets packs the blocks
    into few sets, so the LLC evicts (and writes back) as the run goes."""
    base = CFG.mem.persistent_base if persistent else 4096
    number = (block * CFG.num_cores + tid) * stride
    addr = base + number * CFG.block_size + offset
    if kind == "load":
        return TraceOp.load(addr)
    if kind == "store":
        return TraceOp.store(addr, value)
    if kind == "compute":
        return TraceOp.compute(1 + value % 50)
    if kind == "flush":
        return TraceOp.flush(addr)
    if kind == "fence":
        return TraceOp.fence()
    return TraceOp.epoch()


@st.composite
def programs(draw):
    stride = draw(st.sampled_from([1, CFG.llc.num_sets // 2]))
    threads = draw(st.lists(st.lists(op_strategy, min_size=1, max_size=24),
                            min_size=1, max_size=CFG.num_cores))
    return ProgramTrace([ThreadTrace([_op(tid, stride, *op) for op in ops])
                         for tid, ops in enumerate(threads)])


def _builder(scheme, mutant):
    def build(schedule):
        if mutant is not None:
            return build_mutant_system(mutant, entries=2, config=CFG,
                                       crash_schedule=schedule)
        return build_system(scheme, entries=2, config=CFG,
                            options=RunOptions(crash_schedule=schedule))
    return build


def _durable(media, result):
    """Everything a crash image is made of."""
    point = result.crash_point
    return (
        {addr: (data.val, data.mask) for addr, data in media.image().items()},
        (point.index, point.site, point.cycle, point.addr),
        result.crash_op,
        len(result.committed_persists),
        len(result.performed_persists),
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(TARGETS), trace=programs(),
       sites=st.sampled_from(SITE_SETS), data=st.data())
def test_images_equal_real_crashes(plugin_schemes, target, trace, sites,
                                   data):
    build = _builder(*target)
    total = count_points(build, trace, sites).total
    if total == 0:
        return
    points = sorted(set(data.draw(
        st.lists(st.integers(min_value=1, max_value=total),
                 min_size=1, max_size=6), label="points")))
    runs = list(crash_runs(build, trace, points, sites))
    assert [run.point for run in runs] == points
    assert all(run.virtual for run in runs)
    for run in runs:
        system = build(CrashSchedule(stop_at=run.point, sites=sites))
        result = system.run(trace)
        assert result.crashed
        assert _durable(run.system.nvmm_media, run.result) == \
            _durable(system.nvmm_media, result)


# ----------------------------------------------------------------------
# Verdicts against fresh replays, on the workloads
# ----------------------------------------------------------------------

def _fresh_verdicts(unit, verdicts):
    """The reference: each point replayed from op 0 on a fresh system."""
    ctx = _UnitContext(unit)
    out = []
    for v in verdicts:
        system = ctx.build_system(CrashSchedule(stop_at=v.point,
                                                sites=unit.sites))
        run = CrashRun(v.point, system, system.run(ctx.trace), virtual=False)
        out.append(_verdict(unit, ctx, run, None, None))
    return out


def _key(v):
    return (v.point, v.site, v.crash_op, v.cycle, v.consistent,
            v.violations, v.fingerprint)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    target=st.sampled_from(TARGETS),
    workload=st.sampled_from(["hashmap", "mutateNC", "swapC"]),
    seed=st.integers(min_value=0, max_value=10 ** 6),
    sites=st.sampled_from(SITE_SETS),
)
def test_kernel_verdicts_equal_fresh_replays(
    plugin_schemes, target, workload, seed, sites
):
    scheme, mutant = target
    unit = CheckUnit(
        scheme=scheme, mutant=mutant, workload=workload,
        spec=WorkloadSpec(threads=2, ops=2, elements=64, seed=seed),
        entries=2, config=CFG, sites=sites, max_points=10,
        sample_seed=seed, prune=False,
    )
    verdicts, total, _ = explore(unit)
    assert len(verdicts) == min(total, 10)
    assert [_key(v) for v in verdicts] == \
        [_key(v) for v in _fresh_verdicts(unit, verdicts)]
    assert all(v.virtual and v.fallback is None for v in verdicts)


# ----------------------------------------------------------------------
# The replay fallback
# ----------------------------------------------------------------------

OWN_DRAIN = "temp-own-drain-bbb"


class OwnDrainBBB(BBBScheme):
    """BBB whose crash drain is its own code: a crash image, built from
    ``crash_writes`` alone, could miss what it does."""

    def crash_drain(self, now):
        return super().crash_drain(now)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_crash_drain_override_takes_the_replay_fallback(plugin_schemes, seed):
    unit = CheckUnit(
        scheme=OWN_DRAIN, workload="hashmap",
        spec=WorkloadSpec(threads=2, ops=2, elements=64, seed=seed),
        entries=2, config=CFG, max_points=8, sample_seed=seed, prune=False,
    )
    verdicts, _, _ = explore(unit)
    assert not any(v.virtual for v in verdicts)
    assert all(v.fallback == "OwnDrainBBB overrides crash_drain"
               for v in verdicts)
    assert [_key(v) for v in verdicts] == \
        [_key(v) for v in _fresh_verdicts(unit, verdicts)]
