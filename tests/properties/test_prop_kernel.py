"""Kernel equivalence: for random small workloads, every verdict the
crash-exploration kernel reports — forked or rebuilt, on any site subset
— equals the verdict of a fresh system replayed from op 0 to the same
point, under every registered scheme, both checker mutants and the
out-of-tree scheme of ``examples/custom_scheme.py``.  A scheme whose
machine holds a closure over live state takes the declared replay
fallback instead of being forked."""

import runpy
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES
from repro.check import kernel
from repro.check.checker import CheckUnit, _UnitContext, _verdict, explore
from repro.check.kernel import CrashRun
from repro.check.mutants import MUTANTS
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

SITE_SETS = (None, (SITE_OP,), (SITE_POV, SITE_DRAIN, SITE_WPQ), ALL_SITES)


@pytest.fixture(scope="module")
def plugin_schemes():
    """Register the example's scheme (and a closure-holding BBB) for the
    module; leave the registry as it was found."""
    added = []
    if CUSTOM not in scheme_names():
        runpy.run_path(str(EXAMPLE), run_name="custom_scheme_example")
        added.append(CUSTOM)
    register_scheme(
        CLOSURE, cls=ClosureHookBBB, contract=CONTRACT_EXACT, replace=True,
        battery_domain=True, doc="bbb holding a closure over its hierarchy",
    )(lambda cls, entries: cls(BBBConfig(entries=entries, memory_side=True)))
    added.append(CLOSURE)
    try:
        yield
    finally:
        for name in added:
            unregister_scheme(name)


def _fresh_verdicts(unit, verdicts):
    """The reference: each point replayed from op 0 on a fresh system."""
    ctx = _UnitContext(unit)
    out = []
    for v in verdicts:
        system = ctx.build_system(CrashSchedule(stop_at=v.point,
                                                sites=unit.sites))
        run = CrashRun(v.point, system, system.run(ctx.trace), forked=False)
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
    cutoff=st.integers(min_value=0, max_value=48),
)
def test_kernel_verdicts_equal_fresh_replays(
    plugin_schemes, target, workload, seed, sites, cutoff
):
    scheme, mutant = target
    unit = CheckUnit(
        scheme=scheme, mutant=mutant, workload=workload,
        spec=WorkloadSpec(threads=2, ops=2, elements=64, seed=seed),
        entries=2, config=CFG, sites=sites, max_points=10,
        sample_seed=seed, prune=False,
    )
    with mock.patch.object(kernel, "REBUILD_BELOW_OPS", cutoff):
        verdicts, total, _ = explore(unit)
    assert len(verdicts) == min(total, 10)
    assert [_key(v) for v in verdicts] == \
        [_key(v) for v in _fresh_verdicts(unit, verdicts)]
    assert all(v.fallback is None for v in verdicts)


CLOSURE = "temp-closure-hook-bbb"


class ClosureHookBBB(BBBScheme):
    """BBB that keeps a closure over its live hierarchy."""

    def attach(self, hierarchy):
        super().attach(hierarchy)
        self.occupancy = _occupancy_probe(hierarchy)


def _occupancy_probe(hierarchy):
    def probe():
        return len(hierarchy.directory)
    return probe


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_closure_scheme_takes_the_replay_fallback(plugin_schemes, seed):
    unit = CheckUnit(
        scheme=CLOSURE, workload="hashmap",
        spec=WorkloadSpec(threads=2, ops=2, elements=64, seed=seed),
        entries=2, config=CFG, max_points=8, sample_seed=seed, prune=False,
    )
    with mock.patch.object(kernel, "REBUILD_BELOW_OPS", 0):
        verdicts, _, _ = explore(unit)
    assert not any(v.forked for v in verdicts)
    assert all("closure" in v.fallback for v in verdicts)
    assert [_key(v) for v in verdicts] == \
        [_key(v) for v in _fresh_verdicts(unit, verdicts)]
