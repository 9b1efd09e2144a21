"""The closed-form analytical mode (repro.analysis.analytical): tolerance
gate on the bench smoke grid, capability-driven calibration flags, and the
``mode="analytical"`` surface of ``build_system``/``System.run``."""

import pytest

from repro.analysis.analytical import (EXACT_FIELDS, TOLERANCE,
                                       analytical_estimate,
                                       validate_against_sim)
from repro.analysis.bench import run_smoke
from repro.analysis.experiments import default_sim_config
from repro.api import RunOptions, build_system
from repro.check.schedule import SITE_OP, CrashSchedule
from repro.core.registry import iter_schemes
from repro.fault.campaign import canonical_plans
from repro.fault.injector import FaultInjector
from repro.workloads.base import (WorkloadSpec, build_cached,
                                  seed_media_words)

SPEC = WorkloadSpec(threads=2, ops=30, elements=512, seed=5)


def test_smoke_grid_within_tolerance():
    """The CI gate: columnar == object fingerprints and analytical
    estimates inside the declared band on every smoke-grid cell."""
    report = run_smoke()
    assert report["ok"], report
    for cell in report["cells"]:
        assert cell["identical"], cell
        assert cell["analytical_ok"], cell


def test_tolerance_band_is_declared():
    assert set(TOLERANCE) == {"execution_cycles", "nvmm_writes"}
    assert all(0 < v < 1 for v in TOLERANCE.values())
    assert set(EXACT_FIELDS) == {
        "total_loads", "total_stores", "total_persisting_stores",
    }


def test_calibration_follows_capability_flags():
    """``calibrated`` comes from registry capability flags, never from
    scheme names: flush-ordered schemes are estimated uncalibrated."""
    cfg = default_sim_config()
    trace, _ = build_cached("hashmap", cfg.mem, SPEC)
    for info in iter_schemes():
        if not info.builtin:
            continue
        est = analytical_estimate(trace, info.name, cfg, entries=8)
        expected = ((info.stall_free_persists or info.has_persist_buffer)
                    and not info.pop_at_flush)
        assert est.calibrated == expected, info.name


def test_validate_reports_relative_errors():
    cfg = default_sim_config()
    trace, initial_words = build_cached("hashmap", cfg.mem, SPEC)
    scheme = next(i for i in iter_schemes() if i.has_persist_buffer)
    system = build_system(scheme.name, config=cfg, entries=8)
    seed_media_words(system.nvmm_media, initial_words)
    sim = system.run(trace, finalize=False)
    est = analytical_estimate(trace, scheme.name, cfg, entries=8)
    report = validate_against_sim(est, sim.stats)
    assert report["exact_ok"]
    assert set(report["errors"]) == set(TOLERANCE)
    assert report["ok"]


def test_analytical_mode_rejects_crash_runs():
    """An estimate has no architectural crash point: a crash schedule is
    refused when the system is built, not silently ignored by the run."""
    scheme = next(i for i in iter_schemes() if i.builtin)
    schedule = CrashSchedule(stop_at=10, sites=(SITE_OP,))
    with pytest.raises(ValueError, match="crash"):
        build_system(scheme.name, options=RunOptions(
            mode="analytical", crash_schedule=schedule))


def test_analytical_mode_rejects_fault_injection():
    scheme = next(i for i in iter_schemes() if i.builtin)
    injector = FaultInjector(canonical_plans()[0])
    with pytest.raises(ValueError, match="fault"):
        build_system(scheme.name, options=RunOptions(
            mode="analytical", fault_injector=injector))


def test_unknown_mode_rejected():
    scheme = next(i for i in iter_schemes() if i.builtin)
    with pytest.raises(ValueError, match="mode"):
        build_system(scheme.name, options=RunOptions(mode="clairvoyant"))
