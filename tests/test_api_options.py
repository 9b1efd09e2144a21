"""RunOptions surface: the typed run-wiring value, the deprecation shim
for the old bare keyword arguments, and the options-vs-legacy conflict."""

import warnings

import pytest

from repro.api import DEFAULT_RUN_OPTIONS, RunOptions, build_system
from repro.obs.bus import EventBus
from repro.workloads.base import WorkloadSpec, make_workload


def _trace():
    system = build_system("bbb", entries=8)
    cfg = system.config
    wl = make_workload("mutateNC", cfg.mem,
                       WorkloadSpec(threads=2, ops=10, elements=256, seed=1))
    return wl.build()


def test_run_options_defaults_are_the_plain_run():
    opts = RunOptions()
    assert opts.mode == "auto"
    assert not opts.bus.enabled
    assert not opts.fault_injector.enabled
    assert opts == DEFAULT_RUN_OPTIONS


def test_run_options_is_frozen_and_replace_derives():
    opts = RunOptions(reorder_seed=3)
    with pytest.raises(AttributeError):
        opts.mode = "object"
    derived = opts.replace(mode="object")
    assert derived.reorder_seed == 3 and derived.mode == "object"
    assert opts.mode == "auto"  # original untouched


def test_run_options_rejects_unknown_mode():
    # "columnar" named the batched interpreter, which no longer exists.
    for mode in ("warp", "columnar"):
        with pytest.raises(ValueError, match="mode"):
            RunOptions(mode=mode)


def test_legacy_kwargs_warn_and_still_work():
    bus = EventBus()
    with pytest.warns(DeprecationWarning, match="options=RunOptions"):
        system = build_system("bbb", entries=8, bus=bus)
    assert system.bus is bus
    result = system.run(_trace())
    assert result.execution_cycles > 0


def test_legacy_kwargs_equal_options_spelling():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy = build_system("bbb", entries=8, reorder_seed=9,
                              mode="object")
    typed = build_system("bbb", entries=8,
                         options=RunOptions(reorder_seed=9, mode="object"))
    a = legacy.run(_trace())
    b = typed.run(_trace())
    assert a.stats.to_dict() == b.stats.to_dict()


def test_mixing_options_and_legacy_kwargs_is_an_error():
    with pytest.raises(TypeError, match="options="):
        build_system("bbb", options=RunOptions(), mode="object")


def test_options_spelling_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        build_system("bbb", entries=8, options=RunOptions(mode="object"))
