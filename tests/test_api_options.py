"""RunOptions surface: the typed run-wiring value, and the rejection of
run-wiring fields passed to build_system as bare keyword arguments."""

import warnings

import pytest

from repro.api import DEFAULT_RUN_OPTIONS, RunOptions, build_system
from repro.obs.bus import NULL_BUS


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


def test_bare_run_kwarg_is_rejected():
    with pytest.raises(TypeError, match="unexpected keyword arguments for "
                                        "scheme 'bbb': bus"):
        build_system("bbb", bus=NULL_BUS)


def test_options_spelling_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        build_system("bbb", entries=8, options=RunOptions(mode="object"))
