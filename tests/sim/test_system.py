"""Unit tests for system assembly and the construction API
(repro.sim.system + repro.api)."""

import dataclasses
import inspect
import pkgutil
import warnings

import pytest

from repro.api import SCHEMES, RunOptions, Scheme, build_system
from repro.core.bsp import BSP
from repro.core.persistency import BBBScheme, BEP, EADR, NoPersistency, StrictPMEM
from repro.obs.bus import NULL_BUS, EventBus
from repro.sim.engine import Engine
from repro.sim.system import System
from repro.sim.trace import TraceOp
from tests.conftest import paddr, single_thread_trace


class TestBuildSystem:
    def test_default_system_uses_bbb(self):
        assert isinstance(System().scheme, BBBScheme)

    def test_eadr(self, small_config):
        assert isinstance(build_system("eadr", config=small_config).scheme, EADR)

    def test_bbb_entries_and_threshold(self, small_config):
        system = build_system(
            "bbb", entries=8, config=small_config, drain_threshold=0.5
        )
        assert system.scheme.bbb_config.entries == 8
        assert system.scheme.bbb_config.drain_threshold == 0.5

    def test_processor_side(self, small_config):
        system = build_system("bbb-proc", entries=8, config=small_config)
        assert isinstance(system.scheme, BBBScheme)
        assert not system.scheme.bbb_config.memory_side

    def test_processor_side_coalesce_kwarg(self, small_config):
        system = build_system("bbb-proc", entries=8, config=small_config,
                              coalesce_consecutive=False)
        assert not system.scheme.bbb_config.memory_side
        assert not system.scheme.bbb_config.proc_coalesce_consecutive

    def test_pmem(self, small_config):
        scheme = build_system("pmem", config=small_config).scheme
        assert isinstance(scheme, StrictPMEM)

    def test_bep(self, small_config):
        system = build_system("bep", entries=16, config=small_config)
        assert isinstance(system.scheme, BEP)
        assert system.scheme.entries == 16

    def test_bsp(self, small_config):
        system = build_system("bsp", entries=16, config=small_config)
        assert isinstance(system.scheme, BSP)

    def test_no_persistency(self, small_config):
        scheme = build_system("none", config=small_config).scheme
        assert isinstance(scheme, NoPersistency)

    def test_scheme_enum_accepted(self, small_config):
        system = build_system(Scheme.BBB, config=small_config)
        assert isinstance(system.scheme, BBBScheme)

    def test_schemes_tuple_matches_enum(self):
        assert set(SCHEMES) == {s.value for s in Scheme}
        assert set(SCHEMES) == {
            "bbb", "bbb-proc", "eadr", "pmem", "bsp", "bep", "none",
        }

    def test_unknown_scheme_rejected(self, small_config):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_system("bogus", config=small_config)

    def test_unknown_kwarg_rejected(self, small_config):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_system("eadr", config=small_config, bogus=1)

    def test_bus_reaches_the_system(self, small_config):
        bus = EventBus()
        system = build_system("bbb", config=small_config,
                              options=RunOptions(bus=bus))
        assert system.bus is bus
        assert system.hierarchy.bus is bus

    def test_default_bus_is_null(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.bus is NULL_BUS
        assert not system.bus.enabled


class TestRemovedShims:
    """The deprecated per-scheme factories are gone, not just unused."""

    #: scheme name -> the factory function that used to build it.
    FACTORIES = {
        "bbb": "bbb", "bbb-proc": "bbb_processor_side", "eadr": "eadr",
        "pmem": "pmem_strict", "bsp": "bsp", "bep": "bep",
        "none": "no_persistency",
    }

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_factory_name_gone(self, name):
        import repro
        import repro.sim.system as system_module

        factory = self.FACTORIES[name]
        assert not hasattr(system_module, factory)
        assert factory not in repro.__all__

    def test_factory_registry_gone(self):
        import repro.sim.system as system_module

        assert not hasattr(system_module, "SCHEME_FACTORIES")

    def test_scheme_info_has_no_legacy_factory(self):
        from repro.core.registry import SchemeInfo, scheme_info

        fields = {f.name for f in dataclasses.fields(SchemeInfo)}
        assert "legacy_factory" not in fields
        assert not hasattr(scheme_info("bbb"), "legacy_factory")


class TestOneCrashMechanism:
    """Every crash goes through a ``CrashSchedule``: the op-count crash
    parameter of ``run`` and the replaying sweep module are gone, not just
    unused."""

    @pytest.mark.parametrize("run", [System.run, Engine.run])
    def test_run_has_no_crash_parameter(self, run):
        assert list(inspect.signature(run).parameters) == [
            "self", "trace", "finalize"]

    def test_no_crash_module_in_sim(self):
        import repro.sim

        modules = {m.name for m in pkgutil.iter_modules(repro.sim.__path__)}
        assert "crash" not in modules

    def test_no_crash_sweep_exports(self):
        import repro

        assert not [n for n in dir(repro) if n.startswith("Crash")]
        assert not [n for n in repro.__all__ if n.startswith("Crash")]


class TestAssembly:
    def test_scheme_attached_to_hierarchy(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.scheme.hierarchy is system.hierarchy
        assert len(system.scheme.buffers) == small_config.num_cores

    def test_stats_shared(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.stats is system.hierarchy.stats
        assert system.stats.num_cores == small_config.num_cores

    def test_nvmm_media_accessor(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.nvmm_media is system.hierarchy.nvmm.media

    def test_end_to_end_run(self, small_config):
        system = build_system("bbb", config=small_config)
        trace = single_thread_trace(
            TraceOp.store(paddr(small_config, 0), 0xAB),
            TraceOp.load(paddr(small_config, 0)),
        )
        result = system.run(trace)
        assert result.stats.total_stores == 1
        assert system.nvmm_media.read_word(paddr(small_config, 0), 8) == 0xAB

    def test_battery_backed_sb_only_for_bbb_and_eadr(self, small_config):
        def sb0(name):
            return build_system(
                name, config=small_config
            ).hierarchy.store_buffers[0]

        assert sb0("bbb").battery_backed
        assert sb0("eadr").battery_backed
        assert not sb0("pmem").battery_backed
        assert not sb0("none").battery_backed

    def test_internal_construction_does_not_warn(self, small_config):
        """No scheme's construction path raises a DeprecationWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in SCHEMES:
                build_system(name, config=small_config)
