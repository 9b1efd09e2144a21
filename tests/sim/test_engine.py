"""Unit tests for the trace-interleaving engine (repro.sim.engine)."""

import pytest

from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after, daddr, paddr, single_thread_trace


class TestBasicExecution:
    def test_compute_advances_clock(self, small_config):
        system = build_system("eadr", config=small_config)
        result = system.run(single_thread_trace(TraceOp.compute(100)))
        assert result.execution_cycles == 100
        assert result.stats.core[0].compute_cycles == 100

    def test_store_costs_one_cycle(self, small_config):
        system = build_system("eadr", config=small_config)
        result = system.run(
            single_thread_trace(TraceOp.store(paddr(small_config, 0), 1)),
            finalize=False,
        )
        # commit (1) + release (1)
        assert result.execution_cycles == 2

    def test_load_pays_hierarchy_latency(self, small_config):
        system = build_system("eadr", config=small_config)
        result = system.run(
            single_thread_trace(TraceOp.load(paddr(small_config, 0))),
            finalize=False,
        )
        expected = (
            small_config.l1d.hit_latency
            + small_config.llc.hit_latency
            + small_config.mem.nvmm_read_cycles
        )
        assert result.execution_cycles == expected

    def test_too_many_threads_rejected(self, small_config):
        system = build_system("eadr", config=small_config)
        threads = [ThreadTrace([TraceOp.compute(1)]) for _ in range(
            small_config.num_cores + 1
        )]
        with pytest.raises(ValueError):
            system.run(ProgramTrace(threads))

    def test_per_core_clocks_independent(self, small_config):
        system = build_system("eadr", config=small_config)
        trace = ProgramTrace(
            [
                ThreadTrace([TraceOp.compute(1000)]),
                ThreadTrace([TraceOp.compute(10)]),
            ]
        )
        result = system.run(trace)
        assert result.stats.core[0].cycles == 1000
        assert result.stats.core[1].cycles == 10
        assert result.execution_cycles == 1000


class TestInterleaving:
    def test_lowest_clock_core_runs_first(self, small_config):
        """Core 1's cheap ops all execute before core 0's second op."""
        system = build_system("none", config=small_config)
        x = paddr(small_config, 0)
        trace = ProgramTrace(
            [
                ThreadTrace([TraceOp.compute(10_000), TraceOp.store(x, 0xAA)]),
                ThreadTrace([TraceOp.store(x, 0xBB)]),
            ]
        )
        system.run(trace, finalize=False)
        # Core 0's store lands last: its value must win.
        assert system.hierarchy.load(0, x, 8, 10**9)[0] == 0xAA


class TestStoreBufferForwarding:
    def test_load_forwards_from_sb_under_relaxed(self, small_config):
        import dataclasses

        from repro.core.persistency import BBBScheme
        from repro.sim.config import ConsistencyModel
        from repro.sim.system import System

        cfg = dataclasses.replace(small_config, consistency=ConsistencyModel.RELAXED)
        system = System(cfg, BBBScheme(), reorder_seed=1)
        x = paddr(cfg, 0)
        trace = single_thread_trace(
            TraceOp.store(x, 0x77),
            TraceOp.load(x),
        )
        result = system.run(trace)
        # Forward happened if the store was still buffered; either way the
        # loads counter reflects one load.
        assert result.stats.core[0].loads == 1


class TestFlushFence:
    def test_explicit_flush_fence_round_trip(self, small_config):
        system = build_system("none", config=small_config)
        x = paddr(small_config, 0)
        trace = single_thread_trace(
            TraceOp.store(x, 5),
            TraceOp.flush(x),
            TraceOp.fence(),
        )
        result = system.run(trace, finalize=False)
        assert system.nvmm_media.read_word(x, 8) == 5
        assert result.stats.flushes == 1
        assert result.stats.fences == 1
        assert result.stats.core[0].stall_cycles_flush_fence > 0

    def test_fence_without_flush_is_cheap(self, small_config):
        system = build_system("none", config=small_config)
        result = system.run(single_thread_trace(TraceOp.fence()), finalize=False)
        assert result.stats.core[0].stall_cycles_flush_fence == 0

    def test_outstanding_flushes_awaited_at_end(self, small_config):
        system = build_system("none", config=small_config)
        x = paddr(small_config, 0)
        trace = single_thread_trace(TraceOp.store(x, 5), TraceOp.flush(x))
        result = system.run(trace, finalize=False)
        # completion includes the flush round trip even without a fence
        assert result.execution_cycles >= small_config.mem.mc_transfer_cycles


class TestCrashInjection:
    def test_crash_stops_execution(self, small_config):
        system = build_system("bbb", config=small_config,
                              options=crash_after(4))
        ops = [TraceOp.store(paddr(small_config, i), i + 1) for i in range(10)]
        result = system.run(single_thread_trace(*ops))
        assert result.crashed and result.crash_op == 4
        assert result.stats.core[0].stores == 4

    def test_crash_produces_drain_report(self, small_config):
        system = build_system("bbb", config=small_config,
                              options=crash_after(4))
        ops = [TraceOp.store(paddr(small_config, i), i + 1) for i in range(10)]
        result = system.run(single_thread_trace(*ops))
        assert result.drain_report is not None
        assert result.drain_report.scheme == "bbb"

    def test_crash_counts_interleaved_ops_globally(self, small_config):
        system = build_system("bbb", config=small_config,
                              options=crash_after(6))
        trace = ProgramTrace(
            [
                ThreadTrace([TraceOp.compute(1)] * 5),
                ThreadTrace([TraceOp.compute(1)] * 5),
            ]
        )
        result = system.run(trace)
        assert result.crash_op == 6


class TestPersistRecords:
    def test_committed_equals_performed_under_tso(self, small_config):
        system = build_system("bbb", config=small_config)
        ops = [TraceOp.store(paddr(small_config, i), i) for i in range(5)]
        result = system.run(single_thread_trace(*ops))
        assert [r.addr for r in result.committed_persists] == [
            r.addr for r in result.performed_persists
        ]

    def test_volatile_stores_not_recorded(self, small_config):
        system = build_system("bbb", config=small_config)
        trace = single_thread_trace(
            TraceOp.store(daddr(small_config, 0), 1),
            TraceOp.store(paddr(small_config, 0), 2),
        )
        result = system.run(trace)
        assert len(result.committed_persists) == 1
        assert result.committed_persists[0].value == 2


class TestDeterminism:
    def test_identical_runs_produce_identical_stats(self, small_config):
        """The simulator is fully deterministic: same trace, same config,
        same seed => byte-identical stats and media image."""
        from repro.workloads.base import WorkloadSpec, registry

        spec = WorkloadSpec(threads=4, ops=40, elements=1024, seed=9)

        def run_once():
            workload = registry(small_config.mem, spec)["ctree"]
            system = build_system("bbb", config=small_config)
            workload.seed_media(system.nvmm_media)
            result = system.run(workload.build(), finalize=False)
            return result.stats.to_dict(), sorted(
                (a, tuple(sorted(d.bytes.items())))
                for a, d in system.nvmm_media.image().items()
            )

        stats_a, image_a = run_once()
        stats_b, image_b = run_once()
        assert stats_a == stats_b
        assert image_a == image_b

    def test_relaxed_mode_deterministic_per_seed(self, small_config):
        import dataclasses

        from repro.core.persistency import BBBScheme
        from repro.sim.config import ConsistencyModel
        from repro.sim.system import System

        cfg = dataclasses.replace(small_config, consistency=ConsistencyModel.RELAXED)
        ops = [TraceOp.store(paddr(cfg, i), i + 1) for i in range(30)]

        def run(seed):
            system = System(cfg, BBBScheme(), reorder_seed=seed)
            result = system.run(single_thread_trace(*ops), finalize=False)
            return [(r.addr, r.value) for r in result.performed_persists]

        assert run(5) == run(5)
        assert run(5) != run(6) or len(run(5)) == 0
