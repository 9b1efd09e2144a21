"""Integration tests: buffered epoch persistency over epoch-annotated
programs (the related-work model BBB is contrasted with).

BEP guarantees ordering *across* epochs only; the recovered image must sit
between two consecutive epoch boundaries (check_epoch_consistency).  The
tests build epoch-annotated programs, crash them everywhere, and validate
that contract — and that the epoch barrier is where BEP pays its stalls.
"""

import pytest

from repro.core.recovery import check_epoch_consistency
from repro.api import build_system
from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after, paddr, single_thread_trace


def epoch_program(config, epochs=6, stores_per_epoch=4):
    """Single-thread program: groups of stores separated by epoch ops.
    Returns (trace, groups) where groups[i] is the i-th epoch's stores."""
    ops = []
    groups = []
    addr_index = 0
    for e in range(epochs):
        group = []
        for s in range(stores_per_epoch):
            addr = paddr(config, addr_index)
            addr_index += 1
            value = (e << 16) | (s + 1)
            ops.append(TraceOp.store(addr, value))
            group.append((addr, value))
        ops.append(TraceOp.epoch())
        groups.append(group)
    return single_thread_trace(*ops), groups


def to_persist_records(groups):
    from repro.sim.engine import PersistRecord

    epochs = []
    seq = 0
    for group in groups:
        records = []
        for addr, value in group:
            seq += 1
            records.append(PersistRecord(0, addr, 8, value, seq))
        epochs.append(records)
    return epochs


class TestEpochConsistencyUnderBEP:
    def test_crash_sweep_is_epoch_consistent(self, small_config):
        trace, groups = epoch_program(small_config)
        epochs = to_persist_records(groups)
        for crash_at in range(1, trace.total_ops() + 1):
            system = build_system("bep", config=small_config, entries=8,
                                  options=crash_after(crash_at))
            system.run(trace)
            check = check_epoch_consistency(system.nvmm_media, epochs)
            assert check, (crash_at, check.violations)

    def test_full_run_persists_every_epoch(self, small_config):
        trace, groups = epoch_program(small_config)
        system = build_system("bep", config=small_config)
        system.run(trace)
        for group in groups:
            for addr, value in group:
                assert system.nvmm_media.read_word(addr, 8) == value

    def test_closed_epochs_are_durable_after_boundary(self, small_config):
        """Crashing right after an epoch boundary: the closed epoch is
        fully durable (the boundary stalls until it drains)."""
        trace, groups = epoch_program(small_config, epochs=2, stores_per_epoch=3)
        # Crash immediately after the first EPOCH op (op index 4 -> 1-based).
        system = build_system("bep", config=small_config,
                              options=crash_after(4))
        system.run(trace)
        for addr, value in groups[0]:
            assert system.nvmm_media.read_word(addr, 8) == value
        # Nothing from epoch 1 can be durable yet.
        for addr, value in groups[1]:
            assert system.nvmm_media.read_word(addr, 8) == 0


class TestEpochBarrierCost:
    def test_barriers_stall_when_prior_epoch_undrained(self, small_config):
        trace, _ = epoch_program(small_config, epochs=8, stores_per_epoch=6)
        system = build_system("bep", config=small_config, entries=64)
        result = system.run(trace, finalize=False)
        assert result.stats.epoch_barriers == 8
        assert sum(c.stall_cycles_epoch for c in result.stats.core) > 0

    def test_bbb_runs_the_same_program_without_epoch_stalls(self, small_config):
        """Under BBB the epoch ops are ordering no-ops: strict persistency
        subsumes them, with zero barrier stalls."""
        trace, groups = epoch_program(small_config, epochs=8, stores_per_epoch=6)
        system = build_system("bbb", config=small_config)
        result = system.run(trace, finalize=False)
        assert sum(c.stall_cycles_epoch for c in result.stats.core) == 0
        # And the durable state is even stronger than epoch consistency.
        epochs = to_persist_records(groups)
        system.scheme.finalize(10**9)
        assert check_epoch_consistency(system.nvmm_media, epochs)

    def test_bep_faster_than_strict_but_weaker(self, small_config):
        """The classic trade-off: BEP buys performance over per-store
        strictness by weakening the guarantee to epoch granularity."""
        from repro.api import build_system

        trace, _ = epoch_program(small_config, epochs=10, stores_per_epoch=8)
        t_bep = build_system("bep", config=small_config).run(trace, finalize=False).execution_cycles
        t_strict = build_system("pmem", config=small_config).run(trace, finalize=False).execution_cycles
        assert t_bep < t_strict
