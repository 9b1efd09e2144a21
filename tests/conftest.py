"""Shared fixtures and helpers for the test suite.

Most tests use a deliberately tiny system (2 KB L1s, 8 KB LLC, small
memory) so that evictions, inclusion enforcement, and drain pressure all
happen within a few dozen operations.
"""

from __future__ import annotations

import pytest

from repro.api import RunOptions
from repro.check.schedule import SITE_OP, CrashSchedule
from repro.sim.config import (
    BBBConfig,
    CacheConfig,
    MemConfig,
    SystemConfig,
)
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp


@pytest.fixture
def small_config() -> SystemConfig:
    """Tiny 4-core system for fast, eviction-heavy tests."""
    return SystemConfig(num_cores=4).scaled_for_testing()


@pytest.fixture
def two_core_config() -> SystemConfig:
    """Two cores — the shape of the Fig. 6 coherence scenarios."""
    return SystemConfig(num_cores=2).scaled_for_testing()


def pbase(config: SystemConfig) -> int:
    """First persistent address of a config (start of the palloc region)."""
    return config.mem.persistent_base


def paddr(config: SystemConfig, block: int, offset: int = 0) -> int:
    """Persistent address at block index ``block`` + ``offset`` bytes."""
    return config.mem.persistent_base + block * config.block_size + offset


def daddr(config: SystemConfig, block: int, offset: int = 0) -> int:
    """A DRAM (volatile) address."""
    return 4096 + block * config.block_size + offset


def crash_after(ops: int, **options) -> RunOptions:
    """Run wiring that crashes at the op boundary after ``ops`` executed
    ops; ``options`` are further :class:`RunOptions` fields."""
    return RunOptions(
        crash_schedule=CrashSchedule(stop_at=ops, sites=(SITE_OP,)), **options
    )


def single_thread_trace(*ops: TraceOp) -> ProgramTrace:
    return ProgramTrace([ThreadTrace(ops)])


def conflict_addresses(config: SystemConfig, target_addr: int, count: int):
    """Persistent addresses that map to the same LLC set as ``target_addr``
    (used to force evictions of a specific block via LRU pressure)."""
    block = config.block_size
    num_sets = config.llc.num_sets
    base_block = target_addr // block
    target_set = base_block % num_sets
    addrs = []
    candidate = config.mem.persistent_base // block
    # Align candidate to the target set.
    candidate += (target_set - candidate) % num_sets
    while len(addrs) < count:
        addr = candidate * block
        if addr != (target_addr // block) * block and config.mem.is_persistent(addr):
            addrs.append(addr)
        candidate += num_sets
    return addrs
