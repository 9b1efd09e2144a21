"""The headline property: under schemes that close the PoV/PoP gap, *every*
random program crashed at *every* random point recovers to the exact
committed state; and the BBB design invariants hold at arbitrary points of
arbitrary programs."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import check_all
from repro.core.recovery import check_exact_durability
from repro.sim.config import ConsistencyModel, SystemConfig
from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after

CFG = SystemConfig(num_cores=2).scaled_for_testing()

# Random programs: per-thread op streams over a small persistent footprint
# (16 blocks) so cross-core conflicts and evictions are common.
op_strategy = st.tuples(
    st.sampled_from(["load", "store", "compute"]),
    st.integers(min_value=0, max_value=15),   # block index
    st.integers(min_value=0, max_value=56),   # offset (8-aligned below)
    st.integers(min_value=1, max_value=1 << 30),
)


def to_trace_op(kind, block, offset, value):
    addr = CFG.mem.persistent_base + block * 64 + (offset & ~7)
    if kind == "load":
        return TraceOp.load(addr)
    if kind == "store":
        return TraceOp.store(addr, value)
    return TraceOp.compute(value % 20)


thread_strategy = st.lists(op_strategy, min_size=1, max_size=30)
program_strategy = st.lists(thread_strategy, min_size=1, max_size=2)


def build_program(threads):
    return ProgramTrace(
        [ThreadTrace([to_trace_op(*op) for op in ops]) for ops in threads]
    )


@settings(max_examples=40, deadline=None)
@given(program_strategy, st.data())
def test_bbb_crash_recovers_exact_committed_state(threads, data):
    trace = build_program(threads)
    crash_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="crash_at"
    )
    entries = data.draw(st.sampled_from([1, 2, 8, 32]), label="entries")
    system = build_system("bbb", config=CFG, entries=entries,
                          options=crash_after(crash_at))
    result = system.run(trace)
    check = check_exact_durability(system.nvmm_media, result.committed_persists)
    assert check, check.violations


@settings(max_examples=25, deadline=None)
@given(program_strategy, st.data())
def test_processor_side_bbb_also_exact(threads, data):
    trace = build_program(threads)
    crash_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="crash_at"
    )
    system = build_system("bbb-proc", config=CFG, entries=8,
                          options=crash_after(crash_at))
    result = system.run(trace)
    check = check_exact_durability(system.nvmm_media, result.committed_persists)
    assert check, check.violations


@settings(max_examples=25, deadline=None)
@given(program_strategy, st.data())
def test_eadr_crash_recovers_exact_committed_state(threads, data):
    trace = build_program(threads)
    crash_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="crash_at"
    )
    system = build_system("eadr", config=CFG, options=crash_after(crash_at))
    result = system.run(trace)
    check = check_exact_durability(system.nvmm_media, result.committed_persists)
    assert check, check.violations


@settings(max_examples=15, deadline=None)
@given(program_strategy, st.data())
def test_pmem_strict_crash_recovers_exact_committed_state(threads, data):
    trace = build_program(threads)
    crash_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="crash_at"
    )
    system = build_system("pmem", config=CFG, options=crash_after(crash_at))
    result = system.run(trace)
    check = check_exact_durability(system.nvmm_media, result.committed_persists)
    assert check, check.violations


@settings(max_examples=30, deadline=None)
@given(program_strategy, st.data())
def test_bbb_invariants_hold_at_random_points(threads, data):
    """Invariants 3/4 audited on the live system mid-execution."""
    trace = build_program(threads)
    stop_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="stop_at"
    )
    entries = data.draw(st.sampled_from([2, 8, 32]), label="entries")
    system = build_system("bbb", config=CFG, entries=entries)
    # Run without crashing: stop the engine at an op boundary by splitting
    # the run into a crash-free prefix (crash_at stops execution but we
    # audit *before* drain by not calling crash_drain — use a plain
    # truncated trace instead).
    truncated = []
    remaining = stop_at
    for thread in trace.threads:
        take = min(len(thread), remaining)
        truncated.append(ThreadTrace(list(thread)[:take]))
        remaining -= take
    system.run(ProgramTrace(truncated), finalize=False)
    check_all(system)


def build_disjoint_program(threads):
    """Per-thread block footprints made disjoint (shift by 16 blocks per
    thread): under relaxed consistency, committed-order replay is only the
    golden state when cross-core same-block conflicts cannot occur."""
    built = []
    for tid, ops in enumerate(threads):
        shifted = [(k, b + 16 * tid, o, v) for (k, b, o, v) in ops]
        built.append(ThreadTrace([to_trace_op(*op) for op in shifted]))
    return ProgramTrace(built)


@settings(max_examples=20, deadline=None)
@given(program_strategy, st.data())
def test_relaxed_bbb_with_battery_sb_exact(threads, data):
    cfg = dataclasses.replace(CFG, consistency=ConsistencyModel.RELAXED)
    trace = build_disjoint_program(threads)
    crash_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="crash_at"
    )
    seed = data.draw(st.integers(min_value=0, max_value=99), label="seed")
    system = build_system("bbb", config=cfg, entries=16,
                          options=crash_after(crash_at, reorder_seed=seed))
    result = system.run(trace)
    check = check_exact_durability(system.nvmm_media, result.committed_persists)
    assert check, check.violations
