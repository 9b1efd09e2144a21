"""Property: BSP's crash guarantee is per-core prefix consistency.

Whatever a BSP system loses at a crash, what *persisted* is always a
program-order prefix per core (the ordered volatile buffer drains FIFO and
conflicts force prefix drains) — never a hole.  The exact-durability
property of BBB does NOT hold for BSP (buffered stores die), which the
second test demonstrates statistically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery import check_exact_durability, check_prefix_consistency
from repro.sim.config import SystemConfig
from repro.api import build_system
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after

CFG = SystemConfig(num_cores=2).scaled_for_testing()

# Write-once address streams (each block index used once per thread) keep
# the prefix checker fully determinate.
thread_strategy = st.lists(
    st.integers(min_value=1, max_value=1 << 30), min_size=1, max_size=30
)
program_strategy = st.lists(thread_strategy, min_size=1, max_size=2)


def build(threads):
    built = []
    for tid, values in enumerate(threads):
        ops = []
        for i, value in enumerate(values):
            addr = CFG.mem.persistent_base + (tid * 64 + i) * 64
            ops.append(TraceOp.store(addr, value))
        built.append(ThreadTrace(ops))
    return ProgramTrace(built)


@settings(max_examples=40, deadline=None)
@given(program_strategy, st.data())
def test_bsp_crash_state_is_a_prefix(threads, data):
    trace = build(threads)
    crash_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="crash_at"
    )
    entries = data.draw(st.sampled_from([2, 4, 8, 32]), label="entries")
    system = build_system("bsp", config=CFG, entries=entries,
                          options=crash_after(crash_at))
    result = system.run(trace)
    check = check_prefix_consistency(system.nvmm_media, result.committed_persists)
    assert check, check.violations


def test_bsp_does_lose_buffered_stores_somewhere():
    """Sanity that the prefix property is not vacuous: some crash point
    loses committed stores (unlike BBB)."""
    threads = [[i + 1 for i in range(20)]]
    trace = build(threads)
    lost_somewhere = False
    for crash_at in range(1, trace.total_ops() + 1):
        system = build_system("bsp", config=CFG, entries=8,
                              options=crash_after(crash_at))
        result = system.run(trace)
        if not check_exact_durability(system.nvmm_media, result.committed_persists):
            lost_somewhere = True
            break
    assert lost_somewhere
