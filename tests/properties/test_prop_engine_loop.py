"""The engine's one per-op loop against an independent scheduler.

``System.run`` and ``System.run_stream`` share one heap-scheduled loop, so
comparing them with each other no longer checks the scheduler.  These
properties add the scan it replaced (:mod:`tests.sim.scan_reference`, a
``min()`` over live cores by ``(clock, core)``) as the reference: over
random programs on 1-32 cores, with as many threads as cores or fewer,
under every builtin scheme and the out-of-tree scheme of
``examples/custom_scheme.py``, in TSO and RELAXED consistency, the
fingerprints of ``System.run``, of ``run_stream`` at several chunk sizes
and of the scan all agree.
"""

import dataclasses
import runpy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bench import fingerprint_run
from repro.api import build_system
from repro.core.registry import iter_schemes, scheme_names, unregister_scheme
from repro.sim.config import ConsistencyModel, SystemConfig
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.sim.scan_reference import scan_run

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_scheme.py"
CUSTOM = "bbb-nocoalesce"
SCHEMES = [info.name for info in iter_schemes() if info.builtin] + [CUSTOM]
CHUNKS = (1, 3, 10 ** 9)
BASE = SystemConfig().scaled_for_testing()

op_strategy = st.tuples(
    st.sampled_from(["load", "store", "store", "compute", "flush", "fence",
                     "epoch"]),
    st.booleans(),                                  # persistent vs DRAM
    st.integers(min_value=0, max_value=15),         # block index
    st.sampled_from([0, 8, 56]),                    # offset
    st.integers(min_value=1, max_value=1 << 40),    # value / cycles
)


@st.composite
def programs(draw):
    cores = draw(st.integers(min_value=1, max_value=32))
    threads = draw(st.integers(min_value=1, max_value=cores))
    ops = draw(st.lists(st.lists(op_strategy, max_size=10),
                        min_size=threads, max_size=threads))
    return cores, ops


def _op(config, kind, persistent, block, offset, value):
    base = config.mem.persistent_base if persistent else 4096
    addr = base + block * 64 + offset
    if kind == "load":
        return TraceOp.load(addr)
    if kind == "store":
        return TraceOp.store(addr, value)
    if kind == "compute":
        return TraceOp.compute(1 + value % 50)
    if kind == "flush":
        return TraceOp.flush(addr)
    if kind == "fence":
        return TraceOp.fence()
    return TraceOp.epoch()


@pytest.fixture(scope="module")
def custom_scheme():
    """Register the example's scheme for the module; leave the registry
    as it was found."""
    added = CUSTOM not in scheme_names()
    if added:
        runpy.run_path(str(EXAMPLE), run_name="custom_scheme_example")
    try:
        yield
    finally:
        if added:
            unregister_scheme(CUSTOM)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    program=programs(),
    scheme=st.sampled_from(SCHEMES),
    consistency=st.sampled_from([ConsistencyModel.TSO,
                                 ConsistencyModel.RELAXED]),
    finalize=st.booleans(),
)
def test_run_and_streams_match_the_scan_scheduler(
    custom_scheme, program, scheme, consistency, finalize
):
    cores, threads = program
    config = dataclasses.replace(BASE, num_cores=cores,
                                 consistency=consistency)
    trace = ProgramTrace([ThreadTrace([_op(config, *op) for op in ops])
                          for ops in threads])

    def system():
        return build_system(scheme, entries=4, config=config)

    reference = fingerprint_run(scan_run(system(), trace, finalize))
    assert fingerprint_run(system().run(trace, finalize=finalize)) \
        == reference
    for chunk in CHUNKS:
        streams = [iter(thread.ops) for thread in trace.threads]
        streamed = system().run_stream(streams, chunk=chunk,
                                       finalize=finalize)
        assert fingerprint_run(streamed) == reference, f"chunk={chunk}"
