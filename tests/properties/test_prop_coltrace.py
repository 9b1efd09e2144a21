"""Property-based tests for the columnar trace representation
(repro.sim.coltrace): random ``ProgramTrace``s — including ops that
overflow the fixed-width columns and sub-word / overflowing store
payloads — must round-trip losslessly, and the precomputed store-byte
dicts must match byte-interpreted writes exactly."""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.coltrace import (ColumnarTrace, _store_byte_dicts,
                                columnar_of, program_of)
from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp

addrs = st.integers(min_value=0, max_value=1 << 20)
# Values straddling the u64 column width: fits / barely fits / overflows.
values = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.just((1 << 64) - 1),
    st.integers(min_value=1 << 64, max_value=1 << 80),
)
sizes = st.sampled_from([1, 2, 4, 8])
tags = st.one_of(st.none(), st.sampled_from(["a", "update:1", ""]))


@st.composite
def trace_ops(draw):
    kind = draw(st.sampled_from(list(OpKind)))
    if kind is OpKind.COMPUTE:
        return TraceOp(kind, cycles=draw(st.integers(0, 1000)))
    if kind in (OpKind.FENCE, OpKind.EPOCH):
        return TraceOp(kind)
    if kind is OpKind.STORE:
        return TraceOp(kind, addr=draw(addrs), size=draw(sizes),
                       value=draw(values), tag=draw(tags))
    return TraceOp(kind, addr=draw(addrs), size=draw(sizes), tag=draw(tags))


programs = st.lists(
    st.lists(trace_ops(), max_size=40), min_size=1, max_size=4
).map(lambda tt: ProgramTrace([ThreadTrace(ops) for ops in tt]))


@given(programs)
@settings(max_examples=150)
def test_columnar_roundtrip_lossless(trace):
    cols = ColumnarTrace.from_program(trace)
    back = cols.to_program()
    assert back.num_threads == trace.num_threads
    for t_orig, t_back in zip(trace.threads, back.threads):
        assert list(t_orig) == list(t_back)


@given(programs)
@settings(max_examples=50)
def test_op_at_matches_source(trace):
    cols = ColumnarTrace.from_program(trace)
    for tid, thread in enumerate(trace.threads):
        for i, op in enumerate(thread):
            assert cols.op_at(tid, i) == op


@given(programs)
@settings(max_examples=50)
def test_fast_path_flag_tracks_wide_ops(trace):
    cols = ColumnarTrace.from_program(trace)
    has_wide = any(
        op.value >= 1 << 64 for t in trace.threads for op in t
    )
    assert cols.fast_path_ok == (not has_wide)


def test_columnar_of_memoizes_and_roundtrips_identity():
    trace = ProgramTrace.single([TraceOp.store(0, 1), TraceOp.load(64)])
    cols = columnar_of(trace)
    assert columnar_of(trace) is cols
    assert program_of(cols) is trace
    assert program_of(trace) is trace


def test_columnar_of_frees_converted_traces():
    """The memo must not keep a trace alive: once the last outside
    reference to a converted ``ProgramTrace`` dies, the trace is collected
    (and with it its weak-keyed cache entry)."""
    trace = ProgramTrace.single([TraceOp.store(0, 1), TraceOp.load(64)])
    cols = columnar_of(trace)
    alive = weakref.ref(trace)
    del trace
    gc.collect()
    assert alive() is None
    # The columnar form outlives its source and still converts back.
    assert [op.kind for op in cols.to_program().threads[0]] == [
        OpKind.STORE, OpKind.LOAD]


@given(st.lists(st.tuples(st.integers(0, 56), values, sizes), max_size=30))
def test_store_byte_dicts_match_to_bytes(stores):
    offs = [s[0] for s in stores]
    vals = [s[1] for s in stores]
    szs = [s[2] for s in stores]
    for d, (o, v, s) in zip(_store_byte_dicts(offs, vals, szs), stores):
        expected = {o + i: (v >> (8 * i)) & 0xFF for i in range(s)}
        assert d == expected
