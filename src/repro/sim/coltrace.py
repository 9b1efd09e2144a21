"""Columnar trace representation: ``ProgramTrace`` as structured arrays.

The object representation (:class:`~repro.sim.trace.ProgramTrace`) is a
list of per-thread ``TraceOp`` dataclass instances — convenient to build
and inspect, but every simulated op pays attribute-access and dispatch
cost, and pickling a trace to a batch worker serialises hundreds of
thousands of objects.  :class:`ColumnarTrace` stores the same program as
per-thread columns of plain integers:

* with numpy available (the normal case) each thread is one structured
  array (``kind``/``addr``/``size``/``value``/``cycles`` fields),
* otherwise each thread is a set of parallel ``array('B'/'H'/'Q')``
  columns — same layout, stdlib only.

The conversion is lossless both ways: sparse per-op ``tag`` strings live
in a side dict, and the rare op whose fields do not fit the fixed-width
columns (negative or >= 2**64 values) is kept verbatim in a ``wide``
side table.  ``ProgramTrace`` objects convert through the memoized
:func:`columnar_of` so repeated runs of one cached trace (scheme sweeps,
bench grids) share a single conversion.

The columns feed the shared-memory batch handoff
(:mod:`repro.analysis.batch`), the trace file format
(:mod:`repro.sim.tracefile`), the analytical model and the optimizer IR;
the engine accepts a ``ColumnarTrace`` and runs its :meth:`to_program`
form.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary, ref

from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp

try:  # pragma: no cover - exercised via the fallback tests
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

#: Integer op-kind codes used in the ``kind`` column (stable; the trace
#: file format and the batched interpreter both key off them).
K_LOAD, K_STORE, K_FLUSH, K_FENCE, K_COMPUTE, K_EPOCH = range(6)

KIND_TO_CODE: Dict[OpKind, int] = {
    OpKind.LOAD: K_LOAD,
    OpKind.STORE: K_STORE,
    OpKind.FLUSH: K_FLUSH,
    OpKind.FENCE: K_FENCE,
    OpKind.COMPUTE: K_COMPUTE,
    OpKind.EPOCH: K_EPOCH,
}
CODE_TO_KIND: Tuple[OpKind, ...] = (
    OpKind.LOAD, OpKind.STORE, OpKind.FLUSH,
    OpKind.FENCE, OpKind.COMPUTE, OpKind.EPOCH,
)

#: Column value ranges (unsigned fixed-width storage).
_U64_MAX = (1 << 64) - 1
_U16_MAX = (1 << 16) - 1

if _np is not None:
    #: One op per row; little-endian so the on-disk/SHM bytes are portable.
    OP_DTYPE = _np.dtype([
        ("kind", "u1"),
        ("addr", "<u8"),
        ("size", "<u2"),
        ("value", "<u8"),
        ("cycles", "<u8"),
    ])
else:  # pragma: no cover
    OP_DTYPE = None


def _store_byte_dicts(
    offs: List[int], vals: List[int], sizes: List[int]
) -> List[Dict[int, int]]:
    """Precompute each private store's ``{byte offset: byte value}`` payload
    (one ``dict.update`` on a block's sparse byte map has the same effect
    as ``BlockData.write_word``).  Only :meth:`ColumnarTrace.engine_prep`
    calls it.
    """
    out: List[Dict[int, int]] = []
    app = out.append
    for o, v, s in zip(offs, vals, sizes):
        try:
            bs = v.to_bytes(s, "little")
        except (OverflowError, ValueError):
            bs = bytes((v >> (8 * i)) & 0xFF for i in range(s))
        app(dict(zip(range(o, o + s), bs)))
    return out


def _fits(op: TraceOp) -> bool:
    return (
        0 <= op.addr <= _U64_MAX
        and 0 <= op.size <= _U16_MAX
        and 0 <= op.value <= _U64_MAX
        and 0 <= op.cycles <= _U64_MAX
    )


class ThreadColumns:
    """The columns of one thread.  ``rows`` is the numpy structured array
    when numpy is available, else ``None`` (the ``array`` columns are then
    authoritative).  ``tags`` maps op index -> tag string (sparse);
    ``wide`` maps op index -> the original :class:`TraceOp` for ops whose
    integer fields exceed the column widths (kept for losslessness — the
    shared-memory batch handoff refuses traces that need it)."""

    __slots__ = ("n", "rows", "kinds", "addrs", "sizes", "values", "cycles",
                 "tags", "wide")

    def __init__(
        self,
        kinds: Sequence[int],
        addrs: Sequence[int],
        sizes: Sequence[int],
        values: Sequence[int],
        cycles: Sequence[int],
        tags: Optional[Dict[int, str]] = None,
        wide: Optional[Dict[int, TraceOp]] = None,
    ) -> None:
        self.n = len(kinds)
        self.tags = dict(tags or {})
        self.wide = dict(wide or {})
        if _np is not None:
            rows = _np.zeros(self.n, dtype=OP_DTYPE)
            rows["kind"] = _np.asarray(kinds, dtype=_np.uint8)
            rows["addr"] = _np.asarray(addrs, dtype=_np.uint64)
            rows["size"] = _np.asarray(sizes, dtype=_np.uint16)
            rows["value"] = _np.asarray(values, dtype=_np.uint64)
            rows["cycles"] = _np.asarray(cycles, dtype=_np.uint64)
            self.rows = rows
            self.kinds = rows["kind"]
            self.addrs = rows["addr"]
            self.sizes = rows["size"]
            self.values = rows["value"]
            self.cycles = rows["cycles"]
        else:  # array-of-ints fallback
            self.rows = None
            self.kinds = array("B", kinds)
            self.addrs = array("Q", addrs)
            self.sizes = array("H", sizes)
            self.values = array("Q", values)
            self.cycles = array("Q", cycles)

    @classmethod
    def from_rows(
        cls,
        rows,
        tags: Optional[Dict[int, str]] = None,
        wide: Optional[Dict[int, TraceOp]] = None,
    ) -> "ThreadColumns":
        """Wrap an existing structured array (zero-copy; used by the
        shared-memory batch handoff and the columnar trace loader)."""
        self = cls.__new__(cls)
        self.n = len(rows)
        self.rows = rows
        self.kinds = rows["kind"]
        self.addrs = rows["addr"]
        self.sizes = rows["size"]
        self.values = rows["value"]
        self.cycles = rows["cycles"]
        self.tags = dict(tags or {})
        self.wide = dict(wide or {})
        return self

    def __len__(self) -> int:
        return self.n

    def column_lists(self) -> Tuple[List[int], List[int], List[int],
                                    List[int], List[int]]:
        """Plain Python lists of every column (the hot interpreter loop
        indexes lists ~3x faster than numpy scalars)."""
        if _np is not None and self.rows is not None:
            return (self.kinds.tolist(), self.addrs.tolist(),
                    self.sizes.tolist(), self.values.tolist(),
                    self.cycles.tolist())
        return (list(self.kinds), list(self.addrs), list(self.sizes),
                list(self.values), list(self.cycles))

    def op_at(self, i: int) -> TraceOp:
        """Materialise one op as a :class:`TraceOp` (exact round-trip)."""
        wide = self.wide.get(i)
        if wide is not None:
            return wide
        return TraceOp(
            CODE_TO_KIND[int(self.kinds[i])],
            addr=int(self.addrs[i]),
            size=int(self.sizes[i]),
            value=int(self.values[i]),
            cycles=int(self.cycles[i]),
            tag=self.tags.get(i),
        )


def _thread_ops(t: ThreadColumns) -> List[TraceOp]:
    """Every op of one thread as a :class:`TraceOp` — the same objects as
    :meth:`ThreadColumns.op_at`, built from plain column lists."""
    wide = t.wide
    tags = t.tags
    return [
        wide.get(i) or TraceOp(CODE_TO_KIND[k], addr=a, size=s, value=v,
                               cycles=c, tag=tags.get(i))
        for i, (k, a, s, v, c) in enumerate(zip(*t.column_lists()))
    ]


class ColumnarTrace:
    """A multi-threaded program stored column-wise.

    Construct via :meth:`from_program` (or :func:`columnar_of` for the
    memoized path); convert back with :meth:`to_program`.  The engine
    accepts either representation wherever a trace is expected.
    """

    def __init__(self, threads: Sequence[ThreadColumns]) -> None:
        if not threads:
            raise ValueError("a program needs at least one thread")
        self.threads: List[ThreadColumns] = list(threads)
        #: Derived per-op arrays keyed by memory/L1 geometry — see
        #: :meth:`engine_prep`.
        self._prep: Dict[Tuple, Tuple] = {}
        self._program: Optional[ProgramTrace] = None
        #: Weak link to the ProgramTrace this was converted from (set by
        #: :func:`columnar_of`): :meth:`to_program` returns that very
        #: object while it lives.  A strong link would keep every trace in
        #: the :func:`columnar_of` cache alive forever.
        self._source: Optional[ref] = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def total_ops(self) -> int:
        return sum(t.n for t in self.threads)

    @property
    def fast_path_ok(self) -> bool:
        """True when every op fits the fixed-width columns (tags are fine),
        so the columns alone carry the whole program."""
        return not any(t.wide for t in self.threads)

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_program(cls, trace: ProgramTrace) -> "ColumnarTrace":
        threads: List[ThreadColumns] = []
        for thread in trace.threads:
            kinds: List[int] = []
            addrs: List[int] = []
            sizes: List[int] = []
            values: List[int] = []
            cycles: List[int] = []
            tags: Dict[int, str] = {}
            wide: Dict[int, TraceOp] = {}
            for i, op in enumerate(thread.ops):
                kinds.append(KIND_TO_CODE[op.kind])
                if _fits(op):
                    addrs.append(op.addr)
                    sizes.append(op.size)
                    values.append(op.value)
                    cycles.append(op.cycles)
                else:
                    wide[i] = op
                    addrs.append(0)
                    sizes.append(0)
                    values.append(0)
                    cycles.append(0)
                if op.tag is not None:
                    tags[i] = op.tag
            threads.append(ThreadColumns(kinds, addrs, sizes, values, cycles,
                                         tags, wide))
        return cls(threads)

    def to_program(self) -> ProgramTrace:
        """The object representation: the source trace while it is alive,
        else rebuilt from the columns (memoized)."""
        source = self._source() if self._source is not None else None
        if source is not None:
            return source
        if self._program is None:
            self._program = ProgramTrace([
                ThreadTrace(_thread_ops(t)) for t in self.threads
            ])
        return self._program

    # ------------------------------------------------------------------
    # Interpreter support
    # ------------------------------------------------------------------
    # Unused by the package; kept because perfbench/layers.py wraps it by name.
    def engine_prep(
        self,
        block_mask: int,
        persistent_base: int,
        persistent_limit: int,
        l1_block_shift: int,
        l1_num_sets: int,
        load_cost: int,
        store_cost: int,
        persists_private: bool = False,
    ) -> Tuple[List[List[int]], ...]:
        """Per-thread derived arrays for a batched interpreter, memoized
        per (memory layout, L1 geometry, latency) key.

        COMPUTE ops never touch shared state, so the interpreter only ever
        iterates *memory* ops; computes are folded into a cost prefix sum.
        Per thread:

        ``P``      cost prefix: ``P[i]`` = cycles of ops ``[0, i)`` on the
                   private fast path (len ``n + 1``), so the clock at op
                   ``i`` is ``clock0 + P[i] - P[idx0]`` with no per-op
                   accumulation;
        ``mord``   ascending op indices of the memory ops (everything but
                   COMPUTE);
        ``mcls``/``mbaddr``/``moff``/``mset``/``mval``/``msize``
                   aligned per-memory-op columns.  ``mcls``: 1 = load
                   (private on an L1 hit), 2 = non-persisting store
                   (private on an M-state L1 hit), 3 = statically shared
                   (flush / fence / epoch — and persisting stores unless
                   ``persists_private``), 4 = persisting store eligible
                   for the private fast path on an M-state L1 hit (only
                   emitted when ``persists_private``, i.e. the active
                   scheme declares ``stall_free_persists``).

        Classes 1/2/4 carry a ``+8`` flag when the op targets the *same
        block* as the previous memory op on the thread — the scan then
        reuses the block reference it just validated instead of walking
        the L1 dicts again (read-modify-write runs make this the common
        case).  Class 3 is never flagged.

        Run/store helper columns let the interpreter retire a window of
        private ops without visiting every op:

        ``rix``    run index of each memory op (``+8``-flagged ops share
                   their predecessor's run) — indexes the scan's block-ref
                   list;
        ``rend``   one past the last memory op of the run containing the
                   op (the next unflagged position), so LRU stamping is
                   one write per *run* instead of one per op;
        ``nst``    prefix count (len ``nmem + 1``) of private stores
                   (class 2/4) among memory ops ``[0, m)``, giving window
                   load/store counts by subtraction;
        ``sord``/``soff``/``sval``/``ssiz``/``spst``
                   private stores in order: memory-op position, block
                   offset, value, size, and a persisting flag;
        ``sbyt``   per private store, the precomputed ``{byte offset:
                   byte value}`` dict of its payload — applied with one
                   C-level ``dict.update`` instead of ``size``
                   interpreted byte writes.
        """
        key = (block_mask, persistent_base, persistent_limit,
               l1_block_shift, l1_num_sets, load_cost, store_cost,
               persists_private)
        hit = self._prep.get(key)
        if hit is not None:
            return hit
        prefix_t: List[List[int]] = []
        mord_t: List[List[int]] = []
        mcls_t: List[List[int]] = []
        mbaddr_t: List[List[int]] = []
        mset_t: List[List[int]] = []
        rix_t: List[List[int]] = []
        rend_t: List[List[int]] = []
        nst_t: List[List[int]] = []
        sord_t: List[List[int]] = []
        soff_t: List[List[int]] = []
        sval_t: List[List[int]] = []
        ssiz_t: List[List[int]] = []
        spst_t: List[List[int]] = []
        sbyt_t: List[List[Dict[int, int]]] = []
        pow2_sets = l1_num_sets & (l1_num_sets - 1) == 0
        for t in self.threads:
            if _np is not None and t.rows is not None:
                kinds = t.kinds
                is_comp = kinds == K_COMPUTE
                cost = _np.full(t.n, store_cost, dtype=_np.int64)
                cost[kinds == K_LOAD] = load_cost
                cost[is_comp] = t.cycles[is_comp].astype(_np.int64)
                prefix = _np.zeros(t.n + 1, dtype=_np.int64)
                _np.cumsum(cost, out=prefix[1:])
                mem = ~is_comp
                mkinds = kinds[mem]
                addrs = t.addrs[mem].astype(_np.int64)
                baddr = addrs & ~_np.int64(block_mask)
                pers = (addrs >= persistent_base) & (addrs < persistent_limit)
                is_store = mkinds == K_STORE
                mcls = _np.full(len(mkinds), 3, dtype=_np.int64)
                mcls[mkinds == K_LOAD] = 1
                mcls[is_store & ~pers] = 2
                if persists_private:
                    mcls[is_store & pers] = 4
                nmem = len(mcls)
                if nmem > 1:
                    rep = _np.zeros(nmem, dtype=bool)
                    # A run never crosses a class-3 op on either side, so
                    # every run is either one shared op or a same-block
                    # chain of private-eligible ops.
                    rep[1:] = ((baddr[1:] == baddr[:-1])
                               & (mcls[:-1] != 3))
                    rep &= mcls != 3
                    mcls[rep] += 8
                shifted = baddr >> l1_block_shift
                if pow2_sets:
                    setidx = shifted & (l1_num_sets - 1)
                else:
                    setidx = shifted % l1_num_sets
                nonflag = mcls < 8
                rix = _np.cumsum(nonflag) - 1
                runpos = _np.nonzero(nonflag)[0]
                nxt = _np.searchsorted(runpos, _np.arange(nmem), "right")
                rend = _np.where(
                    nxt < len(runpos),
                    runpos.take(_np.minimum(nxt, len(runpos) - 1)),
                    nmem,
                )
                st_mask = (mcls & 7) != 1
                st_mask &= (mcls & 7) != 3
                nst = _np.zeros(nmem + 1, dtype=_np.int64)
                _np.cumsum(st_mask, out=nst[1:])
                sord = _np.nonzero(st_mask)[0]
                moffs = addrs & _np.int64(block_mask)
                mvals = t.values[mem]
                msizes = t.sizes[mem]
                prefix_t.append(prefix.tolist())
                mord_t.append(_np.nonzero(mem)[0].tolist())
                mcls_t.append(mcls.tolist())
                mbaddr_t.append(baddr.tolist())
                mset_t.append(setidx.tolist())
                rix_t.append(rix.tolist())
                rend_t.append(rend.tolist())
                nst_t.append(nst.tolist())
                sord_t.append(sord.tolist())
                soff_t.append(moffs.take(sord).tolist())
                sval_t.append(mvals.take(sord).tolist())
                ssiz_t.append(msizes.take(sord).tolist())
                spst_t.append(((mcls.take(sord) & 7) == 4).tolist())
                sbyt_t.append(_store_byte_dicts(
                    soff_t[-1], sval_t[-1], ssiz_t[-1]))
            else:
                prefix: List[int] = [0]
                mord: List[int] = []
                mcls_l: List[int] = []
                mbaddr_l: List[int] = []
                mset_l: List[int] = []
                rix_l: List[int] = []
                nst_l: List[int] = [0]
                sord_l: List[int] = []
                soff_l: List[int] = []
                sval_l: List[int] = []
                ssiz_l: List[int] = []
                spst_l: List[int] = []
                total = 0
                run = -1
                nstores = 0
                for i in range(t.n):
                    k = t.kinds[i]
                    if k == K_COMPUTE:
                        total += t.cycles[i]
                        prefix.append(total)
                        continue
                    total += load_cost if k == K_LOAD else store_cost
                    prefix.append(total)
                    a = t.addrs[i]
                    b = a & ~block_mask
                    m = len(mord)
                    mord.append(i)
                    if k == K_LOAD:
                        cv = 1
                    elif k != K_STORE:
                        cv = 3
                    elif not (persistent_base <= a < persistent_limit):
                        cv = 2
                    else:
                        cv = 4 if persists_private else 3
                    if (cv != 3 and mbaddr_l and b == mbaddr_l[-1]
                            and mcls_l[-1] != 3):
                        cv += 8
                    else:
                        run += 1
                    mcls_l.append(cv)
                    mbaddr_l.append(b)
                    s = b >> l1_block_shift
                    mset_l.append(s & (l1_num_sets - 1) if pow2_sets
                                  else s % l1_num_sets)
                    rix_l.append(run)
                    base_cv = cv & 7
                    if base_cv == 2 or base_cv == 4:
                        nstores += 1
                        sord_l.append(m)
                        soff_l.append(a & block_mask)
                        sval_l.append(t.values[i])
                        ssiz_l.append(t.sizes[i])
                        spst_l.append(base_cv == 4)
                    nst_l.append(nstores)
                nmem = len(mord)
                rend_l = [0] * nmem
                nxt = nmem
                for m in range(nmem - 1, -1, -1):
                    rend_l[m] = nxt
                    if mcls_l[m] < 8:
                        nxt = m
                prefix_t.append(prefix)
                mord_t.append(mord)
                mcls_t.append(mcls_l)
                mbaddr_t.append(mbaddr_l)
                mset_t.append(mset_l)
                rix_t.append(rix_l)
                rend_t.append(rend_l)
                nst_t.append(nst_l)
                sord_t.append(sord_l)
                soff_t.append(soff_l)
                sval_t.append(sval_l)
                ssiz_t.append(ssiz_l)
                spst_t.append(spst_l)
                sbyt_t.append(_store_byte_dicts(soff_l, sval_l, ssiz_l))
        prep = (prefix_t, mord_t, mcls_t, mbaddr_t, mset_t, rix_t,
                rend_t, nst_t, sord_t, soff_t, sval_t, ssiz_t, spst_t,
                sbyt_t)
        self._prep[key] = prep
        return prep

    def op_at(self, thread: int, i: int) -> TraceOp:
        return self.threads[thread].op_at(i)

    # ------------------------------------------------------------------
    # Summary statistics (shared by the analytical model)
    # ------------------------------------------------------------------
    def kind_counts(self) -> List[Dict[int, int]]:
        """Per-thread ``{kind code: count}`` maps."""
        out: List[Dict[int, int]] = []
        for t in self.threads:
            if _np is not None and t.rows is not None:
                binc = _np.bincount(t.kinds, minlength=6)
                out.append({k: int(binc[k]) for k in range(6) if binc[k]})
            else:
                counts: Dict[int, int] = {}
                for k in t.kinds:
                    counts[k] = counts.get(k, 0) + 1
                out.append(counts)
        return out


# ----------------------------------------------------------------------
# Memoized conversion
# ----------------------------------------------------------------------

#: ProgramTrace -> ColumnarTrace, keyed by object identity: the workload
#: trace cache returns the *same* ProgramTrace for repeated builds, so a
#: bench grid or scheme sweep converts each trace exactly once.
_COLUMNAR_CACHE: "WeakKeyDictionary[ProgramTrace, ColumnarTrace]" = (
    WeakKeyDictionary()
)


def columnar_of(trace: ProgramTrace) -> ColumnarTrace:
    """Convert (or fetch the cached conversion of) a ``ProgramTrace``.

    Callers must treat the result as read-only — it is shared across every
    run of the same trace object.  A ``ColumnarTrace`` passes through
    unchanged.
    """
    if isinstance(trace, ColumnarTrace):
        return trace
    cols = _COLUMNAR_CACHE.get(trace)
    if cols is None:
        cols = ColumnarTrace.from_program(trace)
        cols._source = ref(trace)
        _COLUMNAR_CACHE[trace] = cols
    return cols


def program_of(trace) -> ProgramTrace:
    """The object representation of either trace type."""
    if isinstance(trace, ColumnarTrace):
        return trace.to_program()
    return trace
