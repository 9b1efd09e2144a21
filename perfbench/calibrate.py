"""A fixed pure-Python reference loop that measures the machine's current speed.

The machines this benchmark runs on are shared virtual machines.  On a
2-vCPU KVM guest (Intel Xeon, 300 MB shared L3) the same repetition ran
between 0.65x and 1.0x of its best speed depending on what other guests
were doing, in phases lasting minutes, with process CPU time slowing
just as much as wall time.  ``run.py`` therefore times this loop in its
own process before the first repetition and after each one, and divides
the run's host times by ``median(loop seconds) / REFERENCE_S``, so that
a slow phase of the machine does not read as a slow program.

The loop does not touch ``repro``: a change to the program cannot move
it.  It mixes what the simulator's hot paths do — attribute reads and
writes on small objects, dict lookups and inserts, list indexing and
integer arithmetic — over a working set of tens of megabytes.
"""

from __future__ import annotations

import time

#: Iterations of one reference loop.
ITERATIONS = 300_000
#: Nominal seconds of one reference loop (its typical time on the guest
#: above): scaled host times read as if the loop had taken this long.
REFERENCE_S = 0.36
#: Objects in the working set (comparable to a fig7 repetition's heap).
SLOTS = 1 << 20


class _Line:
    __slots__ = ("tag", "dirty", "value")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False
        self.value = 0


class ReferenceLoop:
    """The working set is built once; :meth:`seconds` times one pass."""

    def __init__(self) -> None:
        self.lines = [_Line(i) for i in range(SLOTS)]

    def seconds(self) -> float:
        """Seconds the fixed reference loop takes now."""
        lines = self.lines
        index = {}
        mask = SLOTS - 1
        x = 12345
        start = time.perf_counter()
        for i in range(ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            line = lines[x & mask]
            if line.tag == i:
                line.dirty = True
            line.value += x & 0xFF
            key = x >> 17
            hit = index.get(key)
            if hit is None:
                index[key] = line
            else:
                hit.dirty = not hit.dirty
        return time.perf_counter() - start
