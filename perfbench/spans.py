"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each ``repro`` layer from the
outside (nothing inside ``src/repro`` knows it exists) and records, per
span name, the call count and the *self* time: span duration minus the
time of spans nested in it.  Every wrapped call is a span; spans whose
name is in :data:`HOT` (memory-hierarchy and scheme hooks, called per
simulated access) are aggregated only, all others are also kept as
``(id, parent, name, start, end)`` records and written out at the end.

Work counts are recorded at the same boundaries by ``after`` hooks, the
per-component counter idiom: one ``counts`` table keyed by
``<layer>.<counter>``.  Hook time is charged to its own ``trace.hook``
bucket, so layer self times plus the root's self time (the benchmark's
own code between layer calls, reported as ``unattributed_s``) add up to
the traced wall time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span names aggregated without per-call records (per-access hooks).
HOT = frozenset({"mem", "core"})

#: Kept span records are capped so a long traced run cannot exhaust memory;
#: aggregates are always complete.
MAX_KEPT_SPANS = 200_000

ROOT = "root"
HOOK = "trace.hook"


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)
        #: Self time per (scope, span name); the scope is a fig7 cell.
        self.scoped_self_s: Dict[tuple, float] = defaultdict(float)
        self.scope: Optional[str] = None
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: Open frames: [name, start, child seconds, span id].
        self._stack: List[list] = []
        self._next_id = 0
        self._undo: List[tuple] = []

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        own = dur - child
        self.self_s[name] += own
        self.calls[name] += 1
        if self.scope is not None:
            self.scoped_self_s[(self.scope, name)] += own
        if self._stack:
            self._stack[-1][2] += dur
        if name not in HOT:
            if len(self.spans) < MAX_KEPT_SPANS:
                parent = self._stack[-1][3] if self._stack else 0
                self.spans.append((span_id, parent, name, start, end))
            else:
                self.dropped_spans += 1

    def _hook(self, hook: Callable, *args) -> None:
        """Run a counting hook, charging its time to ``trace.hook``."""
        start = time.perf_counter()
        hook(*args)
        dur = time.perf_counter() - start
        self.self_s[HOOK] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def root(self) -> "_Root":
        return _Root(self)

    # -- wrapping --------------------------------------------------------
    def _wrap_callable(self, fn: Callable, name: str,
                       before: Optional[Callable] = None,
                       after: Optional[Callable] = None,
                       generator: bool = False,
                       wrap_result: Optional[str] = None) -> Callable:
        tracer = self

        if generator:
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    if after is not None:
                        tracer._hook(after, args, kwargs, item)
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(before, args, kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                tracer._hook(after, args, kwargs, result)
            if wrap_result is not None and callable(result):
                result = tracer._wrap_callable(result, wrap_result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap ``module.attr`` and every ``from module import attr``
        binding of it in already-imported ``repro`` modules."""
        original = getattr(module, attr)
        wrapper = self._wrap_callable(original, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, **kw) -> None:
        """Wrap ``attr`` where ``cls`` itself defines it (plain functions,
        classmethods and staticmethods)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap_callable(raw.__func__, name, **kw))
        else:
            wrapped = self._wrap_callable(raw, name, **kw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def wrap_hierarchy(self, base: type, attrs, name: str, **kw) -> None:
        """Wrap each of ``attrs`` on ``base`` and every subclass that
        overrides it (scheme hooks, workload checkers)."""
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    self.wrap_method(cls, attr, name, **kw)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------
    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start", "end"],
                "dropped": self.dropped_spans,
                "spans": self.spans,
            }, fh)


class _Root:
    """The timed region: its self time is the benchmark's own code."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.frame: Optional[list] = None

    def __enter__(self) -> "_Root":
        self.frame = self.tracer._enter(ROOT)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame)
