"""The ``repro bench --smoke`` correctness gate and the run fingerprint.

``run_smoke`` runs a tiny fixed (workload x scheme) grid: each cell's
trace, handed to the engine as a fresh
:class:`~repro.sim.coltrace.ColumnarTrace`, must run bit-identically to
its ``ProgramTrace``, and the closed-form analytical estimate must sit
inside its tolerance band.  ``fingerprint_run`` digests everything a run
observably produced.

Nothing here measures time: wall-clock performance is the repository
benchmark's job (``perfbench/``, declared by ``BENCHMARK.json``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

from repro.analysis.analytical import (
    TOLERANCE,
    analytical_estimate,
    validate_against_sim,
)
from repro.analysis.experiments import default_sim_config
from repro.api import build_system
from repro.core.registry import BBB, EADR
from repro.sim.coltrace import ColumnarTrace
from repro.workloads.base import WorkloadSpec, build_cached, seed_media_words

#: Smoke grid: (workload, scheme, scheme kwargs).
ENGINE_GRID: Tuple[Tuple[str, str, Tuple[Tuple[str, int], ...]], ...] = (
    ("hashmap", BBB, (("entries", 32),)),
    ("hashmap", EADR, ()),
    ("mutateC", BBB, (("entries", 32),)),
    ("mutateC", EADR, ()),
    ("swapNC", BBB, (("entries", 32),)),
    ("swapNC", EADR, ()),
)

#: Workload size of the smoke grid.
SMOKE_SPEC = WorkloadSpec(threads=4, ops=40, elements=2048, seed=11)


def fingerprint_run(result) -> str:
    """Stable digest of everything a run observably produced: the full
    stats payload plus the committed/performed persist-record streams.
    Two runs with equal fingerprints are bit-identical as far as any
    downstream consumer can tell."""
    blob = {
        "stats": result.stats.to_dict(),
        "committed": [tuple(r) for r in result.committed_persists],
        "performed": [tuple(r) for r in result.performed_persists],
    }
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()
    ).hexdigest()


def _run_cell(scheme, kwargs, config, trace, initial_words):
    """One fresh single-shot ``System`` running ``trace`` (unfinalized)."""
    system = build_system(scheme, config=config, **dict(kwargs))
    seed_media_words(system.nvmm_media, initial_words)
    return system.run(trace, finalize=False)


def run_smoke() -> Dict[str, Any]:
    """CI gate on a tiny grid: each cell's trace, handed to the engine as
    a fresh :class:`~repro.sim.coltrace.ColumnarTrace` (the batch runner's
    shared-memory form), must run bit-identically to its ``ProgramTrace``,
    and the analytical estimate must sit inside the tolerance band.
    Returns ``{"ok": bool, ...}``; no wall-clock ratios are checked (those
    are meaningless on shared CI runners) — only correctness properties.
    """
    config = default_sim_config()
    cells: List[Dict[str, Any]] = []
    ok = True
    for workload, scheme, kwargs in ENGINE_GRID:
        trace, initial_words = build_cached(workload, config.mem, SMOKE_SPEC)
        fps = []
        for source in (trace, ColumnarTrace.from_program(trace)):
            result = _run_cell(scheme, kwargs, config, source,
                               initial_words)
            fps.append(fingerprint_run(result))
        identical = fps[0] == fps[1]
        est = analytical_estimate(
            trace, scheme, config,
            entries=dict(kwargs).get("entries"), finalize=False)
        verdict = validate_against_sim(est, result.stats)
        cell_ok = identical and verdict["ok"]
        ok = ok and cell_ok
        cells.append({
            "workload": workload, "scheme": scheme,
            "identical": identical,
            "analytical_ok": verdict["ok"],
            "errors": {k: round(v, 4) for k, v in verdict["errors"].items()},
        })
    return {"ok": ok, "spec": "smoke", "cells": cells,
            "tolerance": dict(TOLERANCE)}
