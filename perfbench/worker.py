"""One benchmark repetition in a fresh interpreter.

Usage (``run.py`` drives it; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload fig7 --seed 0 --trace 0 \
        --spawned-at <time.monotonic() of the parent at spawn> \
        [--refs <references json>] [--reference-out <path>] [--spans-out <path>]

Set-up (imports, configuration, generated inputs, loading references)
runs first; the timed region is one call of the workload; outputs are
checked after it.  The last stdout line is one JSON object.  With
``--reference-out`` the worker instead computes the workload's reference
outputs by the independent path and writes them there.
"""

from __future__ import annotations

import argparse
import json
import time


def _compare(outcome, expected):
    """Per-unit failures: an output that differs from the reference, or a
    unit whose command's own gate rejected it."""
    failures = {}
    for name, unit in outcome.units.items():
        if expected is not None and expected.get(name) != unit["value"]:
            failures[name] = "output differs from the reference"
    if expected is not None:
        for name in sorted(set(expected) - set(outcome.units)):
            failures[name] = "unit missing from the output"
    for name, message in outcome.gate_failures.items():
        failures.setdefault(name, message)
    return failures


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ``ru_maxrss`` would
    also count the parent's memory at fork time, so read ``VmHWM``."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--refs")
    parser.add_argument("--reference-out")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    import suite

    workload = suite.WORKLOADS[args.workload](args.seed)
    if args.reference_out:
        units = workload.reference()
        with open(args.reference_out, "w") as fh:
            json.dump({args.workload: {str(args.seed): units}}, fh,
                      sort_keys=True)
        print(json.dumps({"units": len(units)}))
        return

    expected = None
    if args.refs:
        with open(args.refs) as fh:
            expected = json.load(fh)[args.workload][str(args.seed)]

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)

    ready = time.monotonic()
    start = time.perf_counter()
    if tracer is None:
        workload.run()
    else:
        with tracer.root():
            workload.run()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    outcome = workload.finish()
    failures = _compare(outcome, expected)
    record = {
        "setup_s": ready - args.spawned_at,
        "wall_s": wall,
        "ops": outcome.ops,
        "cells": outcome.cells,
        "attempted": sum(u["weight"] for u in outcome.units.values()),
        "failed": sum(outcome.units[name]["weight"] if name in outcome.units
                      else 1 for name in failures),
        "failures": dict(sorted(failures.items())[:10]),
        "units": {name: unit["value"] for name, unit in outcome.units.items()},
        "paths": outcome.paths,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        import layers

        record["layers"], record["rollup_error"] = layers.rollup(tracer, wall)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
