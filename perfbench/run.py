"""The repository benchmark: ``fig7``, ``serve`` and ``verify`` workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload verify --seed 3 --record

Each repetition is one fresh ``perfbench/worker.py`` process that sets
up, runs the workload once (the timed region) and checks its outputs;
repetitions run one at a time until ``--seconds`` have passed (at least
:data:`MIN_REPS`).  Reported values are medians over repetitions.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` untraced and traced repetitions alternate and the
metrics are the per-layer ones (see ``perfbench/README.md``).

Outputs are checked against ``perfbench/references.json`` when it holds
the seed, otherwise against outputs computed in this run by an
independent path (``suite.<Workload>.reference``).  ``--record`` stores
that independent reference for the seed.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
run record (revision, python, numpy, nproc, seed, jobs, engine paths,
per-repetition numbers) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fig7", "serve", "verify")

#: Untraced repetitions per run at least (each traced run also makes at
#: least MIN_TRACED traced ones), whatever ``--seconds`` says.
MIN_REPS = 3
MIN_TRACED = 2
#: Stop starting repetitions after this long, so a run ends in time even
#: on a slow machine.
MAX_LOOP_S = 100.0
WORKER_TIMEOUT_S = 120.0
#: Layer self times plus ``unattributed_s`` must equal the traced wall
#: time within this fraction.
ROLLUP_TOLERANCE = 0.01
#: The Fig. 7 driver and every other call run serially in one process.
JOBS = 1


class BenchError(RuntimeError):
    pass


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_JOBS"] = str(JOBS)
    return env


def _spawn(args: List[str]) -> Dict[str, Any]:
    cmd = [sys.executable, WORKER, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd + args, env=_worker_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n"
            + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _references(workload: str, seed: int) -> tuple:
    """``(path, source)`` of the reference outputs for this seed."""
    with open(REFERENCES) as fh:
        recorded = json.load(fh)
    if str(seed) in recorded.get(workload, {}):
        return REFERENCES, "recorded"
    path = os.path.join(OUT, f"ref-{workload}-{seed}.json")
    _spawn(["--workload", workload, "--seed", str(seed),
            "--reference-out", path])
    return path, "independent path"


def _geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _revision() -> str:
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def end_to_end(reps: List[Dict[str, Any]], slow: float) -> Dict[str, float]:
    """End-to-end metrics of the untraced repetitions.

    Host times are medians over repetitions taken per cell (and for the
    time outside cells), then summed: a burst of machine noise that hits
    one cell of one repetition is filtered out.  They are divided by
    ``slow``, the machine's slowdown against nominal during the run."""
    seconds = [{name: s for name, _, s in r["cells"]} for r in reps]
    cells = {name: (ops, statistics.median(t[name] for t in seconds))
             for name, ops, _ in reps[0]["cells"]}
    outside = statistics.median(
        r["wall_s"] - sum(s for _, _, s in r["cells"]) for r in reps)
    wall = outside + sum(s for _, s in cells.values())
    return {
        "ops_per_s": slow * reps[0]["ops"] / wall,
        "cell_ops_per_s_geomean": slow * _geomean(
            [ops / s for ops, s in cells.values()]),
        "setup_s": statistics.median(r["setup_s"] for r in reps) / slow,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    wall_u = statistics.median(r["wall_s"] for r in untraced)
    wall_t = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_pct"] = (wall_t / wall_u - 1.0) * 100.0
    out["trace.rollup_error_pct"] = max(
        r["rollup_error"] for r in traced) * 100.0
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 record: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    os.makedirs(OUT, exist_ok=True)
    refs, ref_source = _references(workload, seed)
    base = ["--workload", workload, "--seed", str(seed), "--refs", refs]
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    reference = calibrate.ReferenceLoop()
    reference_s = [reference.seconds()]
    start = time.monotonic()
    while True:
        if trace and len(untraced) > len(traced):
            spans = os.path.join(OUT, f"spans-{workload}-{seed}.json")
            traced.append(_spawn(base + ["--trace", "1",
                                         "--spans-out", spans]))
        else:
            untraced.append(_spawn(base + ["--trace", "0"]))
        reference_s.append(reference.seconds())
        elapsed = time.monotonic() - start
        enough = len(untraced) >= MIN_REPS and (
            not trace or len(traced) >= MIN_TRACED)
        if (enough and elapsed >= seconds) or elapsed >= MAX_LOOP_S:
            break

    reps = untraced + traced
    slow = statistics.median(reference_s) / calibrate.REFERENCE_S
    problems = [f"{name}: {msg}" for r in reps
                for name, msg in r["failures"].items()]
    if trace:
        metrics = per_layer(untraced, traced)
        if metrics["trace.rollup_error_pct"] > ROLLUP_TOLERANCE * 100.0:
            problems.append(
                f"layer self times + unattributed_s miss the traced wall "
                f"time by {metrics['trace.rollup_error_pct']:.3f}% "
                f"(tolerance {ROLLUP_TOLERANCE * 100:g}%)")
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(untraced, slow)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise BenchError(
            "metrics disagree with BENCHMARK.json: "
            f"extra {sorted(set(metrics) - set(names))}, "
            f"missing {sorted(set(names) - set(metrics))}")
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": not problems and sum(r["failed"] for r in reps) == 0,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }

    run_record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "revision": _revision(),
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "seconds": seconds,
        "reference": ref_source,
        "problems": problems[:20],
        "engine_paths": untraced[0]["paths"],
        "machine_slowdown": slow,
        "reference_loop_s": reference_s,
        "repetitions": [
            {key: r[key] for key in ("setup_s", "wall_s", "ops",
                                     "peak_rss_mb",
                                     "attempted", "failed", "cells")}
            | {"traced": "layers" in r}
            for r in reps
        ],
        "result": result,
    }
    with open(os.path.join(OUT, f"record-{workload}-{seed}-trace{int(trace)}"
                                f".json"), "w") as fh:
        json.dump(run_record, fh, indent=1, sort_keys=True)

    print(f"# {workload} seed={seed} reps={len(untraced)}"
          + (f"+{len(traced)} traced" if trace else "")
          + f" reference={ref_source} revision={run_record['revision']}")
    for name in names:
        print(f"{workload:>7} {name:<40} {metrics[name]:>16.6g} "
              f"{units[name]}")
    for line in problems[:10]:
        print(f"FAILED {line}")

    if record and result["correct"] and ref_source != "recorded":
        with open(refs) as fh:
            fresh = json.load(fh)
        with open(REFERENCES) as fh:
            recorded = json.load(fh)
        recorded.setdefault(workload, {}).update(fresh[workload])
        with open(REFERENCES, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return result


def main() -> int:
    # Turn SIGTERM into SystemExit so subprocess.run kills the running
    # worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's reference outputs")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace),
                args.record, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
