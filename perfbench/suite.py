"""The three benchmark workloads, their inputs and their correctness checks.

Every workload is built from the run's seed alone and calls only public
entry points of ``repro``.  A workload has four steps:

* ``__init__`` (set-up): imports, configuration, generated inputs;
* ``run()`` — the timed work, exactly what a user's command does;
* ``finish()`` — outside the timed region: per-unit outputs
  (``{unit: {"weight": operations, "value": json}}``), per-cell timings,
  the command's own gates and the engine path each run took;
* ``reference()`` — the same unit outputs computed by an independent path
  (the object interpreter, or unpruned crash exploration), used as the
  reference for seeds without recorded digests.

Operations (the ``attempted``/``failed`` counts) are Fig. 7 cells on
``fig7``, requests on ``serve`` and crash points on ``verify``.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Callable, Dict, List, Tuple

from layers import fig7_cell

#: fig7 input size: the Fig. 7 grid at 8 threads, scaled so one driver
#: call takes a few host seconds.
FIG7_THREADS = 8
FIG7_OPS = 50
FIG7_ELEMENTS = 1024

#: serve: two equal-weight tenants, three schemes, two offered loads
#: (requests per 1000 cycles).  10 is below every scheme's knee; 32 is
#: above pmem's (about 19) and below bbb's and eadr's (above 46).
SERVE_REQUESTS = 400
SERVE_SCHEMES = ("bbb", "eadr", "pmem")
SERVE_LOADS = (10.0, 32.0)
SERVE_ENTRIES = 32

#: verify: the crash-exploration batteries at a scale where one pass
#: takes a few host seconds.
VERIFY_WORKLOAD = "hashmap"
VERIFY_THREADS = 2
VERIFY_OPS = 6
VERIFY_ELEMENTS = 128
VERIFY_MAX_POINTS = 40
VERIFY_ENTRIES = 8
VERIFY_MUTANT = "bbb-delayed-alloc"
#: The smoke gate's bound on a minimized mutant counterexample.
VERIFY_MAX_CEX_OPS = 6
DRILL_SCHEME = "bbb"
DRILL_REQUESTS = 30
DRILL_ENTRIES = 16
FAULT_SCHEMES = ("bbb", "eadr")
FAULT_OPS = 30
FAULT_ELEMENTS = 256


def digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=list).encode()
    ).hexdigest()


def capture(owner, attr: str, on_call: Callable) -> None:
    """Replace ``owner.attr`` by a pass-through that reports
    ``(args, result, seconds)`` of every call to ``on_call``."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        on_call(args, result, time.perf_counter() - start)
        return result

    setattr(owner, attr, wrapper)


class Outcome:
    """What ``finish()`` hands to the worker."""

    def __init__(self) -> None:
        self.ops = 0
        self.cells: List[Tuple[str, int, float]] = []
        self.units: Dict[str, Dict[str, Any]] = {}
        self.gate_failures: Dict[str, str] = {}
        self.paths: Dict[str, str] = {}

    def unit(self, name: str, weight: int, value: Any) -> None:
        self.units[name] = {"weight": weight, "value": value}


def _path(batch_counters: Dict[str, int]) -> str:
    return "batched" if batch_counters["phases"] > 0 else "object"


# ----------------------------------------------------------------------
# fig7
# ----------------------------------------------------------------------

class Fig7:
    """The Fig. 7 driver over the seven Table IV workloads x {BBB-32,
    BBB-1024, eADR}: 21 cells through ``run_batch``, serial (``jobs=1``)
    with the shared-memory columnar handoff.  Trace generation is timed:
    the build memo is cleared before every call."""

    name = "fig7"

    def __init__(self, seed: int) -> None:
        from repro.analysis import batch, bench, experiments
        from repro.api import RunOptions, build_system
        from repro.sim.system import System
        from repro.workloads import base

        self.experiments = experiments
        self.base = base
        self.bench = bench
        self.RunOptions = RunOptions
        self.build_system = build_system
        self.config = experiments.default_sim_config()
        self.spec = base.WorkloadSpec(
            threads=FIG7_THREADS, ops=FIG7_OPS, elements=FIG7_ELEMENTS,
            seed=seed,
        )
        self.cells: List[Tuple[Any, float]] = []
        self.runs: List[Tuple[Any, Dict[str, int]]] = []
        capture(batch, "execute_spec",
                lambda args, run, s: self.cells.append((args[0], s)))
        capture(System, "run", lambda args, result, s: self.runs.append(
            (result, dict(args[0].engine.batch_counters))))

    def run(self) -> None:
        self.base.clear_trace_cache()
        self.cells.clear()
        self.runs.clear()
        self.experiments.fig7(spec=self.spec, config=self.config, jobs=1)

    def finish(self) -> Outcome:
        out = Outcome()
        for (spec, seconds), (result, counters) in zip(self.cells, self.runs):
            name = fig7_cell(spec)
            trace, _ = self.base.build_cached(spec.workload, self.config.mem,
                                              spec.spec)
            ops = trace.total_ops()
            out.ops += ops
            out.cells.append((name, ops, seconds))
            out.unit(name, 1, self.bench.fingerprint_run(result))
            out.paths[name] = _path(counters)
        if len(out.cells) != 21 or len(self.runs) != 21:
            out.gate_failures["fig7"] = (
                f"expected 21 cells, saw {len(out.cells)} cells and "
                f"{len(self.runs)} runs")
        return out

    def reference(self) -> Dict[str, Any]:
        """Every cell on the object interpreter, from the same inputs."""
        from repro.analysis.batch import RunSpec
        from layers import FIG7_WORKLOADS

        variants = (("bbb", (("entries", 32),)), ("bbb", (("entries", 1024),)),
                    ("eadr", ()))
        units = {}
        for workload in FIG7_WORKLOADS:
            for scheme, kwargs in variants:
                self.runs.clear()
                self.experiments.run_workload(
                    workload,
                    lambda: self.build_system(
                        scheme, config=self.config,
                        options=self.RunOptions(mode="object"), **dict(kwargs)),
                    self.spec, self.config,
                )
                name = fig7_cell(RunSpec(workload, scheme, kwargs))
                units[name] = self.bench.fingerprint_run(self.runs[0][0])
        return units


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def _point_value(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "achieved_load": payload["achieved_load"],
        "nvmm_writes": payload["nvmm_writes"],
        "tenants": {
            name: {"p50": block["p50"], "p99": block["p99"]}
            for name, block in sorted(payload["tenants"].items())
        },
    }


def _point_name(scheme: str, load: float) -> str:
    return f"{scheme}@{load:g}"


class Serve:
    """Open-loop Poisson traffic (open in simulated time) from two
    tenants, served by bbb, eadr and pmem at two offered loads through
    ``traffic_curve`` in the default ``auto`` mode."""

    name = "serve"

    def __init__(self, seed: int) -> None:
        from repro.api import RunOptions
        from repro.serve import TenantSpec, TrafficSpec, frontend, report
        from repro.sim.engine import EngineStream

        self.frontend = frontend
        self.report_mod = report
        self.RunOptions = RunOptions
        self.spec = TrafficSpec(
            requests=SERVE_REQUESTS,
            tenants=(
                TenantSpec("reads", weight=1.0, keys=1024, read_fraction=0.95,
                           update_fraction=0.05, insert_fraction=0.0),
                TenantSpec("writes", weight=1.0, keys=65536,
                           read_fraction=0.0, update_fraction=0.5,
                           insert_fraction=0.5),
            ),
            zipf_theta=0.9,
            seed=seed,
        )
        self.points: List[Tuple[str, float]] = []
        self.sessions: List[Dict[str, int]] = []
        self.report: Dict[str, Any] = {}
        capture(frontend, "run_traffic", lambda args, point, s: self.points.append(
            (_point_name(point.scheme, point.offered_load), s)))
        capture(EngineStream, "finish", lambda args, result, s: self.sessions.append(
            dict(args[0].engine.batch_counters)))

    def run(self) -> None:
        self.points.clear()
        self.sessions.clear()
        self.report = self.frontend.traffic_curve(
            SERVE_SCHEMES, self.spec, SERVE_LOADS, entries=SERVE_ENTRIES)

    def finish(self) -> Outcome:
        out = Outcome()
        try:
            self.report_mod.validate_traffic_report(self.report)
        except ValueError as exc:
            out.gate_failures["report"] = str(exc)
        seconds = dict(self.points)
        for payload, counters in zip(self.report["points"], self.sessions):
            name = _point_name(payload["scheme"], payload["offered_load"])
            completed = payload["completed"]
            out.ops += completed
            out.cells.append((name, completed, seconds[name]))
            out.unit(name, payload["requests"], _point_value(payload))
            out.paths[name] = _path(counters)
            if completed != payload["requests"] or payload["crashed"]:
                out.gate_failures[name] = (
                    f"{completed} of {payload['requests']} requests "
                    f"completed (crashed={payload['crashed']})")
        return out

    def reference(self) -> Dict[str, Any]:
        """Every point on the object interpreter."""
        units = {}
        for scheme in SERVE_SCHEMES:
            for load in SERVE_LOADS:
                point = self.frontend.run_traffic(
                    scheme, self.spec.with_load(load), entries=SERVE_ENTRIES,
                    options=self.RunOptions(mode="object"))
                units[_point_name(scheme, load)] = _point_value(
                    point.to_payload())
        return units


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _verdicts(verdicts) -> str:
    return digest([(v.point, v.consistent, list(v.violations))
                   for v in verdicts])


class Verify:
    """Crash exploration shaped like the CI gates: ``explore`` under every
    builtin scheme, the bbb-delayed-alloc mutant with ddmin, the litmus
    smoke corpus under every scheme, naive-vs-optimized
    ``verify_workload_cell`` per scheme, one drill unit and a slice of the
    fault campaign."""

    name = "verify"

    def __init__(self, seed: int) -> None:
        from repro.api import SCHEMES
        from repro.check import checker, minimize
        from repro.core.registry import scheme_info
        from repro.fault import campaign
        from repro.litmus import models, runner
        from repro.litmus.corpus import smoke_corpus
        from repro.opt import verify
        from repro.serve import TrafficSpec, drill
        from repro.workloads.base import WorkloadSpec

        self.checker = checker
        self.minimize = minimize
        self.runner = runner
        self.models = models
        self.verify = verify
        self.drill = drill
        self.campaign = campaign
        self.scheme_info = scheme_info
        self.seed = seed
        self.schemes = tuple(SCHEMES)
        self.spec = WorkloadSpec(threads=VERIFY_THREADS, ops=VERIFY_OPS,
                                 elements=VERIFY_ELEMENTS, seed=seed)
        self.litmus = [(test, test.to_payload()) for test in smoke_corpus()]
        self.drill_spec = TrafficSpec(requests=DRILL_REQUESTS, seed=seed)
        self.fault_spec = WorkloadSpec(threads=VERIFY_THREADS, ops=FAULT_OPS,
                                       elements=FAULT_ELEMENTS, seed=seed)
        self.fault_units = [
            campaign.FaultUnit(scheme, VERIFY_WORKLOAD, self.fault_spec,
                               crash_at=50 + seed % 50, plan=plan)
            for scheme in FAULT_SCHEMES for plan in campaign.canonical_plans()
        ]
        self.results: List[Tuple[str, str, Any, float]] = []

    def _sample_seed(self, unit_index: int) -> int:
        """Each unit samples its own crash points: with one shared sample
        every unit's replay cost would move together with the seed."""
        return self.seed * 1000 + unit_index

    def _unit(self, unit_index: int, **kw):
        return self.checker.CheckUnit(
            workload=VERIFY_WORKLOAD, spec=self.spec, entries=VERIFY_ENTRIES,
            max_points=VERIFY_MAX_POINTS,
            sample_seed=self._sample_seed(unit_index), **kw)

    def _timed(self, kind: str, name: str, fn: Callable, *args, **kw) -> None:
        start = time.perf_counter()
        result = fn(*args, **kw)
        self.results.append((kind, name, result,
                             time.perf_counter() - start))

    def run(self, prune: bool = True) -> None:
        self.results.clear()
        explore = self.checker.explore
        for i, scheme in enumerate(self.schemes):
            self._timed("explore", f"explore:{scheme}", explore,
                        self._unit(i, scheme=scheme, prune=prune))

        start = time.perf_counter()
        unit = self._unit(len(self.schemes), scheme="bbb",
                          mutant=VERIFY_MUTANT, prune=prune)
        verdicts, _, _ = explore(unit)
        bad = next((v for v in verdicts if not v.consistent), None)
        cex = (self.minimize.minimize_counterexample(unit, bad)
               if bad is not None else None)
        self.results.append(("mutant", f"mutant:{VERIFY_MUTANT}",
                             (verdicts, cex), time.perf_counter() - start))

        for scheme in self.schemes:
            for test, payload in self.litmus:
                self._timed("litmus", f"litmus:{scheme}:{test.name}",
                            self.runner.run_cell, scheme, None,
                            VERIFY_ENTRIES, payload)

        for i, scheme in enumerate(self.schemes, len(self.schemes) + 1):
            self._timed("opt", f"opt:{VERIFY_WORKLOAD}:{scheme}",
                        self.verify.verify_workload_cell, VERIFY_WORKLOAD,
                        scheme, spec=self.spec, entries=VERIFY_ENTRIES,
                        max_points=VERIFY_MAX_POINTS,
                        sample_seed=self._sample_seed(i))

        start = time.perf_counter()
        sites = self.drill.count_crash_sites(
            DRILL_SCHEME, self.drill_spec, entries=DRILL_ENTRIES)
        drill_unit = self.drill.DrillUnit(
            DRILL_SCHEME, self.drill_spec,
            crash_visit=sites // 2 + self.seed % max(1, sites // 2),
            entries=DRILL_ENTRIES)
        report = self.drill.execute_drill_unit(drill_unit)
        self.results.append(("drill", f"drill:{DRILL_SCHEME}", report,
                             time.perf_counter() - start))

        for unit in self.fault_units:
            self._timed("fault", f"fault:{unit.scheme}:{unit.plan.label}",
                        self.campaign.execute_fault_unit, unit)

    def _outcome(self) -> Outcome:
        out = Outcome()
        tests = {test.name: test for test, _ in self.litmus}
        cells: Dict[str, Tuple[int, float]] = {}
        for kind, name, result, seconds in self.results:
            gate = None
            if kind == "explore":
                verdicts = result[0]
                bad = sum(1 for v in verdicts if not v.consistent)
                weight = len(verdicts)
                value = {"verdicts": _verdicts(verdicts), "points": weight,
                         "inconsistent": bad}
                if bad:
                    gate = f"{bad} of {weight} crash points inconsistent"
            elif kind == "mutant":
                verdicts, cex = result
                weight = len(verdicts)
                value = {"verdicts": _verdicts(verdicts),
                         "caught": cex is not None,
                         "minimized_ops": cex.num_ops if cex else None}
                if cex is None:
                    gate = "mutant not caught"
                elif cex.num_ops > VERIFY_MAX_CEX_OPS:
                    gate = f"minimized counterexample has {cex.num_ops} ops"
            elif kind == "litmus":
                weight = result["points"]
                observed = [rec["state"] for rec in result["observed"]]
                value = {"observed": digest(observed), "points": weight}
                test = tests[result["test"]]
                model = self.scheme_info(result["scheme"]).persistency_model
                _, forbidden = self.runner.classify_states(
                    {tuple(s) for s in observed},
                    self.models.allowed_states(test, model))
                if forbidden:
                    gate = f"forbidden under {model}: {forbidden[:2]}"
            elif kind == "opt":
                points = result["checker_points"]
                weight = (min(points["naive"], VERIFY_MAX_POINTS)
                          + min(points["optimized"], VERIFY_MAX_POINTS))
                value = {key: result[key] for key in (
                    "ok", "naive_consistent", "optimized_consistent",
                    "fingerprints_equal", "final_fingerprint",
                    "checker_points", "elided")}
                if not result["ok"]:
                    gate = "; ".join(result["failures"])[:200]
            elif kind == "drill":
                weight = 1
                value = digest(result)
                lost = result["outcomes"].get("acked-lost", 0)
                if not result["contract_consistent"] or (
                        result["battery_domain"] and lost):
                    gate = (f"contract_consistent="
                            f"{result['contract_consistent']}, "
                            f"acked_lost={lost}")
            else:  # fault
                weight = 1
                value = {key: result[key] for key in (
                    "crash_at", "outcome", "baseline_consistent",
                    "contract_consistent", "injected", "detected")}
                if not result["baseline_consistent"]:
                    gate = "fault-free baseline is inconsistent"
            out.ops += weight
            # Litmus and fault units take milliseconds each; timed one by
            # one their noise would swamp the geomean, so a cell is all
            # units of one kind under one scheme.
            cell = (name.rsplit(":", 1)[0] if kind in ("litmus", "fault")
                    else name)
            cells[cell] = (cells.get(cell, (0, 0.0))[0] + weight,
                           cells.get(cell, (0, 0.0))[1] + seconds)
            out.unit(name, weight, value)
            if gate:
                out.gate_failures[name] = gate
        out.cells = [(cell, ops, s) for cell, (ops, s) in cells.items()]
        return out

    def finish(self) -> Outcome:
        return self._outcome()

    def reference(self) -> Dict[str, Any]:
        """The same units with state pruning off: every crash point's
        oracles are evaluated afresh."""
        self.run(prune=False)
        return {name: unit["value"]
                for name, unit in self._outcome().units.items()}


WORKLOADS = {cls.name: cls for cls in (Fig7, Serve, Verify)}
