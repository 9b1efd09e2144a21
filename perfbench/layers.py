"""Which ``repro`` functions the traced run wraps, and the per-layer roll-up.

Spans are named after the layer metric they feed (``<name>_s`` is the
summed self time of spans called ``<name>``).  The list below is the
whole contract between the benchmark and the program's structure: a
change that renames one of these functions must update it here.
"""

from __future__ import annotations

from typing import Dict, Tuple

from spans import HOOK, ROOT, Tracer

#: fig7 cells, in the order the Fig. 7 driver submits them.
FIG7_WORKLOADS = ("rtree", "ctree", "hashmap", "mutateNC", "mutateC",
                  "swapNC", "swapC")
FIG7_VARIANTS = ("bbb-32", "bbb-1024", "eadr")

#: Host-time spans -> the per-layer self-time metric they roll up into.
SELF_TIME_METRICS = {
    "workloads.build": "workloads.build_s",
    "coltrace.convert": "coltrace.convert_s",
    "coltrace.prep": "coltrace.prep_s",
    "engine.run": "engine.run_s",
    "engine.pump": "engine.pump_s",
    "engine.stream": "engine.stream_s",
    "mem": "mem.self_s",
    "core": "core.self_s",
    "batch": "batch.self_s",
    "system.build": "system.build_s",
    "loadgen": "loadgen.s",
    "kvservice.lower": "kvservice.lower_s",
    "frontend": "frontend.self_s",
    "check.count": "check.count_s",
    "check.point": "check.point_s",
    "check.oracle": "check.oracle_s",
    "check.minimize": "check.minimize_s",
    "litmus.cell": "litmus.cell_s",
    "opt.pipeline": "opt.pipeline_s",
    "opt.audit": "opt.audit_s",
    "opt.verify": "opt.verify_s",
    "drill.unit": "drill.unit_s",
    "fault.unit": "fault.unit_s",
    HOOK: "trace.hook_s",
}

#: Call counts reported as metrics (span name -> metric).
CALL_METRICS = {
    "coltrace.prep": "coltrace.prep_calls",
    "engine.pump": "engine.pump_calls",
    "mem": "mem.calls",
    "core": "core.calls",
    "system.build": "system.builds",
    "check.count": "check.count_runs",
    "check.oracle": "check.oracle_calls",
}

#: Counters filled by the hooks below, reported as they are.
COUNT_METRICS = (
    "workloads.ops_built",
    "coltrace.prep_ops",
    "engine.private_ops",
    "engine.shared_ops",
    "engine.rescans",
    "engine.batched_cells",
    "engine.stream_batched_sessions",
    "mem.l1d_misses",
    "mem.llc_misses",
    "mem.nvmm_writes",
    "core.bbpb_allocations",
    "core.bbpb_drains",
    "core.bbpb_stall_cycles",
    "loadgen.requests",
    "kvservice.ops_lowered",
    "check.points",
    "check.pruned",
    "check.unique_states",
    "check.replayed_ops",
    "check.schedule_visits",
    "check.inconsistent_points",
    "check.inconsistent_points.own_build",
    "check.inconsistent_points.payload",
    "check.inconsistent_points.mutant",
    "check.minimize_runs",
    "litmus.points",
    "opt.points",
    "drill.points",
    "fault.crash_runs",
)

SCHEME_HOOKS = (
    "on_persisting_store", "on_remote_invalidation", "on_remote_intervention",
    "on_llc_eviction", "on_explicit_flush", "on_epoch_boundary", "finalize",
    "crash_drain",
)


def cell_metric(workload: str, variant: str) -> str:
    return f"engine.run_s.{workload}.{variant}"


def fig7_cell(spec) -> str:
    """``<workload>.<variant>`` of a Fig. 7 ``RunSpec``."""
    entries = dict(spec.scheme_kwargs).get("entries")
    variant = f"{spec.scheme}-{entries}" if entries else spec.scheme
    return f"{spec.workload}.{variant}"


def _add_run_stats(counts, stats) -> None:
    counts["mem.l1d_misses"] += sum(c.l1_misses for c in stats.core)
    counts["mem.llc_misses"] += stats.llc_misses
    counts["mem.nvmm_writes"] += stats.nvmm_writes
    counts["core.bbpb_allocations"] += stats.bbpb_allocations
    counts["core.bbpb_drains"] += stats.bbpb_drains
    counts["core.bbpb_stall_cycles"] += stats.total_bbpb_stalls


def _add_batch_counters(counts, batch_counters) -> bool:
    for key in ("private_ops", "shared_ops", "rescans"):
        counts["engine." + key] += batch_counters[key]
    return batch_counters["phases"] > 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from repro import api
    from repro.analysis import batch, experiments
    from repro.check import checker, minimize, mutants
    from repro.core import recovery
    from repro.core.persistency import PersistencyScheme
    from repro.fault import campaign
    from repro.litmus import runner
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.opt import pipeline, verify
    from repro.serve import drill, frontend, kvservice, loadgen
    from repro.sim import coltrace, engine, system
    from repro.workloads import base

    counts = tracer.counts

    # workloads: trace generation and media pre-population.
    def built(args, kwargs, trace):
        counts["workloads.ops_built"] += trace.total_ops()

    tracer.wrap_method(base.Workload, "build", "workloads.build", after=built)
    tracer.wrap_function(base, "make_workload", "workloads.build")
    tracer.wrap_function(base, "seed_media_words", "workloads.build")

    # sim.coltrace: conversions and per-window interpreter prep.
    cols = coltrace.ColumnarTrace
    tracer.wrap_method(cols, "from_program", "coltrace.convert")
    tracer.wrap_method(cols, "to_program", "coltrace.convert")

    def prepped(args, kwargs, result):
        counts["coltrace.prep_ops"] += args[0].total_ops()

    tracer.wrap_method(cols, "engine_prep", "coltrace.prep", after=prepped)

    # sim.engine: one-shot runs, streaming sessions, system construction.
    def ran(args, kwargs, result):
        eng, trace = args[0], args[1]
        if _add_batch_counters(counts, eng.batch_counters):
            counts["engine.batched_cells"] += 1
            counts["engine.batched_ops"] += trace.total_ops()
        _add_run_stats(counts, result.stats)

    def finished(args, kwargs, result):
        stream = args[0]
        counts["engine.stream_ops"] += stream.executed
        if _add_batch_counters(counts, stream.engine.batch_counters):
            counts["engine.stream_batched_sessions"] += 1
            counts["engine.batched_ops"] += stream.executed
        _add_run_stats(counts, result.stats)

    def system_run(args, kwargs):
        if tracer.inside("check.minimize"):
            counts["check.minimize_runs"] += 1

    tracer.wrap_method(system.System, "run", "engine.run", before=system_run)
    tracer.wrap_method(engine.Engine, "run", "engine.run", after=ran)
    tracer.wrap_method(engine.EngineStream, "pump", "engine.pump")
    for attr in ("feed", "advance", "end", "idle"):
        tracer.wrap_method(engine.EngineStream, attr, "engine.stream")
    tracer.wrap_method(engine.EngineStream, "finish", "engine.stream",
                       after=finished)
    tracer.wrap_function(api, "build_system", "system.build")
    tracer.wrap_function(mutants, "build_mutant_system", "system.build")

    # mem and core: per-access hooks (aggregated, not kept).
    for attr in ("load", "store", "flush_block_to_wpq"):
        tracer.wrap_method(MemoryHierarchy, attr, "mem")
    tracer.wrap_hierarchy(PersistencyScheme, SCHEME_HOOKS, "core")

    # analysis.batch: the Fig. 7 driver and the batch runner around cells.
    def cell_start(args, kwargs):
        tracer.scope = fig7_cell(args[0])

    def cell_end(args, kwargs, result):
        tracer.scope = None

    tracer.wrap_function(experiments, "fig7", "batch")
    tracer.wrap_function(experiments, "run_workload", "batch")
    tracer.wrap_function(batch, "run_batch", "batch")
    tracer.wrap_function(batch, "share_specs", "batch")
    tracer.wrap_function(batch, "attach_columnar", "batch")
    tracer.wrap_function(batch, "execute_spec", "batch",
                         before=cell_start, after=cell_end)

    # serve: load generation, KV lowering, the reactor.
    def request_drawn(args, kwargs, request):
        counts["loadgen.requests"] += 1

    def lowered(args, kwargs, ops):
        counts["kvservice.ops_lowered"] += len(ops)

    tracer.wrap_function(loadgen, "iter_requests", "loadgen", generator=True,
                         after=request_drawn)
    tracer.wrap_method(kvservice.KVService, "ops_for", "kvservice.lower",
                       after=lowered)
    tracer.wrap_function(frontend, "run_traffic", "frontend")
    tracer.wrap_function(frontend, "traffic_curve", "frontend")

    # check: counting runs, point replays, oracles, minimization.
    def explored(args, kwargs, result):
        unit = args[0]
        verdicts, total, _sites = result
        bad = sum(1 for v in verdicts if not v.consistent)
        counts["check.points"] += len(verdicts)
        counts["check.pruned"] += sum(1 for v in verdicts if v.pruned)
        counts["check.unique_states"] += len({v.fingerprint for v in verdicts})
        counts["check.replayed_ops"] += sum(v.crash_op for v in verdicts)
        counts["check.schedule_visits"] += total + sum(v.point
                                                       for v in verdicts)
        counts["check.inconsistent_points"] += bad
        if unit.mutant is not None:
            kind = "mutant"
        elif unit.program is not None:
            kind = "payload"
        else:
            kind = "own_build"
        counts["check.inconsistent_points." + kind] += bad
        if tracer.inside("opt.verify"):
            counts["opt.points"] += len(verdicts)

    tracer.wrap_function(checker, "count_micro_points", "check.count")
    tracer.wrap_function(checker, "check_unit_points", "check.point")
    tracer.wrap_function(checker, "explore", "check.point", after=explored)
    for fn in ("durable_fingerprint", "diff_golden", "golden_expected"):
        tracer.wrap_function(checker, fn, "check.oracle")
    for fn in ("check_scheme_contract", "claimed_persists"):
        tracer.wrap_function(recovery, fn, "check.oracle")
    tracer.wrap_hierarchy(base.Workload, ("make_checker",), "check.oracle",
                          wrap_result="check.oracle")
    tracer.wrap_function(minimize, "minimize_counterexample",
                         "check.minimize")

    # litmus, opt, serve.drill, fault: the other crash-replay consumers.
    def litmus_done(args, kwargs, cell):
        counts["litmus.points"] += cell["points"]

    def drilled(args, kwargs, unit):
        counts["drill.points"] += 1 if unit["crashed"] else 0

    def faulted(args, kwargs, unit):
        counts["fault.crash_runs"] += 2  # clean baseline + faulted run

    tracer.wrap_function(runner, "run_cell", "litmus.cell", after=litmus_done)
    tracer.wrap_function(pipeline, "run_pipeline", "opt.pipeline")
    tracer.wrap_function(verify, "audit_pipeline", "opt.audit")
    tracer.wrap_function(verify, "verify_workload_cell", "opt.verify")
    tracer.wrap_function(drill, "execute_drill_unit", "drill.unit",
                         after=drilled)
    tracer.wrap_function(drill, "count_crash_sites", "drill.unit")
    tracer.wrap_function(campaign, "execute_fault_unit", "fault.unit",
                         after=faulted)


def rollup(tracer: Tracer, wall_s: float) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics of one traced repetition, and the roll-up error:
    ``|sum of layer self times + unattributed - wall| / wall``."""
    out: Dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = tracer.self_s.get(span, 0.0)
    for span, metric in CALL_METRICS.items():
        out[metric] = tracer.calls.get(span, 0)
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts.get(metric, 0)
    for workload in FIG7_WORKLOADS:
        for variant in FIG7_VARIANTS:
            cell = f"{workload}.{variant}"
            out[cell_metric(workload, variant)] = tracer.scoped_self_s.get(
                (cell, "engine.run"), 0.0)
    counts = tracer.counts
    batched_ops = counts.get("engine.batched_ops", 0)
    out["coltrace.prep_ops_per_executed_op"] = (
        counts.get("coltrace.prep_ops", 0) / batched_ops if batched_ops else 0.0)
    pumps = tracer.calls.get("engine.pump", 0)
    out["engine.ops_per_pump"] = (
        counts.get("engine.stream_ops", 0) / pumps if pumps else 0.0)
    points = counts.get("check.points", 0)
    out["check.pruned_fraction"] = (
        counts.get("check.pruned", 0) / points if points else 0.0)
    unknown = set(tracer.self_s) - set(SELF_TIME_METRICS) - {ROOT}
    if unknown:
        raise ValueError(f"spans without a layer metric: {sorted(unknown)}")
    unattributed = tracer.self_s.get(ROOT, 0.0)
    out["unattributed_s"] = unattributed
    out["trace.wall_s"] = wall_s
    layer_sum = sum(tracer.self_s.get(span, 0.0) for span in SELF_TIME_METRICS)
    error = abs(layer_sum + unattributed - wall_s) / wall_s if wall_s else 0.0
    return out, error
