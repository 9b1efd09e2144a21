"""Measured crash-drain footprints (cross-checking Section V-A's inputs).

The analytical Tables VII-IX assume (a) an average of 44.9% of cache
blocks are dirty at crash time for eADR [31], and (b) full bbPBs for BBB
(its worst case).  This benchmark crashes the simulator mid-workload and
measures what the battery actually had to move — validating that eADR's
obligation scales with cache dirtiness while BBB's is bounded by
``cores x entries`` regardless of workload.
"""

from repro.analysis.experiments import default_sim_config
from repro.analysis.tables import render_table
from repro.api import RunOptions, build_system
from repro.check.schedule import SITE_OP, CrashSchedule
from repro.workloads.base import registry

WORKLOADS = ("swapNC", "hashmap", "rtree")


def test_crash_drain_footprint(benchmark, report, sim_config, sweep_spec):
    def sweep():
        rows = []
        for name in WORKLOADS:
            trace = registry(sim_config.mem, sweep_spec)[name].build()
            crash_at = trace.total_ops() // 2
            crash = RunOptions(crash_schedule=CrashSchedule(
                stop_at=crash_at, sites=(SITE_OP,)))

            e_sys = build_system("eadr", config=sim_config,
                                 options=crash)
            e_res = e_sys.run(trace)

            b_sys = build_system("bbb", entries=32, config=sim_config,
                                 options=crash)
            b_res = b_sys.run(trace)

            bound = sim_config.num_cores * 32
            rows.append(
                (
                    name,
                    e_res.drain_report.cache_blocks,
                    b_res.drain_report.bbpb_blocks,
                    bound,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = render_table(
        ["Workload", "eADR blocks drained", "BBB blocks drained", "BBB bound"],
        rows,
        title="Measured crash-drain footprint (mid-workload crash)",
    )
    report(table)

    for name, eadr_blocks, bbb_blocks, bound in rows:
        # BBB's drain is bounded by design; eADR's scales with the dirty
        # working set and dwarfs it.
        assert bbb_blocks <= bound, name
        assert eadr_blocks > bbb_blocks, name
