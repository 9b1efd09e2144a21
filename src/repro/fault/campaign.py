"""Seeded fault-injection campaigns: (scheme x workload x fault plan) grids.

A campaign is the robustness counterpart of the paper's performance grids:
for every combination it runs the *same* trace twice to the same crash
point — once clean, once under a :class:`~repro.fault.plan.FaultPlan` —
checks both durable images against the scheme's consistency contract
(:func:`repro.core.recovery.check_scheme_contract`), and classifies the
faulted run with :func:`repro.core.recovery.classify_outcome`:

* ``consistent`` — the fault was absorbed (e.g. a dropped forced-drain
  message: the entry stays battery-backed in the bbPB and drains later);
* ``detected-inconsistent`` — state was lost but a modelled hardware
  channel (ECC, parity, brown-out, machine check) flagged it;
* ``silent-corruption`` — state was lost and nothing noticed (only
  reachable when a plan disables a detection channel);
* ``baseline-inconsistent`` — the clean run already violates the contract
  (``none``/``bep`` mid-epoch), so the faulted failure is uninformative.

The headline claim the campaign demonstrates: under the default detection
channels, **battery-domain faults** (charge exhaustion mid-drain, dropped
or delayed forced-drain messages, bbPB entry corruption) never classify as
silent corruption — BBB's battery domain fails loudly or not at all.

Campaigns are deterministic in their seed (plan generation, crash-point
choice and per-plan injector RNGs all derive from it), fan out through the
hardened batch runner, and emit a versioned JSON report
(``repro.faultcampaign/v1``) written atomically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.batch import BatchPolicy, Progress, run_tasks
from repro.check.schedule import SITE_OP, CrashSchedule
from repro.core.recovery import (
    CONTRACT_DOCS,
    Outcome,
    check_scheme_contract,
    classify_outcome,
)
from repro.core.registry import scheme_info
from repro.fault.injector import NULL_INJECTOR, FaultInjector
from repro.fault.plan import (
    BATTERY_DOMAIN_SITES,
    FaultPlan,
    FaultSpec,
    SITE_BATTERY,
    SITE_BBPB_ENTRY,
    SITE_FORCED_DRAIN,
    SITE_NVMM_WRITE,
    random_plan,
)
from repro.ioutil import atomic_write_json
from repro.workloads.base import WorkloadSpec, build_cached, seed_media_words

__all__ = [
    "CAMPAIGN_SCHEMA",
    "FaultUnit",
    "canonical_plans",
    "execute_fault_unit",
    "run_campaign",
    "smoke_campaign",
    "write_report",
]

#: Version tag of the campaign report format.
CAMPAIGN_SCHEMA = "repro.faultcampaign/v1"

#: Embedded in every report so the file is self-describing.
SCHEMA_DOC = (
    "repro.faultcampaign/v1: one fault-injection campaign.  'units' holds "
    "one record per (scheme, workload, plan) cell — each ran twice to the "
    "same op-boundary crash point (clean baseline, then faulted), was "
    "checked against the scheme's consistency contract (the 'contract' "
    "field names it; 'contracts' maps every campaigned scheme to its "
    "contract name and description), and was classified into 'outcome' "
    "(consistent / detected-inconsistent / silent-corruption / "
    "baseline-inconsistent).  'summary' counts outcomes; "
    "'battery_domain' counts units whose plan touches only the battery "
    "domain and how many of those were silent."
)

#: Workloads a smoke campaign exercises (fast, behaviourally distinct:
#: pointer-chasing persistent structure, open hashing, non-cached swaps).
SMOKE_WORKLOADS = ("hashmap", "ctree", "swapNC")


@dataclass(frozen=True)
class FaultUnit:
    """One campaign cell: plain picklable data, resolved worker-side."""

    scheme: str
    workload: str
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    crash_at: int = 1
    plan: FaultPlan = field(default_factory=FaultPlan)
    entries: int = 8


def canonical_plans() -> List[FaultPlan]:
    """One hand-written plan per (site, fault) with the default detection
    channels on — the fixed backbone every campaign includes."""
    return [
        FaultPlan(
            faults=(FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                              params=(("blocks", 2),)),),
            seed=101, label="battery-exhaust-after-2",
        ),
        FaultPlan(
            faults=(FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                              params=(("fraction", 0.5),)),),
            seed=102, label="battery-exhaust-half",
        ),
        FaultPlan(
            faults=(FaultSpec(site=SITE_FORCED_DRAIN, fault="drop",
                              count=0),),
            seed=103, label="forced-drain-drop-all",
        ),
        FaultPlan(
            faults=(FaultSpec(site=SITE_FORCED_DRAIN, fault="delay",
                              params=(("cycles", 200),)),),
            seed=104, label="forced-drain-delay-200",
        ),
        FaultPlan(
            faults=(FaultSpec(site=SITE_BBPB_ENTRY, fault="corrupt",
                              params=(("bit", 5),)),),
            seed=105, label="bbpb-corrupt-bit5",
        ),
        FaultPlan(
            faults=(FaultSpec(site=SITE_NVMM_WRITE, fault="torn",
                              params=(("keep_bytes", 16),)),),
            seed=106, label="nvmm-torn-16B",
        ),
        FaultPlan(
            faults=(FaultSpec(site=SITE_NVMM_WRITE, fault="transient",
                              params=(("failures", 5),)),),
            seed=107, label="nvmm-transient-exhausts-retries",
        ),
    ]


def execute_fault_unit(unit: FaultUnit) -> Dict[str, Any]:
    """Run one campaign cell: clean baseline + faulted run to the same
    crash point, contract-check both, classify.  Module-level and
    dict-returning so the batch runner can pickle it both ways."""
    from repro.analysis.experiments import default_sim_config
    from repro.api import RunOptions, build_system

    cfg = default_sim_config()
    trace, initial_words = build_cached(unit.workload, cfg.mem, unit.spec)
    crash_at = min(unit.crash_at, max(1, trace.total_ops() - 1))

    def crashed_run(injector):
        options = RunOptions(
            fault_injector=injector,
            crash_schedule=CrashSchedule(stop_at=crash_at, sites=(SITE_OP,)),
        )
        system = build_system(unit.scheme, entries=unit.entries, config=cfg,
                              options=options)
        seed_media_words(system.nvmm_media, initial_words)
        result = system.run(trace, finalize=False)
        contract = check_scheme_contract(
            unit.scheme, system.nvmm_media, result.committed_persists,
            cfg.block_size,
        )
        return contract

    baseline = crashed_run(NULL_INJECTOR)
    injector = FaultInjector(unit.plan)
    contract = crashed_run(injector)
    outcome = classify_outcome(
        contract,
        detected=injector.detected_count > 0,
        baseline_consistent=baseline.consistent,
    )
    return {
        "scheme": unit.scheme,
        "workload": unit.workload,
        "contract": scheme_info(unit.scheme).contract,
        "crash_at": crash_at,
        "plan": unit.plan.to_dict(),
        "battery_domain": unit.plan.touches_battery_domain_only(),
        "outcome": outcome.value,
        "baseline_consistent": baseline.consistent,
        "contract_consistent": contract.consistent,
        "violations": contract.violations[:3],
        "injected": injector.injected_count,
        "detected": injector.detected_count,
        "injections": [
            {"site": r.site, "fault": r.fault, "addr": r.addr,
             "detail": r.detail}
            for r in injector.injected[:8]
        ],
    }


def run_campaign(
    schemes: Sequence[str],
    workloads: Sequence[str],
    plans: Sequence[FaultPlan],
    spec: Optional[WorkloadSpec] = None,
    *,
    seed: int = 0,
    crashes_per_cell: int = 1,
    entries: int = 8,
    jobs: Optional[int] = None,
    policy: Optional[BatchPolicy] = None,
    progress: Optional[Progress] = None,
) -> Dict[str, Any]:
    """Run the full (scheme x workload x plan x crash point) grid and
    return the ``repro.faultcampaign/v1`` report dict.

    Crash points are drawn per (workload, plan, repeat) from a generator
    seeded by ``seed`` — the same seed reproduces the same campaign
    bit-for-bit regardless of ``jobs``.  The grid fans out through the
    hardened batch runner; pass a :class:`~repro.analysis.batch.BatchPolicy`
    for timeouts/retries/checkpointing.
    """
    from repro.analysis.experiments import default_sim_config

    wspec = spec or WorkloadSpec()
    cfg = default_sim_config()
    rng = random.Random(seed)
    units: List[FaultUnit] = []
    # Crash points are per (workload, plan, repeat) — shared across schemes
    # so every scheme faces the identical crash under the identical plan.
    for workload in workloads:
        trace, _ = build_cached(workload, cfg.mem, wspec)
        total = trace.total_ops()
        for plan in plans:
            for _ in range(crashes_per_cell):
                crash_at = rng.randrange(1, max(2, total))
                for scheme in schemes:
                    units.append(FaultUnit(
                        scheme=scheme, workload=workload, spec=wspec,
                        crash_at=crash_at, plan=plan, entries=entries,
                    ))

    tasks = [(execute_fault_unit, (unit,), {}) for unit in units]
    results = run_tasks(tasks, jobs=jobs, progress=progress, policy=policy)

    summary = {o.value: 0 for o in Outcome}
    battery_units = 0
    battery_silent = 0
    for res in results:
        summary[res["outcome"]] += 1
        if res["battery_domain"]:
            battery_units += 1
            if res["outcome"] == Outcome.SILENT_CORRUPTION.value:
                battery_silent += 1
    return {
        "schema": CAMPAIGN_SCHEMA,
        "schema_doc": SCHEMA_DOC,
        "seed": seed,
        "schemes": list(schemes),
        "contracts": {
            s: {
                "name": scheme_info(s).contract,
                "doc": CONTRACT_DOCS[scheme_info(s).contract],
            }
            for s in schemes
        },
        "workloads": list(workloads),
        "plans": [p.to_dict() for p in plans],
        "workload_spec": {
            "threads": wspec.threads, "ops": wspec.ops,
            "elements": wspec.elements, "seed": wspec.seed,
        },
        "entries": entries,
        "units": results,
        "summary": summary,
        "battery_domain": {
            "units": battery_units,
            "silent_corruption": battery_silent,
        },
    }


def smoke_campaign(
    *,
    seed: int = 7,
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> Dict[str, Any]:
    """Small fixed campaign for CI: every scheme, three workloads, the
    canonical plans plus a few random battery-domain plans, one crash
    point per cell."""
    from repro.api import SCHEMES

    plans = canonical_plans() + [
        random_plan(seed * 1000 + i, sites=BATTERY_DOMAIN_SITES,
                    label=f"random-battery-{i}")
        for i in range(3)
    ]
    spec = WorkloadSpec(threads=2, ops=30, elements=256, seed=11)
    return run_campaign(
        SCHEMES, SMOKE_WORKLOADS, plans, spec,
        seed=seed, jobs=jobs, progress=progress,
        policy=BatchPolicy(retries=1),
    )


def write_report(report: Dict[str, Any], path: str) -> str:
    """Atomically write a campaign report as JSON."""
    return atomic_write_json(path, report)
