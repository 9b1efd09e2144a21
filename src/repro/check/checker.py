"""Exhaustive crash-state exploration with differential oracles.

The model checker turns the crash-schedule hooks
(:mod:`repro.check.schedule`) into a systematic search through the
crash-exploration kernel (:mod:`repro.check.kernel`): a *counting run*
executes a workload once with an unbounded schedule to learn how many
micro-step crash points ``T`` the run reaches, then a *master run* walks
the trace once more and, at every point ``k`` in ``1..T``, reads off the
durable image a crash at ``k`` would leave (a fresh system replayed to
``stop_at=k`` is the fallback and the reference).  Determinism of the
simulator guarantees visit ``k`` is the same machine state either way, so
the enumeration is exhaustive over the modelled micro-steps (mid-drain,
the L1D-visible/bbPB-allocated window, the coherence forced-drain
channel, WPQ acceptance, and every op boundary).

Each recovered durable image is checked against three oracles:

1. the scheme's declared contract (:func:`repro.core.recovery.
   check_scheme_contract`) over the persists the scheme *claims* durable
   (:func:`repro.core.recovery.claimed_persists` — strict-persistency
   schemes claim only WPQ-accepted stores);
2. for exact-contract schemes, a *golden differential*: the durable image
   must equal, byte for byte over every written offset, the image an
   idealised eADR machine would leave (initial seeds plus an in-order
   replay of the claimed persists);
3. the workload's structural invariant checker, when it defines one.

State-space pruning fingerprints the durable state (media image plus the
claimed/committed persist sets).  A verdict is a pure function of that
fingerprint, so two crash points with equal fingerprints must agree —
the second skips the oracles and reuses the verdict.  Pruned and
unpruned runs therefore report identical per-point verdicts; the smoke
check (:func:`smoke_check`) asserts exactly that, and also that a
deliberately broken scheme mutant (:mod:`repro.check.mutants`) is caught.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, astuple, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.kernel import (
    CrashRun,
    KernelStats,
    PointProfile,
    count_points,
    crash_runs,
)
from repro.check.schedule import CrashSchedule
from repro.core.recovery import (
    CONTRACT_DOCS,
    check_scheme_contract,
    claimed_persists,
)
from repro.core.registry import CONTRACT_EPOCH, DEFAULT_SCHEME, scheme_info
from repro.mem.block import (
    BlockData,
    block_address,
    block_digest_bytes,
    block_offset,
)
from repro.obs.bus import NULL_BUS
from repro.obs.events import CheckStateExplored, CheckViolation

#: Versioned schema identifier of the model-checker report / artifact.
CHECK_SCHEMA = "repro.crashcheck/v1"

#: Crash points handed to one batch worker.  Small enough that per-shard
#: timeouts stay meaningful, large enough to amortise trace construction.
POINTS_PER_SHARD = 64

#: Violations recorded per point / per report before truncation.
MAX_VIOLATIONS_PER_POINT = 8
MAX_VIOLATIONS_PER_REPORT = 32


# ----------------------------------------------------------------------
# Check units
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckUnit:
    """One (scheme, workload) model-checking job.

    ``scheme`` is always the *canonical* scheme name (a member of
    :data:`repro.api.SCHEMES`) — when ``mutant`` names a broken variant
    from :data:`repro.check.mutants.MUTANTS`, ``scheme`` must be the
    mutant's base scheme so contract lookup still applies the contract
    the mutant pretends to honour.  ``sites`` restricts the schedule to a
    subset of :data:`repro.check.schedule.ALL_SITES`; ``max_points``
    caps exploration by seeded sampling (``sample_seed``) instead of
    enumerating all of ``1..T``.  ``prune`` toggles fingerprint reuse.
    """

    scheme: str
    workload: str = "hashmap"
    spec: Any = None          # Optional[WorkloadSpec]; None = default
    entries: int = 8
    mutant: Optional[str] = None
    prune: bool = True
    sites: Optional[Tuple[str, ...]] = None
    max_points: Optional[int] = None
    sample_seed: int = 0
    config: Any = None        # Optional[SystemConfig]; None = default_sim_config
    #: Optional IR-program payload (:meth:`repro.opt.ir.Program.to_payload`
    #: — a plain dict, so the unit stays picklable for batch workers).
    #: When set, the unit executes this program instead of the workload's
    #: own build; ``workload`` still names the media seeds and structural
    #: checker that apply.  The optimizer uses this to run a *rewritten*
    #: form of the workload's program against the same oracles the naive
    #: form faces.
    program: Any = None

    def describe(self) -> str:
        tag = f"{self.mutant} (as {self.scheme})" if self.mutant else self.scheme
        return f"{self.workload} under {tag}"


@dataclass(frozen=True)
class PointVerdict:
    """The outcome of crashing at micro-step visit ``point``."""

    point: int
    site: str
    crash_op: int
    cycle: int
    consistent: bool
    violations: Tuple[str, ...]
    fingerprint: str
    pruned: bool
    #: Read off the kernel's master pass (else replayed on a fresh
    #: system, see :mod:`repro.check.kernel`).
    virtual: bool = False
    #: Why the kernel replayed this unit's points instead.
    fallback: Optional[str] = None


class _UnitContext:
    """Per-worker build of everything a unit's runs share: the resolved
    config, the workload's trace, its initial persistent words, and the
    structural checker."""

    def __init__(self, unit: CheckUnit) -> None:
        from repro.analysis.experiments import default_sim_config
        from repro.workloads.base import WorkloadSpec, make_workload

        self.unit = unit
        self.config = unit.config or default_sim_config()
        self.spec = unit.spec or WorkloadSpec()
        self.workload = make_workload(unit.workload, self.config.mem, self.spec)
        if unit.program is not None:
            from repro.opt.ir import Program

            self.trace = Program.from_payload(unit.program).to_trace()
        else:
            self.trace = self.workload.build()
        self.seed_words: Dict[int, int] = dict(self.workload.initial_words)
        self.structural = self.workload.make_checker()

    def build_system(self, schedule: CrashSchedule):
        from repro.api import RunOptions, build_system

        unit = self.unit
        if unit.mutant is not None:
            from repro.check.mutants import build_mutant_system

            system = build_mutant_system(
                unit.mutant, entries=unit.entries, config=self.config,
                crash_schedule=schedule,
            )
        else:
            system = build_system(
                unit.scheme, entries=unit.entries, config=self.config,
                options=RunOptions(crash_schedule=schedule),
            )
        self.workload.seed_media(system.nvmm_media)
        return system


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def golden_expected(
    seed_words: Dict[int, int],
    persists: Sequence,
    block_size: int = 64,
) -> Dict[int, BlockData]:
    """The durable image an idealised eADR machine leaves: the workload's
    pre-seeded words overlaid with an in-order replay of ``persists``."""
    image: Dict[int, BlockData] = {}
    for addr, value in seed_words.items():
        baddr = block_address(addr, block_size)
        image.setdefault(baddr, BlockData()).write_word(
            block_offset(addr, block_size), value, 8
        )
    for rec in persists:
        baddr = block_address(rec.addr, block_size)
        image.setdefault(baddr, BlockData()).write_word(
            block_offset(rec.addr, block_size), rec.value, rec.size
        )
    return image


def diff_golden(
    media,
    expected: Dict[int, BlockData],
    is_persistent: Callable[[int], bool],
    block_size: int = 64,
    max_violations: int = MAX_VIOLATIONS_PER_POINT,
) -> List[str]:
    """Byte-for-byte differential between the actual durable image and the
    golden expectation, restricted to the persistent region.

    Both directions are checked over the union of written offsets: a
    missing byte (claimed durable, reads as unwritten 0) and an extra byte
    (durable but never claimed) are both mismatches.  One violation is
    reported per differing block to keep reports readable.
    """
    violations: List[str] = []
    blocks = set(expected)
    blocks.update(b for b in media.written_blocks() if is_persistent(b))
    for baddr in sorted(blocks):
        if not is_persistent(baddr):
            continue
        exp = expected.get(baddr)
        act = media.peek_block(baddr)
        # Unwritten bytes read as 0 on both sides, so the lowest differing
        # byte of the packed values is the first mismatching offset.
        diff = act.val ^ (exp.val if exp is not None else 0)
        if diff:
            off = ((diff & -diff).bit_length() - 1) >> 3
            want = exp.read(off) if exp is not None else 0
            violations.append(
                f"golden mismatch at 0x{baddr + off:x}: eADR-golden "
                f"byte 0x{want:02x}, durable byte 0x{act.read(off):02x}"
            )  # one per block
        if len(violations) >= max_violations:
            break
    return violations


def durable_fingerprint(scheme: str, media, committed, performed) -> str:
    """SHA-256 over everything the verdict depends on: the scheme name,
    the durable media image, and both persist logs.  Equal fingerprints
    imply equal verdicts (the pruning soundness invariant)."""
    h = hashlib.sha256()
    h.update(scheme.encode())
    for baddr in sorted(media.written_blocks()):
        h.update(b"B")
        h.update(baddr.to_bytes(8, "little"))
        h.update(block_digest_bytes(media.peek_block(baddr)))
    for tag, records in ((b"|c", committed), (b"|p", performed)):
        h.update(tag)
        for rec in records:
            h.update(
                repr((rec.core, rec.addr, rec.size, rec.value, rec.seq)).encode()
            )
    return h.hexdigest()


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------

def _profile(ctx: _UnitContext) -> PointProfile:
    return count_points(ctx.build_system, ctx.trace, ctx.unit.sites)


def count_micro_points(unit: CheckUnit) -> Tuple[int, Dict[str, int]]:
    """Counting run: execute the unit's workload once under an unbounded
    schedule and return ``(total visits, per-site visit counts)``."""
    profile = _profile(_UnitContext(unit))
    return profile.total, profile.site_counts


def _verdict(
    unit: CheckUnit,
    ctx: _UnitContext,
    run: CrashRun,
    cache: Optional[Dict[str, Tuple[bool, Tuple[str, ...]]]],
    fallback: Optional[str],
) -> PointVerdict:
    """Judge one crashed machine against the unit's oracles."""
    system, result = run.system, run.result
    point = result.crash_point
    media = system.nvmm_media
    claimed = claimed_persists(unit.scheme, result)
    fp = durable_fingerprint(
        unit.scheme, media, result.committed_persists, result.performed_persists
    )

    def verdict(consistent: bool, violations: Tuple[str, ...],
                pruned: bool) -> PointVerdict:
        return PointVerdict(
            run.point, point.site, result.crash_op or 0, point.cycle,
            consistent, violations, fp, pruned=pruned, virtual=run.virtual,
            fallback=None if run.virtual else fallback,
        )

    hit = cache.get(fp) if cache is not None else None
    if hit is not None:
        return verdict(*hit, pruned=True)

    violations: List[str] = []
    info = scheme_info(unit.scheme)
    contract = check_scheme_contract(unit.scheme, media, claimed)
    violations.extend(contract.violations[:MAX_VIOLATIONS_PER_POINT])
    if info.exact_durability:
        expected = golden_expected(ctx.seed_words, claimed)
        violations.extend(
            diff_golden(media, expected, ctx.config.mem.is_persistent)
        )
    if ctx.structural is not None and info.contract != CONTRACT_EPOCH:
        # Structural workload invariants (e.g. "a published pointer's
        # target node is initialised") follow from per-core persist order,
        # which prefix-or-stronger contracts promise.  Epoch-contract
        # schemes legitimately break them mid-epoch, so the invariant is
        # not an oracle for them.
        ok, struct_violations = ctx.structural(system, result)
        if not ok:
            violations.extend(struct_violations[:MAX_VIOLATIONS_PER_POINT])

    judged = verdict(not violations,
                     tuple(violations[:MAX_VIOLATIONS_PER_POINT]), pruned=False)
    if cache is not None:
        cache[fp] = (judged.consistent, judged.violations)
    return judged


def _check_points(
    unit: CheckUnit,
    ctx: _UnitContext,
    points: Sequence[int],
) -> List[PointVerdict]:
    cache: Optional[Dict] = {} if unit.prune else None
    stats = KernelStats()
    return [
        _verdict(unit, ctx, run, cache, stats.fallback)
        for run in crash_runs(ctx.build_system, ctx.trace, points,
                              unit.sites, stats)
    ]


def check_unit_points(unit: CheckUnit, points: Sequence[int]) -> List[PointVerdict]:
    """Batch worker: check one shard of crash points.  Module-level and
    picklable so :func:`repro.analysis.batch.run_tasks` can fan shards
    across processes.  The fingerprint cache is per-shard: parallel runs
    may prune less than a serial run, but verdicts are identical."""
    ctx = _UnitContext(unit)
    return _check_points(unit, ctx, points)


def explore(unit: CheckUnit) -> Tuple[List[PointVerdict], int, Dict[str, int]]:
    """Serial in-process exploration of every reachable crash point.
    Returns ``(verdicts, total_points, site_counts)`` — the test-friendly
    core that :func:`run_check_unit` wraps with sharding and reporting."""
    ctx = _UnitContext(unit)
    profile = _profile(ctx)
    points = _select_points(unit, profile.total)
    verdicts = _check_points(unit, ctx, points)
    return verdicts, profile.total, profile.site_counts


def _select_points(unit: CheckUnit, total: int) -> List[int]:
    points = list(range(1, total + 1))
    if unit.max_points is not None and len(points) > unit.max_points:
        rng = random.Random(unit.sample_seed)
        points = sorted(rng.sample(points, unit.max_points))
    return points


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def _unit_payload(unit: CheckUnit) -> Dict[str, Any]:
    return {
        "scheme": unit.scheme,
        "mutant": unit.mutant,
        "workload": unit.workload,
        "spec": list(astuple(unit.spec)) if unit.spec is not None else None,
        "entries": unit.entries,
        "prune": unit.prune,
        "sites": list(unit.sites) if unit.sites is not None else None,
        "max_points": unit.max_points,
        "sample_seed": unit.sample_seed,
        # Embedded IR programs are reported by name, not payload — the
        # full op list belongs in the optreport artifact, not here.
        "program": unit.program.get("name") if unit.program else None,
    }


def build_report(
    unit: CheckUnit,
    verdicts: Sequence[PointVerdict],
    total_points: int,
    site_counts: Dict[str, int],
) -> Dict[str, Any]:
    """Fold per-point verdicts into the ``repro.crashcheck/v1`` report."""
    bad = [v for v in verdicts if not v.consistent]
    contract = scheme_info(unit.scheme).contract
    return {
        "schema": CHECK_SCHEMA,
        "unit": _unit_payload(unit),
        "contract": contract,
        "contract_doc": CONTRACT_DOCS[contract],
        "total_points": total_points,
        "checked_points": len(verdicts),
        "site_counts": dict(site_counts),
        "explored": sum(1 for v in verdicts if not v.pruned),
        "pruned": sum(1 for v in verdicts if v.pruned),
        "unique_states": len({v.fingerprint for v in verdicts}),
        "points_virtual": sum(1 for v in verdicts if v.virtual),
        "points_replayed": sum(1 for v in verdicts if not v.virtual),
        "fallback": next((v.fallback for v in verdicts if v.fallback), None),
        "num_violations": len(bad),
        "consistent": not bad,
        "violations": [asdict(v) for v in bad[:MAX_VIOLATIONS_PER_REPORT]],
    }


def run_check_unit(
    unit: CheckUnit,
    jobs: Optional[int] = None,
    policy=None,
    progress=None,
) -> Tuple[Dict[str, Any], List[PointVerdict]]:
    """Full model-checking run for one unit: count, shard, fan out through
    the hardened batch runner, and fold into a report.  Returns
    ``(report, verdicts)``; verdicts come back in point order."""
    from repro.analysis.batch import run_tasks

    total, site_counts = count_micro_points(unit)
    points = _select_points(unit, total)
    shards = [
        points[i:i + POINTS_PER_SHARD]
        for i in range(0, len(points), POINTS_PER_SHARD)
    ]
    tasks = [(check_unit_points, (unit, shard), {}) for shard in shards]
    shard_results = run_tasks(tasks, jobs=jobs, progress=progress, policy=policy)
    verdicts: List[PointVerdict] = []
    for shard in shard_results:
        if isinstance(shard, list):
            verdicts.extend(shard)
    return build_report(unit, verdicts, total, site_counts), verdicts


def publish_report(report: Dict[str, Any], bus=NULL_BUS, registry=None):
    """Mirror a report's counts onto the observability layer: typed
    events on ``bus`` and counters/gauges in ``registry`` (created when
    not supplied).  Returns the registry."""
    from repro.obs.metrics import MetricsRegistry

    reg = registry if registry is not None else MetricsRegistry()
    reg.counter(
        "check.points_explored",
        "crash points whose verdict was computed fresh",
    ).inc(report["explored"])
    reg.counter(
        "check.points_pruned",
        "crash points whose verdict was reused from an equal fingerprint",
    ).inc(report["pruned"])
    reg.counter(
        "check.points_virtual",
        "crash points read off the kernel's master pass",
    ).inc(report["points_virtual"])
    reg.counter(
        "check.points_replayed",
        "crash points replayed on a freshly built system",
    ).inc(report["points_replayed"])
    if report["fallback"]:
        reg.counter_family(
            "check.fallback",
            "units whose crash images the kernel could not read off a "
            "master pass, by reason (their points were replayed)",
            label="reason",
        ).labels(report["fallback"]).inc()
    reg.counter(
        "check.violations", "crash points violating an oracle",
    ).inc(report["num_violations"])
    reg.gauge(
        "check.total_points", "reachable micro-step crash points",
    ).set(report["total_points"])
    if bus.enabled:
        unit = report["unit"]
        bus.emit(CheckStateExplored(
            cycle=0,
            scheme=unit["mutant"] or unit["scheme"],
            workload=unit["workload"],
            total_points=report["total_points"],
            explored=report["explored"],
            pruned=report["pruned"],
            unique_states=report["unique_states"],
        ))
        for v in report["violations"]:
            bus.emit(CheckViolation(
                cycle=v["cycle"],
                scheme=unit["mutant"] or unit["scheme"],
                workload=unit["workload"],
                point=v["point"],
                site=v["site"],
                crash_op=v["crash_op"],
                violation=v["violations"][0] if v["violations"] else "",
            ))
    return reg


# ----------------------------------------------------------------------
# Smoke check (CI gate)
# ----------------------------------------------------------------------

def _smoke_spec():
    from repro.workloads.base import WorkloadSpec

    return WorkloadSpec(threads=2, ops=6, elements=128, seed=11)


def smoke_check(jobs: Optional[int] = None, progress=None) -> Dict[str, Any]:
    """The CI gate: exhaustively check one small workload under every
    shipped scheme (zero violations expected), assert the pruned run of
    ``bbb`` reports the same per-point verdicts as the unpruned run, and
    assert the broken mutant is caught and minimizes to a tiny repro.

    Returns ``{"ok", "failures", "reports"}``; ``ok`` is False on any
    violation, prune/exhaustive mismatch, or missed mutant.
    """
    from repro.api import SCHEMES

    spec = _smoke_spec()
    failures: List[str] = []
    reports: List[Dict[str, Any]] = []

    for scheme in SCHEMES:
        unit = CheckUnit(scheme=scheme, spec=spec)
        report, _ = run_check_unit(unit, jobs=jobs, progress=progress)
        reports.append(report)
        if report["num_violations"]:
            first = report["violations"][0]["violations"][0]
            failures.append(
                f"{unit.describe()}: {report['num_violations']} of "
                f"{report['checked_points']} crash points inconsistent "
                f"(first: {first})"
            )

    pruned_unit = CheckUnit(scheme=DEFAULT_SCHEME, spec=spec, prune=True)
    plain_unit = replace(pruned_unit, prune=False)
    pruned_v, _, _ = explore(pruned_unit)
    plain_v, _, _ = explore(plain_unit)
    if [(v.point, v.consistent, v.violations) for v in pruned_v] != [
        (v.point, v.consistent, v.violations) for v in plain_v
    ]:
        failures.append(
            f"{DEFAULT_SCHEME}: pruned run verdicts differ from exhaustive run"
        )

    mutant_unit = CheckUnit(scheme=DEFAULT_SCHEME, mutant="bbb-delayed-alloc",
                            spec=spec)
    mutant_report, mutant_verdicts = run_check_unit(
        mutant_unit, jobs=jobs, progress=progress
    )
    reports.append(mutant_report)
    if not mutant_report["num_violations"]:
        failures.append("mutant bbb-delayed-alloc: no violation found")
    else:
        from repro.check.minimize import minimize_counterexample

        first_bad = next(v for v in mutant_verdicts if not v.consistent)
        cex = minimize_counterexample(mutant_unit, first_bad)
        if cex.num_ops > 6:
            failures.append(
                f"mutant bbb-delayed-alloc: minimized repro has "
                f"{cex.num_ops} ops (> 6)"
            )

    return {"ok": not failures, "failures": failures, "reports": reports}
