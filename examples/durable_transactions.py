#!/usr/bin/env python3
"""Failure-atomic transactions with zero fences — the end-to-end payoff.

The paper's closing argument is that BBB's persist ordering "provides a
property that can be relied on by higher level primitives such as failure
atomic regions".  This example builds that primitive: an undo-log
transaction layer (`repro.core.txn`) running a bank-transfer workload, and
crash-tests it at every program point:

* volatile caches (ADR only), plain code    -> money vanishes at some
  crash points (a debit persists via cache eviction while the undo log is
  still cached);
* BBB, the *same plain code*                -> every crash point recovers
  to a balanced state, no flushes, no fences;
* ADR only + flush/fence after every step   -> also safe, but at the cost
  Fig. 3 shows: triple the code and a stall per barrier.

Run:  python examples/durable_transactions.py
"""

import random

from repro import RunOptions, SystemConfig, build_system
from repro.check.schedule import SITE_OP, CrashSchedule
from repro.core.txn import TransactionContext, recover
from repro.mem.block import BlockData, block_address, block_offset
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.alloc import PersistentHeap

ACCOUNTS = 8
INITIAL = 1000


def build_program(config, barriers, with_pressure):
    pheap = PersistentHeap(config.mem)
    ctx = TransactionContext(pheap, barriers=barriers)
    accounts = [ctx.alloc_word(INITIAL) for _ in range(ACCOUNTS)]
    rng = random.Random(11)
    ops = []
    for i in range(6):
        src, dst = rng.sample(range(ACCOUNTS), 2)
        amount = rng.randrange(1, 200)
        ops.extend(ctx.begin())
        ops.extend(ctx.txn_store(accounts[src], ctx.shadow[accounts[src]] - amount))
        if with_pressure and i % 2 == 0:
            # Cache pressure mid-transaction: evict the account block.
            block = config.block_size
            num_sets = config.llc.num_sets
            target_set = (accounts[src] // block) % num_sets
            candidate = config.mem.persistent_base // block
            candidate += (target_set - candidate) % num_sets
            emitted = 0
            while emitted < config.llc.assoc:
                addr = candidate * block
                if addr != (accounts[src] // block) * block:
                    ops.append(TraceOp.load(addr))
                    emitted += 1
                candidate += num_sets
        ops.extend(ctx.txn_store(accounts[dst], ctx.shadow[accounts[dst]] + amount))
        ops.extend(ctx.commit())
    return ctx, accounts, ProgramTrace([ThreadTrace(ops)])


def seed(system, words):
    by_block = {}
    for addr, value in words.items():
        baddr = block_address(addr, 64)
        by_block.setdefault(baddr, BlockData()).write_word(
            block_offset(addr, 64), value, 8
        )
    for baddr, data in by_block.items():
        system.nvmm_media.write_block(baddr, data)


def crash_sweep(config, scheme, barriers):
    ctx, accounts, trace = build_program(config, barriers, with_pressure=True)
    words = ctx.initial_words()
    bad = []
    total_ops = trace.total_ops()
    for crash_at in range(1, total_ops + 1):
        schedule = CrashSchedule(stop_at=crash_at, sites=(SITE_OP,))
        system = build_system(scheme, config=config,
                              options=RunOptions(crash_schedule=schedule))
        seed(system, words)
        system.run(trace)
        result = recover(system.nvmm_media, ctx.layout, accounts)
        total = sum(result.state.values())
        if total != ACCOUNTS * INITIAL:
            bad.append((crash_at, total))
    return total_ops, bad


def main() -> None:
    config = SystemConfig(num_cores=2).scaled_for_testing()
    expected = ACCOUNTS * INITIAL

    print(f"bank invariant: total balance must always recover to {expected}\n")

    total, bad = crash_sweep(config, "none", barriers=False)
    print(f"ADR only, plain undo-log code: {len(bad)}/{total} crash points "
          f"violate the invariant")
    for crash_at, got in bad[:3]:
        print(f"  crash after op {crash_at}: recovered total = {got} "
              f"({got - expected:+d})")

    total, bad = crash_sweep(config, "bbb", barriers=False)
    print(f"\nBBB, the same plain code:     {len(bad)}/{total} crash points "
          f"violate the invariant")

    total, bad = crash_sweep(config, "none", barriers=True)
    print(f"ADR only + flush/fence pairs:  {len(bad)}/{total} crash points "
          f"violate the invariant (but every step pays a barrier)")

    print(
        "\nWith BBB the transaction library needs no persistency annotations\n"
        "at all: program-order persists make the undo-log protocol correct\n"
        "by construction — 'simplifying persistent programming'."
    )


if __name__ == "__main__":
    main()
