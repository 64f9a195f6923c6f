#!/usr/bin/env python3
"""PGAS example: distributed token counting with one-sided puts.

Demonstrates the paper's PGAS claim (Section IV.A): "TCCluster is
compatible with PGAS implementations like UPC over GASNet" -- relaxed
one-sided puts for data movement, sfence for ordering, active-message
gets (the writes-only fabric cannot load remotely), and software barriers
for global synchronization.

Each rank owns a shard of a global counter table living in the symmetric
segment.  Ranks hash local tokens and put() per-owner count deltas into
the owners' inboxes, a fence and a barrier publish them, the owners fold
them in, and finally every rank reads the global table with get().

Run:  python examples/pgas_wordcount.py
"""

import struct

from repro import TCClusterSystem
from repro.middleware import GasRuntime
from repro.util.units import fmt_time_ns

TOKENS = {
    0: ["ht", "link", "node", "ht", "dram", "link", "ht"],
    1: ["node", "node", "dram", "ht", "probe"],
    2: ["link", "link", "probe", "dram", "ht", "node"],
    3: ["dram", "ht", "probe", "probe", "link"],
}
VOCAB = ["ht", "link", "node", "dram", "probe"]
SLOT = 8  # one u64 counter per word


def owner_of(word: str, nranks: int) -> int:
    return sum(word.encode()) % nranks


def worker(gas: GasRuntime, results: dict):
    me, n = gas.rank, gas.size
    # Phase 1: count local tokens per owner.
    deltas = {}
    for tok in TOKENS[me]:
        deltas.setdefault(tok, 0)
        deltas[tok] += 1

    # Phase 2: push deltas into each owner's inbox region (one-sided).
    # Inbox layout: per sender, a (word_index, count) u64 pair array at
    # offset 0x1000 + sender * 0x100.
    for word, count in deltas.items():
        dst = owner_of(word, n)
        idx = VOCAB.index(word)
        off = 0x1000 + me * 0x100 + idx * 16
        payload = struct.pack("<QQ", idx + 1, count)
        if dst == me:
            yield from gas.put(me, off, payload)
        else:
            yield from gas.put(dst, off, payload)
    yield from gas.fence()
    yield from gas.barrier()

    # Phase 3: owners fold their inboxes into the global table at 0x0.
    for word in VOCAB:
        if owner_of(word, n) != me:
            continue
        idx = VOCAB.index(word)
        total = 0
        for sender in range(n):
            raw = yield from gas.local_read(0x1000 + sender * 0x100 + idx * 16, 16)
            stored_idx, count = struct.unpack("<QQ", raw)
            if stored_idx == idx + 1:
                total += count
        yield from gas.put(me, idx * SLOT, struct.pack("<Q", total))
    yield from gas.fence()
    yield from gas.barrier()

    # Phase 4: everyone assembles the global view with get().
    view = {}
    for word in VOCAB:
        idx = VOCAB.index(word)
        raw = yield from gas.get(owner_of(word, n), idx * SLOT, 8)
        view[word] = struct.unpack("<Q", raw)[0]
    results[me] = view
    yield from gas.barrier()


def main() -> None:
    print("Booting the two-board prototype for a PGAS word count...")
    system = TCClusterSystem.two_board_prototype().boot()
    cluster = system.cluster
    gases = [GasRuntime(cluster.library(r)) for r in range(cluster.nranks)]
    for g in gases:
        g.start()

    results: dict = {}
    start = system.sim.now
    procs = [system.process(worker, g, results) for g in gases]
    system.run_until(system.sim.all_of(procs))
    for g in gases:
        g.stop()

    expected = {}
    for toks in TOKENS.values():
        for t in toks:
            expected[t] = expected.get(t, 0) + 1
    print(f"  completed in {fmt_time_ns(system.sim.now - start)} (virtual)")
    print(f"  global counts (rank 0's view): {results[0]}")
    assert all(results[r] == expected for r in results), "views must agree"
    print("  all ranks agree with the expected counts:", expected)


if __name__ == "__main__":
    main()
