#!/usr/bin/env python
"""Wall-clock (host-time) benchmark of the simulator hot path.

Unlike the rest of ``benchmarks/`` -- which reproduces the *paper's*
virtual-time figures -- this script times how fast the simulator itself
runs, so the perf trajectory of the engine is tracked alongside the
model's accuracy.  Three scenarios:

* ``canonical_2node`` -- the golden-trace workload (fixed bidirectional
  message mix); also reports heap pushes per delivered TCC packet.
* ``idle_poll``      -- a receiver parked in ``recv()`` with no traffic
  for a 2 ms virtual window; measures the cost of *waiting* (the
  park/doorbell path should make this near-free).
* ``fig6_4mib_weak`` -- the heaviest single figure point: one 4 MiB
  weakly-ordered bandwidth sweep, one store call per line, all of them
  growing one open-ended train; gated on its deterministic event count.
* ``fig6_full_sweep`` -- the whole Figure 6 grid (17 sizes x 2 modes),
  run serially and through the ``repro.sim.parallel`` process-pool
  runner (``--jobs``); the ratio is the sweep-level scale-out win.
* ``mesh_4x4``      -- the ROADMAP scale-out scenario: a 16-blade mesh
  with eight link-disjoint 512 KiB bulk transfers, run with the
  adaptive-fidelity bulk-train fast path off (per-packet baseline) and
  on (trains with commit-span destination commits); gated on the
  deterministic event count of the adaptive run.
* ``datapath_churn`` -- a 1 MiB aligned store pushed through the
  *per-packet* data plane (adaptive fidelity off): every cache line
  becomes a fresh flyweight packet.  Reports the zero-copy counters
  (``bytes_copied``, ``packets_alloc``) and asserts that each byte is
  copied once and each line builds one packet; gated on its
  deterministic event count.
* ``forward6``       -- one 64 KiB store from a corner of
  torus3d(4,4,4) to its antipode, six forwarding hops away, through the
  per-packet stages (adaptive fidelity off); reports calendar entries
  per line and is gated on its deterministic event count.
* ``read_chain``     -- 256 KiB of remote memory pulled as 4096
  sequential coherent cacheline reads (the read-heavy counterpart of the
  fig6 store sweeps), per-packet vs ``adaptive_fidelity`` ReadFlow
  macro schedules; virtual time must match exactly and the macro event
  count is gated.
* ``collectives``    -- a 64 KiB allreduce across 16 ranks on
  torus2d(4,4): bandwidth-optimal ring (Hamiltonian single-hop
  embedding, flow-span bulk phases) vs binomial reduce+broadcast,
  oracle-checked; the ring run's event count is gated.
* ``rendezvous_ring`` -- the same ring allreduce with the default
  message-library config, whose 1 KiB eager limit sends every 4 KiB
  chunk rendezvous (heap payload, sfence, one control slot);
  oracle-checked, no train may demote, and the event count is gated.

Emits ``BENCH_wallclock.json`` (repo root by default) with runtime,
events executed, heap pushes, and events/sec per scenario, plus speedups
against the recorded pre-overhaul baseline.

CI gate: ``--check-baseline benchmarks/wallclock_baseline.json`` fails
(exit 1) if a gated scenario executes more calendar entries than its
recorded count.  The scenarios are deterministic, so the event counts
are machine-independent and exact.  Absolute wall-clock time is only
reported; the wall-clock gates are same-run ratios: a macro run
(``mesh_4x4`` adaptive, ``torus_ring`` and ``read_chain`` macro) must
not be slower than its per-packet twin, timed on the same machine in
the same process (``speedup_x`` at least the recorded floor).  Each
side is the median of ``RATIO_REPEATS`` alternating repetitions.  The
report carries a ``provenance`` block (commit, dirty flag,
``SimFeatures``, Python, machine, CPUs).

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --check-baseline benchmarks/wallclock_baseline.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import TCClusterSystem
from repro.obs.scenarios import run_canonical_2node
from repro.sim import SimFeatures
from repro.util.units import KiB, MiB

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Virtual idle window for the idle-poll scenario (2 ms -- long enough
#: that a busy-polling receiver would execute ~200k calendar entries).
IDLE_WINDOW_NS = 2_000_000.0

#: Measured on the pre-overhaul tree (commit 8b16a5d, the PR 1 seed) on
#: the same workloads.  ``heap_pushes`` was not counted by the seed
#: engine; every executed entry was pushed, so events stands in for
#: pushes there (the seed had no lazy-dispatch elision).  Runtimes are
#: the best of 3 back-to-back runs (same protocol as the bench itself)
#: so the wall-clock ratio compares like with like.
SEED_BASELINE = {
    "canonical_2node": {"runtime_s": 0.095, "events": 11919, "packets": 418},
    "idle_poll": {"runtime_s": 0.931, "events": 217823},
    "fig6_4mib_weak": {"runtime_s": 8.75, "events": 1310908, "mbps": 2781.8},
}

#: Repeats for the fig6 wall-clock measurement (best-of-N); the other
#: two scenarios are gated on deterministic event counts, not time.
FIG6_REPEATS = 3

#: Alternating in-process repetitions per side of a wall-clock ratio gate
#: (mesh_4x4, torus_ring, read_chain); each side reports its median, so
#: one descheduled run cannot fail the gate.
RATIO_REPEATS = 3

#: Bytes each of the eight link-disjoint mesh pairs bulk-stores.
MESH_TRANSFER = 512 * KiB

#: Bytes the datapath-churn scenario streams per-packet (16384 lines).
DATAPATH_TRANSFER = 1 * MiB

#: torus-ring scenario: messages per rank, payload bytes per message
#: (128 ring slots -- a full feedback window), and the modelled compute
#: phase between halo exchanges.
TORUS_RING_MSGS = 8
TORUS_RING_MSG_BYTES = 7168
TORUS_RING_COMPUTE_NS = 200.0
TORUS_RING_SEED = 0xC0FFEE

#: Bytes the forward6 scenario stores from (0,0,0) to (2,2,2) on
#: torus3d(4,4,4): 1024 lines, each crossing eight link directions.
FORWARD6_BYTES = 64 * KiB

#: Bytes the read-chain scenario pulls over the coherent fabric link
#: (4096 cachelines -> 4096 remote read/response round trips).
READ_CHAIN_BYTES = 256 * KiB

#: Array bytes per rank for the collectives scenario (a 64 KiB allreduce
#: on 16 torus ranks -- deep in the bandwidth-algorithm regime).
COLLECTIVES_BYTES = 64 * KiB

#: Array bytes per rank for the rendezvous-ring scenario: 4 KiB ring
#: chunks, above the default 1 KiB eager limit.
RENDEZVOUS_BYTES = 64 * KiB


def bench_canonical():
    # Best-of-3 back-to-back (the seed baseline's protocol): the first
    # run pays interpreter warm-up that the gate's deterministic event
    # count is insensitive to but the reported events/sec is not.
    best = None
    for _ in range(3):
        sys_ = TCClusterSystem.two_board_prototype()
        t0 = time.perf_counter()
        res = run_canonical_2node(system=sys_)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, sys_.sim, res)
    wall, sim, res = best
    packets = res["links"]["tcc_a_packets"]
    return {
        "runtime_s": round(wall, 4),
        "events": sim.event_count,
        "heap_pushes": sim.heap_pushes,
        "events_per_sec": round(sim.event_count / wall),
        "packets": packets,
        "pushes_per_packet": round(sim.heap_pushes / packets, 2),
    }


def bench_idle_poll():
    sys_ = TCClusterSystem.two_board_prototype().boot()
    cl = sys_.cluster
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    tx, rx = sys_.connect(a, b)
    sim = sys_.sim

    got = []

    def receiver():
        got.append((yield from rx.recv()))

    sim.process(receiver())
    e0, p0 = sim.event_count, sim.heap_pushes
    t0 = time.perf_counter()
    sim.run(until=sim.now + IDLE_WINDOW_NS)
    wall = time.perf_counter() - t0
    events = sim.event_count - e0
    pushes = sim.heap_pushes - p0

    # Liveness check: the parked receiver must still wake for real traffic.
    def sender():
        yield from tx.send(b"x" * 64)
        yield from tx.flush()

    sim.process(sender())
    sim.run()
    assert got and got[0] == b"x" * 64, "parked receiver failed to wake"

    return {
        "runtime_s": round(wall, 4),
        "idle_window_ns": IDLE_WINDOW_NS,
        "events": events,
        "heap_pushes": pushes,
        "events_per_sec": round(events / wall) if wall > 0 else None,
    }


def bench_fig6_4mib():
    from repro.bench.microbench import run_bandwidth_sweep

    best = None
    for _ in range(FIG6_REPEATS):
        sys_ = TCClusterSystem.two_board_prototype().boot()
        t0 = time.perf_counter()
        res = run_bandwidth_sweep(sizes=(4 * MiB,), modes=("weak",), system=sys_)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, sys_.sim, res)
    wall, sim, res = best
    return {
        "runtime_s": round(wall, 4),
        "repeats": FIG6_REPEATS,
        "events": sim.event_count,
        "heap_pushes": sim.heap_pushes,
        "events_per_sec": round(sim.event_count / wall),
        "mbps": round(res[0].mbps, 1),
    }


def bench_datapath_churn():
    """One bulk transfer through the full per-packet data plane.

    Adaptive fidelity is disabled so every cache line of a 1 MiB aligned
    store travels as an individual flyweight packet through WC flush,
    SRQ, link and destination commit -- the worst-case object-churn
    workload of the zero-copy data plane.  Asserts the two data-plane
    invariants directly:

    * **one-copy**: destination ``bytes_copied`` grows by exactly the
      transfer size (each payload byte is copied once, at page commit);
    * **one packet per line**: ``packets_alloc`` grows by exactly the
      number of cache lines (live packets stay bounded by flow control).
    """
    from repro.bench.microbench import _RawWindow
    from repro.obs.metrics import datapath_counters

    sys_ = TCClusterSystem.two_board_prototype()
    sys_.sim.features.adaptive_fidelity = False  # force per-packet plane
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    win = _RawWindow(cl, 0, 1)
    size = DATAPATH_TRANSFER
    data = bytes(range(256)) * (size // 256)
    dest = cl.ranks[1].chip.memctrl.memory

    def xfer():
        yield from win.proc.store(win.tx_base, data)
        yield from win.proc.core.sfence()

    before = datapath_counters(sim, memories=(dest,))
    e0, p0 = sim.event_count, sim.heap_pushes
    t0 = time.perf_counter()
    sim.run_until_event(sim.process(xfer()))
    sim.run()
    wall = time.perf_counter() - t0
    events = sim.event_count - e0
    after = datapath_counters(sim, memories=(dest,))
    delta = {k: after[k] - before[k] for k in after}

    # Model sanity: the destination window holds the streamed bytes.
    window_off = win.tx_base - cl.ranks[1].base
    got = dest.read(window_off, size)
    assert got == data, "datapath churn transfer corrupted"

    lines = size // 64
    assert delta["bytes_copied"] == size, (
        f"one-copy invariant broken: {delta['bytes_copied']} bytes copied "
        f"for a {size}-byte transfer"
    )
    assert delta["packets_alloc"] == lines, (
        f"{delta['packets_alloc']} packets built for {lines} cache lines"
    )

    from repro.obs.metrics import flow_counters

    return {
        "runtime_s": round(wall, 4),
        "transfer_bytes": size,
        "packets": lines,
        "events": events,
        "heap_pushes": sim.heap_pushes - p0,
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "virtual_ns": round(sim.now, 1),
        "bytes_copied": delta["bytes_copied"],
        "copies_per_byte": round(delta["bytes_copied"] / size, 4),
        "packets_alloc": delta["packets_alloc"],
        # Macro-event telemetry: this scenario forces the per-packet
        # plane, so every counter here must stay zero.
        "train": _train_counters(cl, [0]),
        "flow": flow_counters(sim).as_dict(),
    }


def bench_torus64():
    """The torus-scale scenario: torus3d(4,4,4) -- 64 supernodes, 128
    chips -- boots from cold on the folded interval maps and completes a
    64-pair halo exchange (every supernode streams 64 KiB to its +x
    neighbour).  The run is deterministic, so its calendar-entry count
    gates route-table and boot-path regressions at scale the 2-node
    scenarios cannot see (``torus64_events_max`` in the baseline)."""
    from repro.bench.sweep_points import torus_point

    t0 = time.perf_counter()
    point = torus_point((4, 4, 4), size=64 * KiB, workload="halo")
    wall = time.perf_counter() - t0
    return {
        "runtime_s": round(wall, 4),
        "supernodes": 64,
        "pairs": point.pairs,
        "transfer_bytes": point.size,
        "mbps": point.mbps,
        "boot_ns": point.boot_ns,
        "transfer_ns": point.transfer_ns,
        "events": point.events,
    }


def bench_forward6():
    """One store over six forwarding hops, packet by packet.

    A corner of torus3d(4,4,4) stores 64 KiB into its antipode's DRAM in
    one call plus an sfence, with adaptive fidelity off: every line goes
    through the dispatcher, eight link pumps and eight rx stages (six
    forwarding northbridges plus the intra-board hops).  Counts the
    calendar entries after boot (``forward6_events_max``) and per line."""
    from repro.bench.microbench import _RawWindow
    from repro.topology import torus3d

    sys_ = TCClusterSystem(torus3d(4, 4, 4))
    sys_.sim.features.adaptive_fidelity = False
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    topo = cl.topology
    src = cl.rank_of(topo.supernode_at((0, 0, 0)))
    dst = cl.rank_of(topo.supernode_at((2, 2, 2)))
    win = _RawWindow(cl, src, dst)
    data = bytes((i * 37 + 5) % 256 for i in range(FORWARD6_BYTES))

    def xfer():
        yield from win.proc.store(win.tx_base, data)
        yield from win.proc.core.sfence()

    e0, p0, v0 = sim.event_count, sim.heap_pushes, sim.now
    t0 = time.perf_counter()
    sim.run_until_event(sim.process(xfer()))
    sim.run()
    wall = time.perf_counter() - t0
    events = sim.event_count - e0
    info = cl.ranks[dst]
    got = info.chip.memory.read(win.tx_base - info.base, len(data))
    assert got == data, "forward6 transfer corrupted"
    lines = FORWARD6_BYTES // 64
    return {
        "runtime_s": round(wall, 4),
        "transfer_bytes": FORWARD6_BYTES,
        "lines": lines,
        "events": events,
        "events_per_line": round(events / lines, 2),
        "heap_pushes": sim.heap_pushes - p0,
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "virtual_ns": round(sim.now - v0, 2),
    }


def bench_fig6_full_sweep(jobs):
    """The entire Figure 6 grid, serial vs process-pool fan-out.

    Both passes go through the same per-point machinery (a fresh booted
    prototype per point, largest transfers scheduled first) so the ratio
    isolates the pool, not a workload difference.  The serial pass and
    its throughput are always recorded; on a runner whose CPU affinity
    allows only one core (or with ``--jobs 1``) only the serial-vs-pool
    *comparison* is skipped -- a wall-clock ratio there would measure
    pool overhead, not scale-out, and report a misleading ~1x "speedup".
    """
    from repro.bench.microbench import DEFAULT_BW_SIZES, run_bandwidth_sweep
    from repro.sim.parallel import usable_cpus

    usable = usable_cpus()
    sizes = tuple(DEFAULT_BW_SIZES)
    t0 = time.perf_counter()
    serial = run_bandwidth_sweep(sizes=sizes, jobs=1)
    serial_wall = time.perf_counter() - t0
    out = {
        "points": len(serial),
        "jobs": jobs,
        "usable_cpus": usable,
        "serial_runtime_s": round(serial_wall, 4),
        "serial_points_per_s": round(len(serial) / serial_wall, 2),
    }

    if usable <= 1 or jobs <= 1:
        out["skipped_parallel_compare"] = True
        out["reason"] = (
            "only one usable CPU: a serial-vs-pool wall-clock ratio "
            "would measure pool overhead, not scale-out"
            if usable <= 1 else
            "jobs <= 1: nothing to compare against the serial pass"
        )
        return out

    t0 = time.perf_counter()
    parallel = run_bandwidth_sweep(sizes=sizes, jobs=jobs)
    parallel_wall = time.perf_counter() - t0

    assert [(p.size, p.mode, p.mbps) for p in serial] == \
        [(p.size, p.mode, p.mbps) for p in parallel], \
        "parallel sweep diverged from serial results"
    out["parallel_runtime_s"] = round(parallel_wall, 4)
    out["speedup_x"] = round(serial_wall / parallel_wall, 2)
    if usable < min(jobs, len(serial)):
        out["note"] = (
            f"pool speedup is bounded by usable CPUs ({usable}); the "
            f"independent-point fan-out itself scales to min(jobs, points)"
        )
    return out


def _run_mesh(adaptive: bool):
    from repro.bench.microbench import _RawWindow
    from repro.topology import mesh2d

    sys_ = TCClusterSystem(mesh2d(4, 4))
    sys_.sim.features.adaptive_fidelity = adaptive
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    # Row-major numbering: (2k, 2k+1) are horizontal neighbours, so the
    # eight pairs use eight distinct links -- no two transfers contend.
    pairs = [(i, i + 1) for i in range(0, 16, 2)]
    wins = [_RawWindow(cl, a, b) for a, b in pairs]
    data = bytes(range(256)) * (MESH_TRANSFER // 256)

    def xfer(win):
        yield from win.proc.store(win.tx_base, data)
        yield from win.proc.core.sfence()

    e0, p0 = sim.event_count, sim.heap_pushes
    t0 = time.perf_counter()
    procs = [sim.process(xfer(w)) for w in wins]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    wall = time.perf_counter() - t0

    # Model sanity: every destination holds the transferred bytes.
    window_off = wins[0].tx_base - cl.ranks[pairs[0][1]].base
    for (a, b) in pairs:
        got = cl.ranks[b].chip.memctrl.memory.read(window_off, len(data))
        assert got == data, f"mesh transfer {a}->{b} corrupted"

    from repro.obs.metrics import flow_counters

    trains = _train_counters(cl, [a for a, _ in pairs])
    return {
        "runtime_s": round(wall, 4),
        "events": sim.event_count - e0,
        "heap_pushes": sim.heap_pushes - p0,
        "virtual_ns": round(sim.now, 1),
        "train_windows": trains["windows"],
        "train": trains,
        "flow": flow_counters(sim).as_dict(),
    }


def _ratio_sides(run):
    """Time the two sides of a ratio gate: ``RATIO_REPEATS`` alternating
    calls of ``run(False)`` (per-packet) and ``run(True)`` (macro).
    Returns one result per side, with ``runtime_s`` the median and
    ``runtimes_s`` every repetition; the deterministic fields of every
    repetition must agree."""
    runs = {False: [], True: []}
    for _ in range(RATIO_REPEATS):
        for fast in (False, True):
            runs[fast].append(run(fast))
    sides = []
    for fast in (False, True):
        out = dict(runs[fast][0])
        times = [r["runtime_s"] for r in runs[fast]]
        for r in runs[fast][1:]:
            assert (r["events"], r["virtual_ns"]) == \
                (out["events"], out["virtual_ns"]), "repetitions diverged"
        out["runtime_s"] = round(statistics.median(times), 4)
        out["runtimes_s"] = times
        sides.append(out)
    return sides


def bench_mesh_4x4():
    per_packet, adaptive = _ratio_sides(_run_mesh)
    assert per_packet["virtual_ns"] == adaptive["virtual_ns"], (
        "adaptive fidelity changed mesh virtual time: "
        f"{per_packet['virtual_ns']} vs {adaptive['virtual_ns']}"
    )
    assert per_packet["train_windows"] == 0
    assert adaptive["train_windows"] >= 8, "bulk trains never engaged"
    return {
        "pairs": 8,
        "transfer_bytes": MESH_TRANSFER,
        "per_packet": per_packet,
        "adaptive": adaptive,
        "speedup_x": round(per_packet["runtime_s"] / adaptive["runtime_s"], 2),
        "events_x": round(per_packet["events"] / adaptive["events"], 2),
    }


def _run_torus_ring(fidelity: bool):
    """One pass of the 64-node msglib ring exchange.

    ``fidelity`` is ``adaptive_fidelity``, which gates slot coalescing
    together with the store trains and commit spans: the per-packet
    baseline runs with every fast path off, the macro run with every
    fast path on, and the two must agree on virtual time exactly.
    """
    import random

    from repro.msglib import MsgConfig
    from repro.obs.metrics import flow_counters
    from repro.topology import torus3d

    sys_ = TCClusterSystem(
        torus3d(4, 4, 4),
        msg_cfg=MsgConfig(
            ring_bytes=16 * KiB,       # 256 slots: two messages in flight
            eager_max=TORUS_RING_MSG_BYTES,
            fb_interval_slots=128,     # one feedback line per message
            read_chunk=4 * KiB,
            heap_bytes=64 * KiB,
        ),
    )
    sys_.sim.features.adaptive_fidelity = fidelity
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    topo = cl.topology
    n = topo.num_supernodes

    # Directed +x ring links: rank r streams to its +x neighbour and
    # receives from its -x neighbour, so every link direction carries
    # exactly one flow (data one way, feedback lines the other).
    succ = []
    for s in range(n):
        c = list(topo.coords_of(s))
        c[0] = (c[0] + 1) % 4
        succ.append(cl.rank_of(topo.supernode_at(tuple(c))))
    ranks = [cl.rank_of(s) for s in range(n)]
    eps = {r: sys_.connect(r, succ[i]) for i, r in enumerate(ranks)}
    rx_of = {succ[i]: eps[r][1] for i, r in enumerate(ranks)}

    rng = random.Random(TORUS_RING_SEED)
    payloads = {
        r: [rng.randbytes(TORUS_RING_MSG_BYTES) for _ in range(TORUS_RING_MSGS)]
        for r in ranks
    }
    got = {r: [] for r in ranks}

    def worker(r):
        tx = eps[r][0]
        rx = rx_of[r]
        for m in payloads[r]:
            yield from tx.send(m)
            got[r].append((yield from rx.recv()))
            yield TORUS_RING_COMPUTE_NS  # the stencil compute phase
        yield from tx.flush()

    e0, p0 = sim.event_count, sim.heap_pushes
    t0 = time.perf_counter()
    procs = [sim.process(worker(r)) for r in ranks]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    wall = time.perf_counter() - t0

    # Model sanity: every rank received its -x neighbour's messages.
    pred = {succ[i]: r for i, r in enumerate(ranks)}
    for r in ranks:
        assert got[r] == payloads[pred[r]], f"ring exchange corrupted at {r}"

    fl = flow_counters(sim)
    slots_total = n * TORUS_RING_MSGS * (TORUS_RING_MSG_BYTES // 56)
    return {
        "runtime_s": round(wall, 4),
        "events": sim.event_count - e0,
        "heap_pushes": sim.heap_pushes - p0,
        "virtual_ns": round(sim.now, 1),
        "train": _train_counters(cl, ranks),
        "flow": fl.as_dict(),
        "slot_span_rate": round(fl.slot_slots / slots_total, 4),
    }


def _train_counters(cl, ranks):
    """Macro-event hit counters summed over the given ranks' NBs."""
    out = {"windows": 0, "lines": 0, "demotions": 0}
    for r in ranks:
        c = cl.ranks[r].chip.nb.counters
        out["windows"] += c.get("train_windows")
        out["lines"] += c.get("train_lines")
        out["demotions"] += c.get("train_demotions")
    return out


def bench_torus_ring():
    """The slot-span scenario: a 64-node torus msglib ring.

    Every supernode of a torus3d(4,4,4) runs send-to-+x / recv-from--x /
    compute iterations (a 1-D halo shift), eight 7168-byte messages per
    rank -- 128 ring slots each, the classic TCCluster eager pattern.
    With ``adaptive_fidelity`` on (the default), the slot writes of each
    message coalesce into one contiguous span which rides the bulk-train
    schedule; per-packet mode simulates every slot's store, wire and
    commit individually.  Virtual time must match exactly; the
    wall-clock ratio is the slot-span win.
    """
    per_packet, macro = _ratio_sides(_run_torus_ring)
    assert per_packet["virtual_ns"] == macro["virtual_ns"], (
        "slot spans changed torus-ring virtual time: "
        f"{per_packet['virtual_ns']} vs {macro['virtual_ns']}"
    )
    assert per_packet["train"]["windows"] == 0
    assert per_packet["flow"]["slot_windows"] == 0
    assert macro["flow"]["slot_windows"] >= 64 * TORUS_RING_MSGS // 2, \
        "slot spans never engaged"
    assert macro["train"]["windows"] >= 64, "span trains never engaged"
    return {
        "supernodes": 64,
        "msgs_per_rank": TORUS_RING_MSGS,
        "msg_bytes": TORUS_RING_MSG_BYTES,
        "per_packet": per_packet,
        "macro": macro,
        "speedup_x": round(per_packet["runtime_s"] / macro["runtime_s"], 2),
        "events_x": round(per_packet["events"] / macro["events"], 2),
    }


def _run_read_chain(fidelity: bool):
    """One pass of the remote-read chain on the single-board prototype.

    node0's core pulls ``READ_CHAIN_BYTES`` of node1's DRAM through the
    coherent fabric link -- 4096 sequential cacheline read/response round
    trips, the read-heavy counterpart of the fig6 store sweeps.  With
    ``adaptive_fidelity`` on, each read promotes to a :class:`ReadFlow`
    macro schedule (request, remote issue, response and completion as
    three calendar entries plus the DRAM commit); per-packet mode walks
    every request and response through queue, pump, wire and crossbar.
    """
    from repro.cluster import build_single_board_prototype
    from repro.obs.metrics import flow_counters

    proto = build_single_board_prototype()
    sim = proto.sim
    sim.features.adaptive_fidelity = fidelity
    proto.boot()
    node0, node1 = proto.node0, proto.node1
    data = bytes(range(256)) * (READ_CHAIN_BYTES // 256)
    node1.memory.write(0x40000, data)
    addr = 256 * MiB + 0x40000

    got = {}

    def reader():
        got["data"] = yield from node0.cores[0].load(addr, READ_CHAIN_BYTES)

    e0, p0 = sim.event_count, sim.heap_pushes
    t0 = time.perf_counter()
    sim.run_until_event(sim.process(reader()))
    sim.run()
    wall = time.perf_counter() - t0
    assert got["data"] == data, "read chain returned corrupted data"

    fl = flow_counters(sim)
    return {
        "runtime_s": round(wall, 4),
        "events": sim.event_count - e0,
        "heap_pushes": sim.heap_pushes - p0,
        "virtual_ns": round(sim.now, 1),
        "remote_reads": node0.nb.counters.get("remote_reads"),
        "flow": fl.as_dict(),
    }


def bench_read_chain():
    """Macro events on the read/response path: per-packet vs ReadFlow
    macro schedules, virtual time bit-identical."""
    per_packet, macro = _ratio_sides(_run_read_chain)
    assert per_packet["virtual_ns"] == macro["virtual_ns"], (
        "read flow changed virtual time: "
        f"{per_packet['virtual_ns']} vs {macro['virtual_ns']}"
    )
    nreads = READ_CHAIN_BYTES // 64
    assert per_packet["remote_reads"] == nreads
    assert per_packet["flow"]["read_reads"] == 0
    assert macro["flow"]["read_reads"] == nreads, "read flow never engaged"
    assert macro["flow"]["read_demotions"] == 0
    return {
        "transfer_bytes": READ_CHAIN_BYTES,
        "reads": nreads,
        "per_packet": per_packet,
        "macro": macro,
        "speedup_x": round(per_packet["runtime_s"] / macro["runtime_s"], 2),
        "events_x": round(per_packet["events"] / macro["events"], 2),
    }


def bench_collectives():
    """The collective-algorithms scenario: a 64 KiB allreduce across 16
    ranks on torus2d(4,4), bandwidth-optimal ring vs binomial
    reduce+broadcast (both oracle-checked inside ``collective_point``).
    The runs are deterministic, so the ring run's calendar-entry count
    gates the collective schedules, the Hamiltonian ring embedding and
    the flow-span engagement at once (``collectives_events_max``)."""
    from repro.bench.sweep_points import collective_point

    t0 = time.perf_counter()
    ring_pt = collective_point("allreduce", "ring", COLLECTIVES_BYTES,
                               shape=(4, 4))
    binom_pt = collective_point("allreduce", "binomial", COLLECTIVES_BYTES,
                                shape=(4, 4))
    wall = time.perf_counter() - t0
    assert ring_pt.ring_single_hop, "Hamiltonian embedding lost single-hop"
    assert ring_pt.slot_windows > 0, "ring phases missed the span layer"
    assert ring_pt.elapsed_ns < binom_pt.elapsed_ns, (
        "ring allreduce no faster than binomial at 64 KiB"
    )
    return {
        "runtime_s": round(wall, 4),
        "nranks": 16,
        "array_bytes": COLLECTIVES_BYTES,
        "ring_elapsed_ns": ring_pt.elapsed_ns,
        "binomial_elapsed_ns": binom_pt.elapsed_ns,
        "ring_vs_binomial_x": round(binom_pt.elapsed_ns / ring_pt.elapsed_ns,
                                    2),
        "ring_slot_windows": ring_pt.slot_windows,
        "events": ring_pt.events,
        "binomial_events": binom_pt.events,
    }


def bench_rendezvous_ring():
    """The rendezvous scenario: a 64 KiB ring allreduce across 16 ranks
    on torus2d(4,4) with the default ``MsgConfig``.  Its 1 KiB eager
    limit sends every 4 KiB chunk rendezvous: posted writes into the
    peer's heap, an sfence and one control slot in its ring, all from
    one core down one link.  The payload rides a WC train and the
    control slot rides the same train as a segment of its own, so no
    train may demote; ``_drive_collective`` checks the allreduce result
    against its oracle, and the calendar-entry count is gated
    (``rendezvous_events_max``)."""
    from repro.bench.sweep_points import _drive_collective
    from repro.middleware import Communicator
    from repro.obs.metrics import datapath_counters
    from repro.topology import torus2d

    system = TCClusterSystem(torus2d(4, 4))
    system.boot()
    sim = system.sim
    cl = system.cluster
    comms = [Communicator.for_cluster(cl, r) for r in range(cl.nranks)]
    p0 = sim.heap_pushes
    a0 = datapath_counters(sim)["packets_alloc"]
    t0 = time.perf_counter()
    elapsed, events = _drive_collective(sim, comms, "allreduce", "ring",
                                        RENDEZVOUS_BYTES)
    wall = time.perf_counter() - t0
    train = _train_counters(cl, range(cl.nranks))
    assert comms[0].ring_single_hop, "Hamiltonian embedding lost single-hop"
    assert train["windows"] > 0, "rendezvous payloads never rode a train"
    assert train["demotions"] == 0, (
        f"{train['demotions']} trains demoted: a control slot left its "
        "payload's train")
    return {
        "runtime_s": round(wall, 4),
        "nranks": cl.nranks,
        "array_bytes": RENDEZVOUS_BYTES,
        "elapsed_ns": round(elapsed, 2),
        "events": events,
        "heap_pushes": sim.heap_pushes - p0,
        "events_per_s": round(events / wall) if wall > 0 else None,
        "packets_alloc": datapath_counters(sim)["packets_alloc"] - a0,
        "train": train,
    }


def _git(*cmd):
    try:
        proc = subprocess.run(["git", *cmd], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(jobs: int) -> dict:
    """What produced this report, shaped like the block
    ``benchmarks/perf/run.py`` writes."""
    commit = _git("rev-parse", "HEAD")
    return {
        "commit": commit,
        "dirty": (bool(_git("status", "--porcelain", "--untracked-files=no"))
                  if commit else None),
        "sim_features": dataclasses.asdict(SimFeatures()),
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_wallclock.json",
        help="where to write the JSON report (default: repo root)",
    )
    ap.add_argument(
        "--check-baseline",
        type=pathlib.Path,
        default=None,
        metavar="BASELINE_JSON",
        help="fail if a gated scenario executes more calendar entries than "
        "recorded in this file, or a macro run is slower than its "
        "per-packet twin (CI regression gate)",
    )
    ap.add_argument(
        "--jobs",
        default=None,
        help="worker processes for the fig6 full-sweep scenario "
        "(default: TCC_PARALLEL or 4; 0/'auto' = usable CPUs)",
    )
    args = ap.parse_args(argv)

    from repro.sim.parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs) if args.jobs is not None else (
        resolve_jobs() if "TCC_PARALLEL" in os.environ else 4
    )

    scenarios = {
        "canonical_2node": bench_canonical(),
        "idle_poll": bench_idle_poll(),
        "fig6_4mib_weak": bench_fig6_4mib(),
        "fig6_full_sweep": bench_fig6_full_sweep(jobs),
        "mesh_4x4": bench_mesh_4x4(),
        "datapath_churn": bench_datapath_churn(),
        "torus64": bench_torus64(),
        "forward6": bench_forward6(),
        "torus_ring": bench_torus_ring(),
        "read_chain": bench_read_chain(),
        "collectives": bench_collectives(),
        "rendezvous_ring": bench_rendezvous_ring(),
    }

    seed = SEED_BASELINE
    canon, idle, fig6 = (
        scenarios["canonical_2node"],
        scenarios["idle_poll"],
        scenarios["fig6_4mib_weak"],
    )
    speedups = {
        "fig6_wallclock_x": round(seed["fig6_4mib_weak"]["runtime_s"] / fig6["runtime_s"], 2),
        "idle_poll_events_x": round(seed["idle_poll"]["events"] / max(idle["events"], 1), 1),
        "canonical_pushes_per_packet_x": round(
            (seed["canonical_2node"]["events"] / seed["canonical_2node"]["packets"])
            / canon["pushes_per_packet"],
            2,
        ),
        "fig6_sweep_parallel_x": scenarios["fig6_full_sweep"].get(
            "speedup_x", "skipped"),
        "mesh_adaptive_fidelity_x": scenarios["mesh_4x4"]["speedup_x"],
        "torus_ring_adaptive_fidelity_x": scenarios["torus_ring"]["speedup_x"],
        "read_chain_adaptive_fidelity_x": scenarios["read_chain"]["speedup_x"],
    }

    report = {
        "provenance": provenance(jobs),
        "scenarios": scenarios,
        "seed_baseline": seed,
        "speedups_vs_seed": speedups,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {args.output}]")

    # Sanity: the model must be unchanged, only its execution cost.
    if fig6["mbps"] != seed["fig6_4mib_weak"]["mbps"]:
        print(
            f"WARNING: fig6 4 MiB mbps {fig6['mbps']} != seed "
            f"{seed['fig6_4mib_weak']['mbps']} -- virtual-time model drifted?",
            file=sys.stderr,
        )

    if args.check_baseline is not None:
        baseline = json.loads(args.check_baseline.read_text())
        gates = [
            ("canonical_events_max", canon["events"], "canonical trace"),
            ("fig6_events_max", fig6["events"], "fig6 4 MiB weak point"),
            ("mesh_events_max",
             scenarios["mesh_4x4"]["adaptive"]["events"],
             "mesh_4x4 adaptive scenario"),
            ("datapath_events_max",
             scenarios["datapath_churn"]["events"],
             "datapath churn scenario"),
            ("torus64_events_max",
             scenarios["torus64"]["events"],
             "torus3d(4,4,4) halo scenario"),
            ("forward6_events_max",
             scenarios["forward6"]["events"],
             "forward6 per-packet six-hop scenario"),
            ("torus_ring_events_max",
             scenarios["torus_ring"]["macro"]["events"],
             "torus-ring slot-span scenario"),
            ("read_chain_events_max",
             scenarios["read_chain"]["macro"]["events"],
             "read-chain ReadFlow scenario"),
            ("collectives_events_max",
             scenarios["collectives"]["events"],
             "collectives ring-allreduce scenario"),
            ("rendezvous_events_max",
             scenarios["rendezvous_ring"]["events"],
             "rendezvous ring-allreduce scenario"),
        ]
        failed = False
        for key, got, label in gates:
            limit = baseline.get(key)
            if limit is None:
                continue
            if got > limit:
                print(
                    f"FAIL: {label} executed {got} calendar entries, "
                    f"baseline allows at most {limit} "
                    f"(recorded in {args.check_baseline})",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(f"baseline gate OK: {label} events {got} <= {limit}")
        ratios = [
            ("mesh_4x4_speedup_min", "mesh_4x4", "mesh_4x4 adaptive"),
            ("torus_ring_speedup_min", "torus_ring", "torus_ring macro"),
            ("read_chain_speedup_min", "read_chain", "read_chain macro"),
        ]
        for key, name, label in ratios:
            floor = baseline.get(key)
            if floor is None:
                continue
            got = scenarios[name]["speedup_x"]
            if got < floor:
                print(
                    f"FAIL: {label} run is {got}x its per-packet twin's "
                    f"speed, baseline requires at least {floor}x "
                    f"(recorded in {args.check_baseline})",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(f"baseline gate OK: {label} speedup {got}x >= {floor}x")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
