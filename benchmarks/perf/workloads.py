"""The six benchmark workloads and the repetition recorder they report into.

Every workload is a function ``(rep, rng, size)`` that builds fresh
systems through the public facade, runs one closed-loop scenario in
virtual time, checks every output against an oracle and hands each
virtual-time result to :meth:`Rep.unit`, which compares it with the
pinned value.  The library always runs with its default ``SimFeatures``:
nothing here sets a feature flag, so a change of default shows up.

``rng`` (seeded from ``--seed``) drives payload bytes, MPI inputs and
the random fault plans; sizes come from :data:`SIZES` and never from the
seed, so pinned virtual results are seed-independent.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import TCClusterSystem
from repro.cluster import build_single_board_prototype
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.middleware import Communicator
from repro.msglib import MsgConfig, TransportError
from repro.topology import chain, ring, torus2d, torus3d

from layers import COUNTER_KEYS, add_counters, read_counters

KiB = 1024
MiB = 1024 * KiB
LINE = 64

#: Workload sizes.  ``full`` is the benchmark; ``smoke`` is the same code
#: at tiny sizes for the test suite.  Changing a ``full`` size changes
#: what the benchmark measures: re-pin (``--repin``) and re-baseline.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "fig6_sweep": {"sizes": [64 << i for i in range(17)]},
        "torus_bulk": {"bulk_bytes": 256 * KiB, "streams": 4,
                       "stream_bytes": 64 * KiB},
        "torus_msg": {"msgs": 8},
        "read_chain": {"bytes": 1 * MiB},
        "mpi_mix": {"iterations": 8},
        "fault_recovery": {"msgs": 240, "msg_bytes": 256,
                           "halo_bytes": 64 * KiB},
    },
    "smoke": {
        "fig6_sweep": {"sizes": [64, 4 * KiB]},
        "torus_bulk": {"bulk_bytes": 4 * KiB, "streams": 2,
                       "stream_bytes": 1 * KiB},
        "torus_msg": {"msgs": 1},
        "read_chain": {"bytes": 16 * KiB},
        "mpi_mix": {"iterations": 4},
        "fault_recovery": {"msgs": 12, "msg_bytes": 256,
                           "halo_bytes": 1 * KiB},
    },
}


class Rep:
    """One repetition of a workload.

    Set-up (construct, boot, wiring) and the measured phases are timed
    apart; only the measured phases run under the profiler.  Each unit
    of work adds its operation count to ``attempted`` and, when its
    oracle or pinned virtual result disagrees, to ``failed``.
    """

    def __init__(self, pins: Optional[Dict[str, float]], profiler=None,
                 clock: Callable[[], float] = perf_counter):
        #: expected virtual results; None records them instead (--repin)
        self.pins = pins
        self.profiler = profiler
        self.clock = clock
        self.construct_s = self.boot_s = self.wire_s = self.wall_s = 0.0
        self.systems = 0
        self.boot_events: Optional[int] = 0
        self.events: Optional[int] = 0
        self.heap_pushes: Optional[int] = 0
        self.virtual_ns = 0.0
        self.attempted = self.failed = 0
        self.failures: List[str] = []
        self.got_pins: Dict[str, float] = {}
        self.counters: Dict[str, Optional[float]] = dict.fromkeys(COUNTER_KEYS, 0)
        #: host-speed factor from calibration.py, set once the rep ends
        self.factor = 1.0

    @property
    def setup_s(self) -> float:
        return self.construct_s + self.boot_s + self.wire_s

    def build(self, construct: Callable):
        """Construct and boot one system, timing the two apart."""
        t0 = self.clock()
        system = construct()
        t1 = self.clock()
        system.boot()
        t2 = self.clock()
        self.construct_s += t1 - t0
        self.boot_s += t2 - t1
        self.systems += 1
        self.boot_events = _add(self.boot_events, _engine(system.sim)[0])
        return system

    @contextmanager
    def wiring(self):
        """Set-up after boot: processes, mappings, endpoints, fault plans."""
        t0 = self.clock()
        try:
            yield
        finally:
            self.wire_s += self.clock() - t0

    def measure(self, sim, run: Callable):
        """Run one measured phase; returns what ``run`` returns."""
        e0, p0 = _engine(sim)
        v0 = sim.now
        prof = self.profiler
        t0 = self.clock()
        if prof is not None:
            prof.enable()
        try:
            return run()
        finally:
            if prof is not None:
                prof.disable()
            self.wall_s += self.clock() - t0
            e1, p1 = _engine(sim)
            self.events = _add(self.events, _sub(e1, e0))
            self.heap_pushes = _add(self.heap_pushes, _sub(p1, p0))
            self.virtual_ns += sim.now - v0

    def unit(self, name: str, ops: int, ok: bool, pin: Optional[float] = None):
        """Account ``ops`` operations checked by one oracle verdict and,
        optionally, one pinned virtual-time result."""
        self.attempted += ops
        bad = not ok
        if pin is not None:
            self.got_pins[name] = pin
            if self.pins is not None and self.pins.get(name) != pin:
                bad = True
        if bad:
            self.failed += ops
            self.failures.append(name)

    def collect(self, system) -> None:
        add_counters(self.counters, read_counters(system))


def _engine(sim):
    """(calendar entries executed, heap pushes), or Nones when the
    engine stops exposing them."""
    return getattr(sim, "event_count", None), getattr(sim, "heap_pushes", None)


def _add(a, b):
    return None if a is None or b is None else a + b


def _sub(a, b):
    return None if a is None or b is None else a - b


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

_WINDOW = 8 * MiB        # remote window mapped per stream
_BULK_OFF = 32 * MiB     # offsets inside the peer's DRAM slice
_STREAM_OFF = 48 * MiB


def remote_window(cluster, rank: int, peer: int, offset: int):
    """A user process on ``rank`` with a write-combining window mapped
    onto ``peer``'s DRAM at ``offset``; returns (process, window base)."""
    info = cluster.ranks[rank]
    proc = cluster.spawn_process(rank)
    base = cluster.ranks[peer].base + offset
    driver = cluster.kernels[info.supernode].driver_for(info.chip_index)
    driver.mmap_remote(proc.pagetable, base, _WINDOW, tag="perf")
    return proc, base


def landed(cluster, peer: int, base: int, data: bytes) -> bool:
    """Oracle: ``data`` sits in ``peer``'s DRAM at global address ``base``."""
    info = cluster.ranks[peer]
    return info.chip.memory.read(base - info.base, len(data)) == data


def bulk_store(proc, base: int, data: bytes):
    """One store call for the whole buffer, then a fence."""
    yield from proc.store(base, data)
    yield from proc.sfence()


def run_all(sim, gens) -> None:
    """Run generator processes to completion, then drain the fabric."""
    sim.run_until_event(sim.all_of([sim.process(g) for g in gens]))
    sim.run()


def shift(topo, supernode: int, delta) -> int:
    """The supernode ``delta`` away on a wrapped grid."""
    coords = topo.coords_of(supernode)
    return topo.supernode_at(tuple((c + d) % n for c, d, n
                                   in zip(coords, delta, topo.shape)))


def plus_x_pairs(cluster):
    """(rank, rank of its +x neighbour) for every supernode of a torus."""
    topo = cluster.topology
    return [(cluster.rank_of(s), cluster.rank_of(shift(topo, s, (1, 0, 0))))
            for s in range(topo.num_supernodes)]


def bulk_phase(rep: Rep, cluster, pairs, nbytes: int, offset: int,
               rng: random.Random) -> bool:
    """Every (rank, peer) pair stores ``nbytes`` of seeded data into the
    peer's DRAM in one call, all at once; returns the oracle verdict."""
    sim = cluster.sim
    data = [rng.randbytes(nbytes) for _ in pairs]
    with rep.wiring():
        wins = [remote_window(cluster, a, b, offset) for a, b in pairs]
    rep.measure(sim, lambda: run_all(
        sim, [bulk_store(p, base, d) for (p, base), d in zip(wins, data)]))
    return all(landed(cluster, b, base, d)
               for (_, b), (_, base), d in zip(pairs, wins, data))


# ---------------------------------------------------------------------------
# fig6_sweep
# ---------------------------------------------------------------------------

def _stream_lines(proc, base: int, lines: List[bytes], strict: bool, out: list):
    """Figure 6's store stream: per-call entry cost, then one 64 B WC
    store per line (strict: an sfence after every line).  ``out`` gets
    the store-retire time, the figure's elapsed time."""
    sim = proc.sim
    start = sim.now
    yield sim.timeout(proc.core.chip.timing.send_overhead_ns)
    addr = base
    for line in lines:
        yield from proc.store(addr, line)
        if strict:
            yield from proc.sfence()
        addr += LINE
    out.append(sim.now - start)
    yield from proc.sfence()


def fig6_sweep(rep: Rep, rng: random.Random, size: dict) -> None:
    for mode in ("weak", "strict"):
        for nbytes in size["sizes"]:
            data = rng.randbytes(nbytes)
            lines = [data[i:i + LINE] for i in range(0, nbytes, LINE)]
            sys_ = rep.build(TCClusterSystem.two_board_prototype)
            cl = sys_.cluster
            a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
            with rep.wiring():
                proc, base = remote_window(cl, a, b, _BULK_OFF)
            elapsed: list = []
            rep.measure(sys_.sim, lambda: run_all(
                sys_.sim, [_stream_lines(proc, base, lines, mode == "strict",
                                         elapsed)]))
            rep.unit(f"{mode}.{nbytes}", len(lines),
                     landed(cl, b, base, data), pin=elapsed[0])
            rep.collect(sys_)


# ---------------------------------------------------------------------------
# torus_bulk
# ---------------------------------------------------------------------------

#: Phase-2 sources: corners of the 4x4x4 cube; each streams to its
#: antipode, 2+2+2 = 6 hops of northbridge forwarding away.
_CORNERS = ((0, 0, 0), (3, 3, 3), (0, 3, 0), (3, 0, 3))


def torus_bulk(rep: Rep, rng: random.Random, size: dict) -> None:
    sys_ = rep.build(lambda: TCClusterSystem(torus3d(4, 4, 4)))
    cl = sys_.cluster
    topo = cl.topology

    # Phase 1: every supernode stores to its +x neighbour (link-disjoint).
    pairs = plus_x_pairs(cl)
    ok = bulk_phase(rep, cl, pairs, size["bulk_bytes"], _BULK_OFF, rng)
    rep.unit("phase1", len(pairs) * size["bulk_bytes"] // LINE, ok,
             pin=sys_.sim.now)

    # Phase 2: antipodal corner streams through the forwarding fabric.
    sources = [topo.supernode_at(c) for c in _CORNERS[:size["streams"]]]
    pairs = [(cl.rank_of(s), cl.rank_of(shift(topo, s, (2, 2, 2))))
             for s in sources]
    ok = bulk_phase(rep, cl, pairs, size["stream_bytes"], _STREAM_OFF, rng)
    rep.unit("phase2", len(pairs) * size["stream_bytes"] // LINE, ok,
             pin=sys_.sim.now)
    rep.collect(sys_)


# ---------------------------------------------------------------------------
# torus_msg
# ---------------------------------------------------------------------------

_RING_MSG_BYTES = 7168
_RING_COMPUTE_NS = 200.0
_RING_CFG = dict(
    ring_bytes=16 * KiB,        # 256 slots: two messages in flight
    eager_max=_RING_MSG_BYTES,
    fb_interval_slots=128,      # one feedback line per message
    read_chunk=4 * KiB,
    heap_bytes=64 * KiB,
)


def torus_msg(rep: Rep, rng: random.Random, size: dict) -> None:
    sys_ = rep.build(lambda: TCClusterSystem(torus3d(4, 4, 4),
                                             msg_cfg=MsgConfig(**_RING_CFG)))
    cl, sim = sys_.cluster, sys_.sim
    ranks, succ = zip(*plus_x_pairs(cl))
    n = len(ranks)
    with rep.wiring():
        eps = [sys_.connect(r, s) for r, s in zip(ranks, succ)]
    # eps[i] = (ranks[i] -> succ[i], succ[i] <- ranks[i]); index receivers by rank.
    rx_of = {succ[i]: eps[i][1] for i in range(n)}
    sent = [[rng.randbytes(_RING_MSG_BYTES) for _ in range(size["msgs"])]
            for _ in range(n)]
    got: Dict[int, list] = {r: [] for r in ranks}

    def worker(i):
        r = ranks[i]
        tx, rx = eps[i][0], rx_of[r]
        for msg in sent[i]:
            yield from tx.send(msg)
            got[r].append((yield from rx.recv()))
            yield _RING_COMPUTE_NS
        yield from tx.flush()

    rep.measure(sim, lambda: run_all(sim, [worker(i) for i in range(n)]))
    ok = all(got[succ[i]] == sent[i] for i in range(n))
    rep.unit("ring", n * size["msgs"], ok, pin=sim.now)
    rep.collect(sys_)


# ---------------------------------------------------------------------------
# read_chain
# ---------------------------------------------------------------------------

_READ_OFF = 0x40000
_NODE1_BASE = 256 * MiB     # node1's DRAM in the prototype's global map


def read_chain(rep: Rep, rng: random.Random, size: dict) -> None:
    nbytes = size["bytes"]
    data = rng.randbytes(nbytes)
    proto = rep.build(build_single_board_prototype)
    with rep.wiring():
        proto.node1.memory.write(_READ_OFF, data)
    got: list = []

    def reader():
        got.append((yield from proto.node0.cores[0].load(
            _NODE1_BASE + _READ_OFF, nbytes)))

    rep.measure(proto.sim, lambda: run_all(proto.sim, [reader()]))
    rep.unit("reads", nbytes // LINE, got == [data], pin=proto.sim.now)
    rep.collect(proto)


# ---------------------------------------------------------------------------
# mpi_mix
# ---------------------------------------------------------------------------

_HALO_BYTES = 512
_BULK_ELEMS = 8192          # 64 KiB of float64
_A2A_BYTES = 1 * KiB
_NEIGHBOURS = ((0, 1), (0, -1), (1, 0), (-1, 0))


def mpi_mix(rep: Rep, rng: random.Random, size: dict) -> None:
    iters = size["iterations"]
    sys_ = rep.build(lambda: TCClusterSystem(torus2d(4, 4)))
    cl, sim = sys_.cluster, sys_.sim
    topo = cl.topology
    n = cl.nranks
    with rep.wiring():
        comms = [Communicator.for_cluster(cl, r) for r in range(n)]
    # One rank per supernode, so rank r sits on supernode r.
    nbrs = [[shift(topo, r, d) for d in _NEIGHBOURS] for r in range(n)]
    heavy = [it % 4 == 3 for it in range(iters)]
    halo = [[rng.randbytes(_HALO_BYTES) for _ in range(n)] for _ in range(iters)]
    small = [[float(rng.randrange(1 << 30)) for _ in range(n)] for _ in range(iters)]
    # Integer-valued doubles below 2**40: every summation order is exact.
    bulk = {it: [np.array([rng.randrange(1 << 20) for _ in range(_BULK_ELEMS)],
                          dtype=np.float64) for _ in range(n)]
            for it in range(iters) if heavy[it]}
    blocks = {it: [[rng.randbytes(_A2A_BYTES) for _ in range(n)] for _ in range(n)]
              for it in range(iters) if heavy[it]}
    ok = [True] * iters
    ends = [[0.0] * n for _ in range(iters)]

    def worker(c):
        r = c.rank
        for it in range(iters):
            reqs = [c.irecv(q, tag=it) for q in nbrs[r]]
            for q in nbrs[r]:
                yield from c.send(halo[it][r], q, tag=it)
            for q, req in zip(nbrs[r], reqs):
                if (yield from req.wait()) != halo[it][q]:
                    ok[it] = False
            top = yield from c.allreduce(np.array([small[it][r]]), op="max")
            ok[it] &= top[0] == max(small[it])
            if heavy[it]:
                total = yield from c.allreduce(bulk[it][r], op="sum")
                ok[it] &= bool(np.array_equal(total, np.sum(bulk[it], axis=0)))
                recv = yield from c.alltoall(blocks[it][r])
                ok[it] &= all(recv[s] == blocks[it][s][r] for s in range(n))
            ends[it][r] = sim.now

    rep.measure(sim, lambda: run_all(sim, [worker(c) for c in comms]))
    for it in range(iters):
        calls = 2 * len(_NEIGHBOURS) + 1 + (2 if heavy[it] else 0)
        rep.unit(f"iter{it}", n * calls, ok[it], pin=max(ends[it]))
    rep.collect(sys_)


# ---------------------------------------------------------------------------
# fault_recovery
# ---------------------------------------------------------------------------

_RELIABLE = dict(send_deadline_ns=1e7, recv_deadline_ns=4e7)
#: Crash point: a send deadline shorter than the outage, so the sender's
#: retry runs the epoch handshake against the rejoined peer.
_CRASH = dict(send_deadline_ns=2e5, recv_deadline_ns=5e5)


def _fixed_plans():
    """(name, topology, plan, msg-config) of the pinned fault points."""
    return [
        ("flap.chain2", chain(2),
         FaultPlan().add(8_000.0, FaultKind.LINK_FLAP, 0, duration_ns=20_000.0),
         _RELIABLE),
        ("storm.chain2", chain(2),
         FaultPlan().add(8_000.0, FaultKind.BER_STORM, 0, duration_ns=30_000.0,
                         magnitude=1e-2),
         _RELIABLE),
        ("stall.chain2", chain(2),
         FaultPlan().add(8_000.0, FaultKind.CREDIT_STALL, 0, duration_ns=20_000.0),
         _RELIABLE),
        ("crash.chain2", chain(2),
         FaultPlan().add(2_000.0, FaultKind.NODE_CRASH, 1)
                    .add(400_000.0, FaultKind.NODE_WARM_RESET, 1),
         _CRASH),
        ("flap.ring3", ring(3),
         FaultPlan().add(8_000.0, FaultKind.LINK_FLAP, 0, duration_ns=20_000.0),
         _RELIABLE),
    ]


def _stream_point(rep: Rep, name: str, topo, plan: FaultPlan, cfg: dict,
                  msgs: List[bytes], pinned: bool, crash: bool = False) -> None:
    """A reliable 0 -> 1 message stream under ``plan``.

    The oracle wants every message once, in order, and no
    ``TransportError`` -- except across a crash, where a send that hits
    its deadline is retried by the application and the receiver drops
    duplicates by message index (at-least-once delivery).
    """
    sys_ = rep.build(lambda: TCClusterSystem(topo, msg_cfg=MsgConfig(**cfg),
                                             memory_bytes=64 * MiB))
    sim = sys_.sim
    with rep.wiring():
        FaultInjector(sys_.cluster, plan).arm(on_conflict="skip")
        tx_ep, rx_ep = sys_.connect(0, 1)
    got: List[bytes] = []
    errors: List[str] = []
    tries = 8

    def tx():
        for msg in msgs:
            for _ in range(tries):
                try:
                    yield from tx_ep.send(msg)
                    break
                except TransportError:
                    errors.append("tx")
            else:
                return

    def rx():
        for _ in range(tries * len(msgs)):
            if len(got) == len(msgs):
                return
            try:
                msg = yield from rx_ep.recv()
            except TransportError:
                errors.append("rx")
                continue
            if int.from_bytes(msg[:4], "little") == len(got):
                got.append(msg)

    procs = [sim.process(tx()), sim.process(rx())]
    rep.measure(sim, lambda: sim.run_until_event(sim.all_of(procs)))
    rep.unit(name, len(msgs), got == msgs and (crash or not errors),
             pin=sim.now if pinned else None)
    rep.collect(sys_)


def fault_recovery(rep: Rep, rng: random.Random, size: dict) -> None:
    def messages():
        return [i.to_bytes(4, "little") + rng.randbytes(size["msg_bytes"] - 4)
                for i in range(size["msgs"])]

    for name, topo, plan, cfg in _fixed_plans():
        _stream_point(rep, name, topo, plan, cfg, messages(), pinned=True,
                      crash=cfg is _CRASH)
    # Seeded plans: the transient trio drawn from the run's seed; their
    # virtual results vary with the seed, so only the oracle checks them.
    for i in range(2):
        plan = FaultPlan.random(rng.randrange(1 << 30), horizon_ns=60_000.0,
                                n_events=3)
        _stream_point(rep, f"seeded{i}.chain2", chain(2), plan, _RELIABLE,
                      messages(), pinned=False)

    # A 64-stream halo on the 3D torus with one TCC link killed mid-transfer:
    # routing is recomputed around it and no posted write may be lost.
    sys_ = rep.build(lambda: TCClusterSystem(torus3d(4, 4, 4)))
    cl = sys_.cluster
    with rep.wiring():
        FaultInjector(cl, FaultPlan().add(10_000.0, FaultKind.LINK_KILL, 0)).arm()
    pairs = plus_x_pairs(cl)
    ok = bulk_phase(rep, cl, pairs, size["halo_bytes"], _BULK_OFF, rng)
    rep.unit("kill.torus3d", len(pairs), ok, pin=sys_.sim.now)
    rep.collect(sys_)


WORKLOADS: Dict[str, Callable] = {
    "fig6_sweep": fig6_sweep,
    "torus_bulk": torus_bulk,
    "torus_msg": torus_msg,
    "read_chain": read_chain,
    "mpi_mix": mpi_mix,
    "fault_recovery": fault_recovery,
}
