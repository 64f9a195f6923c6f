"""Tests for the mini-MPI communicator and the PGAS runtime."""

import numpy as np
import pytest

from repro.core import TCClusterSystem
from repro.middleware import ANY_TAG, Communicator, GasRuntime, MpiError
from repro.msglib import MsgConfig


@pytest.fixture(scope="module")
def system():
    return TCClusterSystem.two_board_prototype().boot()


@pytest.fixture(scope="module")
def comms(system):
    return [Communicator(system.cluster.library(r))
            for r in range(system.nranks)]


def run_all(system, gens):
    procs = [system.sim.process(g) for g in gens]
    system.sim.run_until_event(system.sim.all_of(procs))
    return [p.value for p in procs]


# ---------------------------------------------------------------------------
# Point to point
# ---------------------------------------------------------------------------

def test_send_recv(system, comms):
    def r0():
        yield from comms[0].send(b"payload", dest=3, tag=7)

    def r3():
        return (yield from comms[3].recv(source=0, tag=7))

    _, got = run_all(system, [r0(), r3()])
    assert got == b"payload"


def test_tag_matching_with_unexpected_queue(system, comms):
    """A message with a non-matching tag is queued, not lost."""
    def sender():
        yield from comms[0].send(b"first-tag5", dest=1, tag=5)
        yield from comms[0].send(b"then-tag9", dest=1, tag=9)

    def receiver():
        nine = yield from comms[1].recv(source=0, tag=9)   # skips tag 5
        five = yield from comms[1].recv(source=0, tag=5)   # from the queue
        return nine, five

    _, (nine, five) = run_all(system, [sender(), receiver()])
    assert nine == b"then-tag9"
    assert five == b"first-tag5"


def test_any_tag(system, comms):
    def sender():
        yield from comms[2].send(b"whatever", dest=0, tag=42)

    def receiver():
        return (yield from comms[0].recv(source=2, tag=ANY_TAG))

    _, got = run_all(system, [sender(), receiver()])
    assert got == b"whatever"


def test_sendrecv_exchange(system, comms):
    def a():
        return (yield from comms[0].sendrecv(b"from0", peer=1, tag=3))

    def b():
        return (yield from comms[1].sendrecv(b"from1", peer=0, tag=3))

    ra, rb = run_all(system, [a(), b()])
    assert ra == b"from1" and rb == b"from0"


def test_isend_irecv_overlap(system, comms):
    """Nonblocking ops: post both receives first, then the sends; the
    requests complete independently."""
    def r0():
        reqs = [comms[0].irecv(source=1, tag=11),
                comms[0].irecv(source=1, tag=12)]
        yield comms[0].sim.timeout(100.0)
        first = yield from reqs[0].wait()
        second = yield from reqs[1].wait()
        return first, second

    def r1():
        ra = comms[1].isend(b"msg-A", dest=0, tag=11)
        rb = comms[1].isend(b"msg-B", dest=0, tag=12)
        yield from ra.wait()
        yield from rb.wait()
        assert ra.test() and rb.test()

    (first, second), _ = run_all(system, [r0(), r1()])
    assert first == b"msg-A"
    assert second == b"msg-B"


def test_concurrent_sends_to_same_peer_serialize(system, comms):
    """Two isends from different 'threads' of one rank must not corrupt
    the ring (the per-peer tx lock serializes them)."""
    def sender():
        reqs = [comms[2].isend(bytes([i]) * 100, dest=3, tag=5)
                for i in range(6)]
        for r in reqs:
            yield from r.wait()

    def receiver():
        out = []
        for _ in range(6):
            out.append((yield from comms[3].recv(source=2, tag=5)))
        return out

    _, got = run_all(system, [sender(), receiver()])
    assert sorted(g[0] for g in got) == list(range(6))
    assert all(g == bytes([g[0]]) * 100 for g in got)


def test_self_send_rejected(comms):
    with pytest.raises(MpiError):
        next(comms[0].send(b"x", dest=0))


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------

def test_bcast_from_each_root(system, comms):
    for root in range(4):
        payload = f"root-{root}".encode()

        def worker(c, root=root, payload=payload):
            data = payload if c.rank == root else None
            return (yield from c.bcast(data, root=root))

        results = run_all(system, [worker(c) for c in comms])
        assert results == [payload] * 4


def test_barrier_synchronizes(system, comms):
    sim = system.sim
    times = {}

    def worker(c, delay):
        yield sim.timeout(delay)
        enter = sim.now
        yield from c.barrier()
        times[c.rank] = (enter, sim.now)

    run_all(system, [worker(c, 2000.0 * c.rank) for c in comms])
    last_enter = max(t[0] for t in times.values())
    first_exit = min(t[1] for t in times.values())
    assert first_exit >= last_enter


def test_gather_scatter(system, comms):
    def worker(c):
        got = yield from c.gather(bytes([c.rank]) * 8, root=2)
        if c.rank == 2:
            parts = [bytes([10 + i]) * 4 for i in range(4)]
        else:
            parts = None
        mine = yield from c.scatter(parts, root=2)
        return got, mine

    results = run_all(system, [worker(c) for c in comms])
    gathered = results[2][0]
    assert gathered == [bytes([i]) * 8 for i in range(4)]
    for rank, (_, mine) in enumerate(results):
        assert mine == bytes([10 + rank]) * 4


def test_allgather(system, comms):
    def worker(c):
        return (yield from c.allgather(bytes([c.rank * 11]) * 4))

    results = run_all(system, [worker(c) for c in comms])
    expected = [bytes([r * 11]) * 4 for r in range(4)]
    assert all(res == expected for res in results)


def test_alltoall(system, comms):
    def worker(c):
        blocks = [bytes([c.rank * 16 + d]) * 4 for d in range(c.size)]
        return (yield from c.alltoall(blocks))

    results = run_all(system, [worker(c) for c in comms])
    for me, got in enumerate(results):
        # got[src] is the block src built for me.
        assert got == [bytes([src * 16 + me]) * 4 for src in range(4)]


def test_alltoall_block_count_checked(system, comms):
    def worker():
        yield from comms[0].alltoall([b"x"])

    proc = system.sim.process(worker())
    with pytest.raises(MpiError):
        system.sim.run_until_event(proc)


def test_reduce_and_allreduce(system, comms):
    def worker(c):
        arr = np.arange(16, dtype=np.float64) * (c.rank + 1)
        red = yield from c.reduce(arr, op="sum", root=1)
        allred = yield from c.allreduce(arr, op="max")
        return red, allred

    results = run_all(system, [worker(c) for c in comms])
    expected_sum = np.arange(16, dtype=np.float64) * (1 + 2 + 3 + 4)
    expected_max = np.arange(16, dtype=np.float64) * 4
    assert np.allclose(results[1][0], expected_sum)
    for rank, (red, allred) in enumerate(results):
        if rank != 1:
            assert red is None
        assert np.allclose(allred, expected_max)


def test_unknown_reduce_op(system, comms):
    def worker():
        yield from comms[0].reduce(np.zeros(2), op="bogus")

    proc = system.sim.process(worker())
    with pytest.raises(MpiError):
        system.sim.run_until_event(proc)


# ---------------------------------------------------------------------------
# PGAS
# ---------------------------------------------------------------------------

@pytest.fixture()
def gas_system():
    sys_ = TCClusterSystem.two_board_prototype().boot()
    cl = sys_.cluster
    gases = [GasRuntime(cl.library(r)) for r in range(cl.nranks)]
    for g in gases:
        g.start()
    yield sys_, gases
    for g in gases:
        g.stop()


def test_gas_put_fence_visibility(gas_system):
    sys_, gases = gas_system
    out = {}

    def writer(g):
        yield from g.put(2, 0x1000, b"put-data")
        yield from g.fence()
        yield from g.barrier()

    def reader(g):
        yield from g.barrier()
        out["v"] = yield from g.local_read(0x1000, 8)

    def bystander(g):
        yield from g.barrier()

    gens = []
    for g in gases:
        if g.rank == 0:
            gens.append(writer(g))
        elif g.rank == 2:
            gens.append(reader(g))
        else:
            gens.append(bystander(g))
    procs = [sys_.sim.process(x) for x in gens]
    sys_.sim.run_until_event(sys_.sim.all_of(procs))
    assert out["v"] == b"put-data"


def test_gas_get_is_active_message(gas_system):
    """get() works despite the writes-only fabric -- via request/reply."""
    sys_, gases = gas_system
    out = {}

    def owner(g):
        yield from g.put(g.rank, 0x2000, b"remote-value!")
        yield from g.barrier()
        yield from g.barrier()

    def getter(g):
        yield from g.barrier()
        out["v"] = yield from g.get(1, 0x2000, 13)
        yield from g.barrier()

    def others(g):
        yield from g.barrier()
        yield from g.barrier()

    gens = []
    for g in gases:
        if g.rank == 1:
            gens.append(owner(g))
        elif g.rank == 3:
            gens.append(getter(g))
        else:
            gens.append(others(g))
    procs = [sys_.sim.process(x) for x in gens]
    sys_.sim.run_until_event(sys_.sim.all_of(procs))
    assert out["v"] == b"remote-value!"


def test_gas_put_notify(gas_system):
    sys_, gases = gas_system
    out = {}

    def producer(g):
        yield from g.put_notify(1, 0x3000, b"notified-payload")

    def consumer(g):
        offset, n = yield from g.wait_notify()
        out["v"] = yield from g.local_read(offset, n)

    procs = [sys_.sim.process(producer(gases[0])),
             sys_.sim.process(consumer(gases[1]))]
    sys_.sim.run_until_event(sys_.sim.all_of(procs))
    assert out["v"] == b"notified-payload"


def test_gas_fetch_add_is_atomic(gas_system):
    """All four ranks hammer one counter owned by rank 1; every increment
    must be accounted for and the returned old values must be unique."""
    sys_, gases = gas_system
    per_rank = 10
    olds = []

    def worker(g):
        for _ in range(per_rank):
            old = yield from g.fadd(1, 0x5000, 1)
            olds.append(old)
        yield from g.barrier()

    procs = [sys_.sim.process(worker(g)) for g in gases]
    sys_.sim.run_until_event(sys_.sim.all_of(procs))
    total = 4 * per_rank
    assert sorted(olds) == list(range(total)), "lost or duplicated update"

    def check(g):
        raw = yield from g.local_read(0x5000, 8)
        return raw

    done = sys_.sim.process(check(gases[1]))
    raw = sys_.sim.run_until_event(done)
    import struct as _s

    assert _s.unpack("<Q", raw)[0] == total


def test_gas_offset_bounds(gas_system):
    _, gases = gas_system
    from repro.middleware import GasError

    with pytest.raises(GasError):
        gases[0].seg_addr(1, gases[0].gas_bytes)


def test_gas_get_requires_dispatcher():
    sys_ = TCClusterSystem.two_board_prototype().boot()
    g = GasRuntime(sys_.cluster.library(0))
    from repro.middleware import GasError

    def getter():
        yield from g.get(1, 0, 8)

    proc = sys_.sim.process(getter())
    with pytest.raises(GasError, match="dispatcher"):
        sys_.sim.run_until_event(proc)


# ---------------------------------------------------------------------------
# Collective algorithms (topology-aware, size-adaptive)
# ---------------------------------------------------------------------------

from repro.middleware.collectives import (  # noqa: E402
    ALLTOALL_CROSSOVER_BYTES,
    _step_wrap_dims,
    allreduce_crossover_bytes,
    chunk_bounds,
    ring_hop_profile,
    select_allreduce,
    select_alltoall,
    select_bcast,
)
from repro.obs.metrics import collective_counters, flow_counters  # noqa: E402
from repro.topology import mesh2d, torus2d, torus3d  # noqa: E402

ALLREDUCE_ALGOS = ("binomial", "ring", "rabenseifner")


@pytest.fixture(scope="module")
def torus_system():
    """16 ranks on torus2d(4,4): wrapped rings of 4, so the pairwise and
    linear alltoall exercise tied (antipodal) steps, and the Hamiltonian
    ring embedding is single-hop."""
    return TCClusterSystem(torus2d(4, 4)).boot()


@pytest.fixture(scope="module")
def torus_comms(torus_system):
    return [Communicator.for_cluster(torus_system.cluster, r)
            for r in range(torus_system.nranks)]


def _inputs(n, nel, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        return [rng.integers(1, 5, size=nel).astype(dtype) for _ in range(n)]
    return [(rng.standard_normal(nel) * 0.5).astype(dtype) for _ in range(n)]


def _oracle(inputs, op):
    fns = {"sum": np.add, "min": np.minimum, "max": np.maximum,
           "prod": np.multiply}
    acc = inputs[0].copy()
    for a in inputs[1:]:
        acc = fns[op](acc, a)
    return acc


def test_ring_embedding_single_hop_on_grids():
    """The Hamiltonian embedding keeps every cyclic ring hop on a single
    TCC link for even meshes and tori (the acceptance property the
    bandwidth claim rests on)."""
    for topo in (torus2d(4, 4), mesh2d(4, 4), torus3d(2, 2, 2)):
        sys_ = TCClusterSystem(topo).boot()
        comm = Communicator.for_cluster(sys_.cluster, 0)
        assert sorted(comm.ring_order) == list(range(comm.size))
        assert comm.ring_single_hop, topo.kind
        hops = ring_hop_profile(topo, comm.ring_order,
                                [ri.supernode for ri in sys_.cluster.ranks])
        assert max(hops) <= 1


def test_ring_embedding_fallback_off_grid(comms):
    """Without topology info the ring order is plain rank order and no
    single-hop promise is made."""
    assert comms[0].ring_order == list(range(comms[0].size))
    assert comms[0].ring_single_hop is False


def test_chunk_bounds_cover_and_balance():
    for total, n in ((16, 4), (17, 4), (3, 8), (0, 2), (1024, 7)):
        bounds = chunk_bounds(total, n)
        assert len(bounds) == n
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c and b - a >= 0


def test_selector_crossovers():
    cross = allreduce_crossover_bytes(64)
    assert 4096 < cross < 16384  # ~7.2 KiB from the calibrated model
    assert select_allreduce(cross // 2, 64, cross, False) == "binomial"
    assert select_allreduce(cross * 2, 64, cross, True) == "ring"
    assert select_allreduce(cross * 2, 64, cross, False) == "rabenseifner"
    assert select_alltoall(ALLTOALL_CROSSOVER_BYTES - 1,
                           ALLTOALL_CROSSOVER_BYTES) == "linear"
    assert select_alltoall(ALLTOALL_CROSSOVER_BYTES + 1,
                           ALLTOALL_CROSSOVER_BYTES) == "pairwise"
    assert select_bcast(128, 16, 4096) == "binomial"
    assert select_bcast(1 << 20, 16, 4096) == "segmented"


def test_allreduce_all_algorithms_match_oracle(torus_system, torus_comms):
    """Every algorithm, forced, agrees with the NumPy oracle; within one
    algorithm all ranks return bit-identical bytes."""
    n = torus_system.nranks
    for op in ("sum", "max", "min"):
        inputs = _inputs(n, 384, seed=hash(op) % 1000)
        oracle = _oracle(inputs, op)
        for algo in ALLREDUCE_ALGOS:
            outs = run_all(torus_system,
                           [torus_comms[r].allreduce(inputs[r], op=op,
                                                     algorithm=algo)
                            for r in range(n)])
            assert np.allclose(outs[0], oracle), (op, algo)
            first = outs[0].tobytes()
            assert all(o.tobytes() == first for o in outs), (op, algo)


@pytest.mark.parametrize("seed", range(4))
def test_allreduce_fuzz_vs_numpy(torus_system, torus_comms, seed):
    """Randomized sizes / dtypes / ops, every algorithm forced."""
    rng = np.random.default_rng(1000 + seed)
    n = torus_system.nranks
    nel = int(rng.integers(1, 900))
    dtype = rng.choice([np.float64, np.float32, np.int64])
    op = str(rng.choice(["sum", "max", "min"]))
    inputs = _inputs(n, nel, dtype=dtype, seed=seed)
    oracle = _oracle(inputs, op)
    for algo in ALLREDUCE_ALGOS:
        outs = run_all(torus_system,
                       [torus_comms[r].allreduce(inputs[r], op=op,
                                                 algorithm=algo)
                        for r in range(n)])
        assert outs[0].dtype == np.dtype(dtype)
        assert np.allclose(outs[0], oracle, rtol=1e-5), (nel, dtype, op, algo)
        first = outs[0].tobytes()
        assert all(o.tobytes() == first for o in outs)


def test_reduce_scatter_matches_oracle(torus_system, torus_comms):
    n = torus_system.nranks
    inputs = _inputs(n, 1 + 16 * 37, seed=7)  # uneven chunks
    oracle = _oracle(inputs, "sum")
    outs = run_all(torus_system,
                   [torus_comms[r].reduce_scatter(inputs[r])
                    for r in range(n)])
    bounds = chunk_bounds(inputs[0].size, n)
    for r, (lo, hi) in enumerate(bounds):
        assert np.allclose(outs[r], oracle[lo:hi]), r


def test_bcast_segmented_all_roots(torus_system, torus_comms):
    n = torus_system.nranks
    payload = bytes(range(256)) * 40  # > one 8 KiB segment
    for root in (0, 5, n - 1):
        gens = []
        for r in range(n):
            data = payload if r == root else None
            gens.append(torus_comms[r].bcast(data, root=root,
                                             algorithm="segmented"))
        outs = run_all(torus_system, gens)
        assert all(o == payload for o in outs)


def test_bcast_adaptive_matches_forced(torus_system, torus_comms):
    """The wire-prefix dispatch gives non-roots the right algorithm even
    when only the root knows the size."""
    n = torus_system.nranks
    for payload in (b"x" * 64, b"y" * 40000):
        gens = [torus_comms[r].bcast(payload if r == 2 else None, root=2)
                for r in range(n)]
        outs = run_all(torus_system, gens)
        assert all(o == payload for o in outs)


@pytest.mark.parametrize("algo", ["linear", "pairwise"])
def test_alltoall_algorithms_on_torus(torus_system, torus_comms, algo):
    """Both schedules on the wrapped grid -- this exercises the tied
    (antipodal) leg-synchronized steps that would otherwise close the
    torus channel cycle."""
    n = torus_system.nranks

    def block(src, dst):
        pat = bytes(((src * 31 + dst * 7 + i) & 0xFF) for i in range(97))
        return pat * 3

    outs = run_all(torus_system,
                   [torus_comms[r].alltoall([block(r, d) for d in range(n)],
                                            algorithm=algo)
                    for r in range(n)])
    for dst in range(n):
        for src in range(n):
            assert outs[dst][src] == block(src, dst), (src, dst, algo)


def test_pairwise_alltoall_shift_schedule_on_odd_torus():
    """torus2d(3,3): nine ranks walk the (rank + step) shift schedule,
    and the steps whose routes cross a wrap link of a ring of three run
    leg-synchronized (``_step_wrap_dims``); 4 KiB blocks stream."""
    sys_ = TCClusterSystem(torus2d(3, 3)).boot()
    n = sys_.nranks
    comms = [Communicator.for_cluster(sys_.cluster, r) for r in range(n)]
    assert any(_step_wrap_dims(comms[0], lambda r, s=step: (r + s) % n)
               for step in range(1, n))

    def block(src, dst):
        return bytes(((src * 31 + dst * 7 + i) & 0xFF) for i in range(256)) * 16

    outs = run_all(sys_, [comms[r].alltoall([block(r, d) for d in range(n)],
                                            algorithm="pairwise")
                          for r in range(n)])
    for dst in range(n):
        for src in range(n):
            assert outs[dst][src] == block(src, dst), (src, dst)


def test_collective_counters_record_algorithms(torus_system, torus_comms):
    n = torus_system.nranks
    cc = collective_counters(torus_system.sim)
    before = dict(cc.algorithms)
    inputs = _inputs(n, 2048, seed=3)
    run_all(torus_system,
            [torus_comms[r].allreduce(inputs[r], algorithm="ring")
             for r in range(n)])
    after = dict(cc.algorithms)
    assert after.get("allreduce.ring", 0) - before.get("allreduce.ring", 0) == n
    # Constituents of a dispatched collective are not double-counted.
    run_all(torus_system,
            [torus_comms[r].allreduce(inputs[r], algorithm="binomial")
             for r in range(n)])
    final = dict(cc.algorithms)
    assert final.get("allreduce.binomial", 0) - after.get("allreduce.binomial", 0) == n
    assert final.get("bcast.binomial", 0) == after.get("bcast.binomial", 0)


def test_reduce_contribution_length_mismatch_is_typed():
    """A rank contributing a wrong-size array raises MpiError naming the
    ranks and sizes instead of a cryptic frombuffer ValueError."""
    sys_ = TCClusterSystem.two_board_prototype().boot()
    cs = [Communicator(sys_.cluster.library(r)) for r in range(2)]

    def r0():
        return (yield from cs[0].reduce(np.arange(4.0), root=0))

    def r1():
        return (yield from cs[1].reduce(np.arange(3.0), root=0))

    p0 = sys_.sim.process(r0())
    sys_.sim.process(r1())
    with pytest.raises(MpiError, match=r"rank 1.*24.*rank 0.*32|32.*24"):
        sys_.sim.run_until_event(p0)


def test_allreduce_fidelity_fingerprint_identical():
    """adaptive_fidelity on/off: same result bytes, same virtual time;
    the bulk ring phases must actually engage the slot-span layer."""
    results = {}
    cfg = MsgConfig(ring_bytes=64 * 1024, eager_max=24576,
                    fb_interval_slots=128)
    for fidelity in (False, True):
        sys_ = TCClusterSystem(torus2d(4, 4), msg_cfg=cfg)
        sys_.sim.features.adaptive_fidelity = fidelity
        sys_.boot()
        cs = [Communicator.for_cluster(sys_.cluster, r)
              for r in range(sys_.nranks)]
        inputs = _inputs(sys_.nranks, 2048, seed=11)
        outs = run_all(sys_, [cs[r].allreduce(inputs[r], algorithm="ring")
                              for r in range(sys_.nranks)])
        results[fidelity] = (outs[0].tobytes(), sys_.sim.now)
        if fidelity:
            fc = flow_counters(sys_.sim)
            assert fc.slot_windows > 0 and fc.slot_slots > 0
    assert results[False] == results[True]


def test_tuning_overrides_selection():
    sys_ = TCClusterSystem(torus2d(4, 4)).boot()
    cs = [Communicator.for_cluster(sys_.cluster, r)
          for r in range(sys_.nranks)]
    cc = collective_counters(sys_.sim)
    inputs = _inputs(sys_.nranks, 8, seed=5)  # tiny: adaptive would say binomial
    run_all(sys_, [cs[r].allreduce(inputs[r], algorithm="rabenseifner")
                   for r in range(sys_.nranks)])
    assert cc.algorithms.get("allreduce.rabenseifner", 0) == sys_.nranks
