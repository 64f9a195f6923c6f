"""Link-layer recovery mechanics: down/retrain transitions, NAKs of
packets cut mid-serialization, and fail-down.

Satellite regression coverage for the fault-injection PR: the chaos
harness (``test_chaos.py``) exercises recovery end to end; these tests
pin the individual link-layer contracts it relies on.
"""

import pytest

from repro.ht import (
    Link,
    LinkDownError,
    LinkInitFSM,
    LinkSide,
    LinkState,
    LinkTrainingError,
    VirtualChannel,
    make_posted_write,
)
from repro.cluster import build_single_board_prototype
from repro.obs.metrics import fault_counters
from repro.sim import Simulator
from repro.util.units import MiB

M256 = 256 * MiB


def make_active_link(sim, **kw):
    link = Link(sim, "l0", **kw)
    link.activate("noncoherent")
    return link


def fsm_link(sim, skew_tolerance_ns=100.0, **kw):
    link = Link(sim, "tcc", **kw)
    fsm = LinkInitFSM(sim, link, skew_tolerance_ns=skew_tolerance_ns)
    fsm.assert_reset(LinkSide.A, "cold")
    fsm.assert_reset(LinkSide.B, "cold")
    sim.run()
    assert link.state == LinkState.ACTIVE
    return link, fsm


# ---------------------------------------------------------------------------
# Down -> retrain keeps every packet (NAK, not loss).
# ---------------------------------------------------------------------------

def test_bring_down_naks_in_flight_then_retrain_delivers_in_order():
    sim = Simulator()
    link, fsm = fsm_link(sim)
    got = []

    def rx():
        while len(got) < 10:
            p = yield link.receive(LinkSide.B)
            got.append(p.addr)

    def tx():
        for i in range(10):
            yield link.send(LinkSide.A, make_posted_write(0x1000 + 64 * i,
                                                          bytes([i] * 16)))

    sim.process(rx())
    sim.process(tx())
    # Cut the link mid-transfer, then recover it shortly after.
    sim.schedule(30.0, link.bring_down)
    sim.schedule(500.0, fsm.retrain, "warm")
    sim.run(until=1_000_000.0)
    assert got == [0x1000 + 64 * i for i in range(10)], (
        "NAK'd packets must be re-sent exactly once, in order"
    )


def test_bring_down_mid_serialization_naks_and_redelivers():
    """A packet still on the wire when the link drops is NAK'd back to
    the head of its VC queue when its serialization ends (its delivery is
    never pushed), and every packet is delivered exactly once, in order,
    after retrain -- with stats and credits consistent throughout."""
    sim = Simulator()
    link, fsm = fsm_link(sim)
    n = 12
    got = []

    def rx():
        while len(got) < n:
            p = yield link.receive(LinkSide.B)
            got.append((p.addr, bytes(p.data)))

    def tx():
        for i in range(n):
            yield link.send(LinkSide.A, make_posted_write(0x2000 + 64 * i,
                                                          bytes([i] * 32)))

    sim.process(rx())
    sim.process(tx())
    # Back-to-back packets keep the serializer busy; one 48B-ish packet
    # takes ~tens of ns on the wire, so 25ns in lands mid-serialization.
    sim.schedule(25.0, link.bring_down)
    sim.schedule(400.0, fsm.retrain, "warm")
    sim.run(until=1_000_000.0)
    assert [a for a, _ in got] == [0x2000 + 64 * i for i in range(n)]
    assert all(d == bytes([i] * 32) for i, (_, d) in enumerate(got))
    d = link._dirs[LinkSide.A]
    assert d.credits[VirtualChannel.POSTED].credits == link.credits_per_vc
    assert d.stats.packets == n, "NAK'd packets must not be double-counted"
    assert fault_counters(sim).link_naks >= 1


# ---------------------------------------------------------------------------
# Fail-down and rate recovery.
# ---------------------------------------------------------------------------

def test_retry_exhaustion_fails_down_to_narrower_width():
    sim = Simulator()
    link = make_active_link(sim, ber=1.0)
    link.max_retries = 2
    link.fail_down_threshold = 3
    w0 = link.width_bits
    for i in range(3):
        link.send(LinkSide.A, make_posted_write(0x1000 + 64 * i, b"\x00" * 4))
    sim.run()
    assert link.fail_downs >= 1
    assert link.width_bits < w0 or link.gbit_per_lane < 0.4
    assert fault_counters(sim).link_fail_downs == link.fail_downs


def test_warm_retrain_restores_programmed_rate_after_fail_down():
    sim = Simulator()
    link, fsm = fsm_link(sim)
    fsm.program_rate(LinkSide.A, 16, 0.8)
    fsm.program_rate(LinkSide.B, 16, 0.8)
    fsm.retrain("warm")
    sim.run()
    assert (link.width_bits, link.gbit_per_lane) == (16, 0.8)
    link._fail_down()
    assert link.width_bits < 16
    fsm.retrain("warm")
    sim.run()
    assert (link.width_bits, link.gbit_per_lane) == (16, 0.8), (
        "a warm retrain re-applies the personas' programmed rate"
    )


def test_retrain_refuses_permanently_dead_link():
    sim = Simulator()
    link, fsm = fsm_link(sim)
    link.bring_down()
    link.dead = True
    with pytest.raises(LinkTrainingError, match="dead"):
        fsm.retrain("warm")
    with pytest.raises(LinkDownError):
        link.activate("noncoherent")


# ---------------------------------------------------------------------------
# Satellite (c): linkinit failure paths.
# ---------------------------------------------------------------------------

def test_program_rate_beyond_capability_is_refused():
    sim = Simulator()
    link = Link(sim, "tcc")
    fsm = LinkInitFSM(sim, link)
    cap = fsm.persona(LinkSide.A).max_gbit_per_lane
    with pytest.raises(LinkTrainingError, match="capability"):
        fsm.program_rate(LinkSide.A, 16, cap * 2)


def test_warm_reset_skew_beyond_tolerance_fails_both_waiters():
    sim = Simulator()
    link, fsm = fsm_link(sim, skew_tolerance_ns=50.0)
    ev_a = fsm.assert_reset(LinkSide.A, "warm")
    sim.run(until=sim.now + 500.0)
    ev_b = fsm.assert_reset(LinkSide.B, "warm")
    sim.run()
    assert ev_a.triggered and not ev_a.ok
    assert ev_b.triggered and not ev_b.ok
    # Training never started, so the already-active link is untouched
    # (the failed handshake reports the error without taking it down).
    assert link.state == LinkState.ACTIVE


# ---------------------------------------------------------------------------
# Requester-side read retry: a coherent link death mid-read no longer
# surfaces LinkDownError to the loading core.
# ---------------------------------------------------------------------------

def test_remote_read_survives_link_kill_before_request_leaves():
    """The link dies before the read request serializes: the requester
    parks on the up-gate (its SrcTag released) and re-issues once the
    link reactivates, so the core's load completes with the right data."""
    proto = build_single_board_prototype().boot()
    sim = proto.sim
    proto.node1.memory.write(0x400, b"SURVIVES")
    got = {}

    def scenario():
        got["data"] = yield from proto.node0.cores[0].load(M256 + 0x400, 8)

    proto.coherent_link.bring_down()
    done = sim.process(scenario())
    sim.schedule(5_000.0, proto.coherent_link.activate, "coherent")
    sim.run_until_event(done)
    assert got["data"] == b"SURVIVES"
    assert proto.node0.nb.counters["remote_reads"] >= 1


def test_remote_read_survives_link_kill_mid_flight():
    """The kill lands while the request/response exchange is on the wire
    (a few ns after issue): between link-level NAK redelivery and the
    requester retry loop the read must still complete after retrain."""
    proto = build_single_board_prototype().boot()
    sim = proto.sim
    proto.node1.memory.write(0x800, b"MIDFLGHT")
    got = {}

    def scenario():
        got["data"] = yield from proto.node0.cores[0].load(M256 + 0x800, 8)

    done = sim.process(scenario())
    sim.schedule(8.0, proto.coherent_link.bring_down)
    sim.schedule(4_000.0, proto.coherent_link.activate, "coherent")
    sim.run_until_event(done)
    assert got["data"] == b"MIDFLGHT"


def test_remote_read_fails_typed_when_link_never_returns():
    """The patience window bounds the retry: a permanently dead egress
    still fails the load with LinkDownError instead of hanging."""
    proto = build_single_board_prototype().boot()
    sim = proto.sim
    nb = proto.node0.nb
    proto.coherent_link.bring_down()
    proto.coherent_link.dead = True
    t0 = sim.now
    ev = nb.cpu_read(M256 + 0x100, 8)
    sim.run(until=t0 + 10 * nb.link_down_wait_ns)
    assert ev.triggered and not ev.ok
    assert isinstance(ev.value, LinkDownError)
    assert sim.now - t0 >= nb.link_down_wait_ns


def test_bring_down_during_training_window_recovers_with_next_retrain():
    """A flap landing while a retrain is already in progress must not
    wedge the FSM: the training process itself calls ``bring_down`` and
    re-activates, so a second retrain converges."""
    sim = Simulator()
    link, fsm = fsm_link(sim)
    fsm.retrain("warm")
    sim.run(until=sim.now + 1.0)  # training in progress
    link.bring_down()
    ev = fsm.retrain("warm")
    sim.run()
    assert ev.ok
    assert link.state == LinkState.ACTIVE


# ---------------------------------------------------------------------------
# Route-around salvage: a packet the pump holds when its link is killed.
# ---------------------------------------------------------------------------

def test_killed_link_nak_is_salvaged_per_packet():
    """A per-packet +x halo on torus3d(4,4,4) with link 0 killed at
    10 us.  The kill catches a posted write in the link's pump (on the
    wire or waiting for a credit), and the pump NAKs it after the route
    manager has salvaged the TX queues.  A dead link never retrains, so
    that write must go back to its chip and be re-routed like the queued
    ones, and every byte must land."""
    import random

    from repro.cluster import TCCluster
    from repro.faults import FaultInjector, FaultKind, FaultPlan
    from repro.topology import torus3d

    cl = TCCluster(torus3d(4, 4, 4))
    sim = cl.sim
    sim.features.adaptive_fidelity = False
    cl.boot()
    FaultInjector(cl, FaultPlan().add(10_000.0, FaultKind.LINK_KILL, 0)).arm()
    topo = cl.topology
    rng = random.Random(7)
    streams = []
    for s in range(topo.num_supernodes):
        x, y, z = topo.coords_of(s)
        a = cl.rank_of(s)
        b = cl.rank_of(topo.supernode_at(((x + 1) % 4, y, z)))
        info = cl.ranks[a]
        proc = cl.spawn_process(a)
        base = cl.ranks[b].base + 32 * MiB
        cl.kernels[info.supernode].driver_for(info.chip_index).mmap_remote(
            proc.pagetable, base, 1 * MiB, tag="halo")
        streams.append((proc, b, base, rng.randbytes(32 * 1024)))

    def store(proc, base, data):
        yield from proc.store(base, data)
        yield from proc.sfence()

    sim.run_until_event(sim.all_of(
        [sim.process(store(p, base, d)) for p, _, base, d in streams]))
    sim.run()
    fc = fault_counters(sim)
    assert fc.link_naks >= 1, "the kill caught no packet in a pump"
    for _, b, base, d in streams:
        info = cl.ranks[b]
        assert info.chip.memory.read(base - info.base, len(d)) == d, (
            f"halo into rank {b} lost bytes")


# ---------------------------------------------------------------------------
# Route-table pressure flood: MMIO interval overflow degrades to a fatal
# route vector instead of raising out of the injector.
# ---------------------------------------------------------------------------

def _flooded_cluster(topo, targets, spacing_ns=1_000.0):
    from repro.cluster import TCCluster
    from repro.faults import FaultInjector, FaultKind, FaultPlan

    # arm() schedules at_ns relative to now (post-boot).
    plan = FaultPlan()
    for k, tgt in enumerate(targets):
        plan.add(spacing_ns * (k + 1), FaultKind.LINK_KILL, tgt)
    cl = TCCluster(topo, memory_bytes=16 * MiB).boot()
    inj = FaultInjector(cl, plan)
    inj.arm()
    cl.run(until=cl.sim.now + spacing_ns * (len(targets) + 4))
    return cl, inj


def test_route_pressure_flood_survives_interval_overflow():
    """torus3d(4,4,4) with six chosen link kills overflows the 16-entry
    MMIO interval budget on at least one supernode; the default injector
    route manager must flood a fatal route vector and keep running
    instead of raising RouteError."""
    from repro.topology import torus3d

    cl, inj = _flooded_cluster(torus3d(4, 4, 4),
                               [103, 77, 122, 91, 149, 55])
    fc = fault_counters(cl.sim)
    assert len(inj.fired) == 6
    assert fc.pressure_floods >= 1
    assert fc.fatal_broadcasts >= fc.pressure_floods
    assert inj.routes.pressure_flooded, "no supernode was floored"


@pytest.mark.slow
def test_route_pressure_flood_torus8_multi_kill():
    """torus3d(8,8,8) regression: three early link kills floor exactly
    the three touched supernodes (one fatal broadcast each) and the
    simulation keeps running past the plan."""
    from repro.topology import torus3d

    cl, inj = _flooded_cluster(torus3d(8, 8, 8), [0, 1, 2])
    fc = fault_counters(cl.sim)
    assert fc.pressure_floods == 3
    assert fc.fatal_broadcasts == 3
    assert inj.routes.pressure_flooded == [0, 64, 448]


# ---------------------------------------------------------------------------
# Route-around off the grid: fully_connected routes by BFS.
# ---------------------------------------------------------------------------

def test_fully_connected_delivers_every_pair_before_and_after_a_kill():
    """fully_connected(4) is the one topology whose routes come from
    ``ClusterTopology._bfs_next_hops``, at boot and after route-around.
    Every ordered pair delivers, then again once edge 0 (supernodes 0--1)
    is killed and all four supernodes are reprogrammed."""
    from repro.cluster import TCCluster
    from repro.faults import FaultInjector, FaultKind, FaultPlan
    from repro.topology import fully_connected

    cl = TCCluster(fully_connected(4), memory_bytes=16 * MiB).boot()
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]

    def msg(tag, a, b):
        return bytes([tag, a, b, 0]) * 24

    def exchange(tag):
        got = {}

        def tx(a, b):
            yield from cl.library(a).connect(b).send(msg(tag, a, b))

        def rx(a, b):
            got[(a, b)] = yield from cl.library(b).connect(a).recv()

        for a, b in pairs:
            cl.sim.process(tx(a, b), name=f"tx{a}->{b}")
            cl.sim.process(rx(a, b), name=f"rx{a}->{b}")
        cl.run(until=cl.sim.now + 1e6)
        return got

    def forwarded():
        return sum(c.nb.counters["forwarded"]
                   for b in cl.boards for c in b.chips)

    assert exchange(1) == {(a, b): msg(1, a, b) for a, b in pairs}
    assert forwarded() == 0  # every pair is one hop apart
    FaultInjector(cl, FaultPlan().add(1_000.0, FaultKind.LINK_KILL, 0)).arm()
    cl.run(until=cl.sim.now + 2_000.0)
    assert cl.tcc_links[0].dead
    assert fault_counters(cl.sim).reroutes == 4
    assert exchange(2) == {(a, b): msg(2, a, b) for a, b in pairs}
    assert forwarded() > 0  # 0 <-> 1 now detours through 2 or 3
