"""Chaos harness: seeded fault plans vs delivery/consistency oracles.

Every test runs a pairwise message workload on a small booted cluster
while a :class:`FaultPlan` fires (link flaps, credit stalls, BER storms,
permanent link kills, node crash + warm-reset rejoin), then checks the
invariants the recovery machinery promises:

* **exactly-once-or-failed** -- every send that returned success was
  delivered; nothing is delivered twice (monotonic sequence numbers make
  retransmit duplicates invisible);
* **prefix delivery** -- the channel is FIFO, so the delivered stream is
  a gap-free prefix of the sent stream with payloads intact;
* **byte conservation** -- receiver stats account exactly for the
  delivered payload bytes (no silent loss, no phantom data);
* **no deadlock** -- both processes finish (success or a typed
  ``TransportError``) before the horizon;
* **determinism** -- the same seed replays to the identical outcome.
"""

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import pytest

from repro.cluster import TCCluster
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.msglib import MsgConfig, TransportError
from repro.obs.metrics import fault_counters, flow_counters
from repro.topology import chain, mesh2d, ring, torus3d
from repro.util.units import KiB, MiB

TRANSIENT = (FaultKind.LINK_FLAP, FaultKind.CREDIT_STALL, FaultKind.BER_STORM)
DESTRUCTIVE = TRANSIENT + (FaultKind.NODE_CRASH,)

N_MSGS = 60
MSG_BYTES = 96
HORIZON_NS = 6e7


def payload(i: int, nbytes: int = MSG_BYTES) -> bytes:
    return bytes([i % 251] * nbytes)


@dataclass
class ChaosOutcome:
    sent_ok: int = 0
    delivered: List[bytes] = field(default_factory=list)
    #: Virtual instant each delivered message's ``recv`` returned.  The
    #: run always ends at the horizon, so these are what time the replay.
    delivered_at: List[float] = field(default_factory=list)
    tx_error: Optional[str] = None
    rx_error: Optional[str] = None
    tx_done: bool = False
    rx_done: bool = False
    faults: dict = field(default_factory=dict)
    bytes_received: int = 0
    #: Macro windows opened by the flow-level fast paths, and trains
    #: demoted.  Deliberately NOT part of the fingerprint: fidelity on/off
    #: must replay to the same outcome while these counters differ.
    train_demotions: int = 0
    macro_windows: int = 0

    def fingerprint(self) -> Tuple:
        """Everything that must replay identically for one seed."""
        return (self.sent_ok, tuple(self.delivered),
                tuple(self.delivered_at), self.tx_error, self.rx_error,
                tuple(sorted(self.faults.items())))


def run_chaos(topo_factory, plan: FaultPlan,
              n_msgs: int = N_MSGS, endpoints=None,
              msg_bytes: int = MSG_BYTES, fidelity: bool = False,
              cfg_extra: Optional[dict] = None) -> ChaosOutcome:
    """``endpoints`` maps the booted cluster to the (tx, rx) ranks; the
    default keeps the historical rank 0 -> rank 1 workload.  Grid tests
    pass ``cl.rank_of(...)`` pairs so multi-chip boards (torus3d) and
    corner-to-corner paths get exercised.  ``fidelity`` switches the
    macro-event plane (trains, commit spans, slot spans, read flows)
    before boot, so the same seeded plan can be replayed against either
    execution mode."""
    cfg = MsgConfig(**{"send_deadline_ns": 5e6, "recv_deadline_ns": 2e7,
                       "retransmit_base_ns": 100_000.0, **(cfg_extra or {})})
    cl = TCCluster(topo_factory(), msg_cfg=cfg, memory_bytes=64 * MiB)
    cl.sim.features.adaptive_fidelity = fidelity
    cl.boot()
    # Seeded random plans may legally collide (kill a link twice, flap a
    # crashed node's link); skip-mode drops those deterministically.
    FaultInjector(cl, plan).arm(on_conflict="skip")
    rank_a, rank_b = endpoints(cl) if endpoints is not None else (0, 1)
    ep_a = cl.library(rank_a).connect(rank_b)
    ep_b = cl.library(rank_b).connect(rank_a)
    out = ChaosOutcome()

    def tx(_proc=None):
        try:
            for i in range(n_msgs):
                yield from ep_a.send(payload(i, msg_bytes))
                out.sent_ok += 1
        except TransportError as exc:
            out.tx_error = str(exc)
        out.tx_done = True

    def rx(_proc=None):
        try:
            for _ in range(n_msgs):
                msg = yield from ep_b.recv()
                out.delivered.append(bytes(msg))
                out.delivered_at.append(cl.sim.now)
        except TransportError as exc:
            out.rx_error = str(exc)
        out.rx_done = True

    cl.sim.process(tx(), name="chaos-tx")
    cl.sim.process(rx(), name="chaos-rx")
    cl.run(HORIZON_NS)
    out.faults = {k: v for k, v in fault_counters(cl.sim).as_dict().items()
                  if v}
    out.bytes_received = ep_b.stats.bytes_received
    fl = flow_counters(cl.sim)
    out.macro_windows = fl.slot_windows + fl.read_windows
    out.train_demotions = sum(r.chip.nb.counters.get("train_demotions")
                              for r in cl.ranks)
    return out


def check_oracles(out: ChaosOutcome, n_msgs: int = N_MSGS,
                  msg_bytes: int = MSG_BYTES) -> None:
    # No deadlock: both sides came to a verdict before the horizon.
    assert out.tx_done, "sender wedged (deadline watchdog failed to fire)"
    assert out.rx_done, "receiver wedged (deadline watchdog failed to fire)"
    # Prefix delivery, payloads intact, no duplicates or reordering.
    for i, msg in enumerate(out.delivered):
        assert msg == payload(i, msg_bytes), (
            f"message {i} corrupted or out of order")
    assert len(out.delivered) <= n_msgs
    # Exactly-once-or-failed: an acked send was consumed by the receiver
    # (an expired send may still have landed -- at-most-once on failure).
    assert len(out.delivered) >= out.sent_ok, (
        f"silent loss: {out.sent_ok} sends acked, "
        f"{len(out.delivered)} delivered"
    )
    if out.tx_error is None and out.rx_error is None:
        assert out.sent_ok == n_msgs
        assert len(out.delivered) == n_msgs
    # Byte conservation.
    assert out.bytes_received == sum(len(m) for m in out.delivered)


# ---------------------------------------------------------------------------
# Directed scenarios (one per fault kind).
# ---------------------------------------------------------------------------

def test_empty_plan_is_clean():
    out = run_chaos(lambda: chain(2), FaultPlan())
    check_oracles(out)
    assert out.faults == {}
    assert out.tx_error is None and out.rx_error is None


def test_link_flap_heals():
    plan = FaultPlan().add(6_000.0, FaultKind.LINK_FLAP, 0,
                           duration_ns=12_000.0)
    out = run_chaos(lambda: chain(2), plan)
    check_oracles(out)
    assert out.tx_error is None and out.rx_error is None
    assert len(out.delivered) == N_MSGS
    assert out.faults.get("retrains", 0) >= 1


def test_credit_stall_recovers():
    plan = FaultPlan().add(5_000.0, FaultKind.CREDIT_STALL, 0,
                           duration_ns=8_000.0)
    out = run_chaos(lambda: chain(2), plan)
    check_oracles(out)
    assert len(out.delivered) == N_MSGS


def test_ber_storm_retries_through():
    plan = FaultPlan().add(4_000.0, FaultKind.BER_STORM, 0,
                           duration_ns=30_000.0, magnitude=1e-3)
    out = run_chaos(lambda: chain(2), plan)
    check_oracles(out)
    assert len(out.delivered) == N_MSGS


def test_link_kill_routes_around_on_ring():
    """Killing the direct 0--1 link reroutes through supernode 2."""
    plan = FaultPlan().add(8_000.0, FaultKind.LINK_KILL, 0)
    out = run_chaos(lambda: ring(3), plan)
    check_oracles(out)
    assert out.tx_error is None and out.rx_error is None
    assert len(out.delivered) == N_MSGS
    assert out.faults.get("reroutes", 0) == 3  # every supernode reprogrammed
    assert out.faults.get("fatal_broadcasts", 0) == 0


def test_link_kill_on_chain_is_fatal():
    """chain(2) has no redundancy: the kill must fail the workload with a
    typed error (not a hang) and raise the fatal broadcast."""
    plan = FaultPlan().add(8_000.0, FaultKind.LINK_KILL, 0)
    out = run_chaos(lambda: chain(2), plan)
    check_oracles(out)
    assert out.tx_error is not None or out.rx_error is not None
    assert out.faults.get("fatal_broadcasts", 0) >= 1


def test_node_crash_then_rejoin():
    plan = (FaultPlan()
            .add(7_000.0, FaultKind.NODE_CRASH, 1)
            .add(22_000.0, FaultKind.NODE_WARM_RESET, 1))
    out = run_chaos(lambda: chain(2), plan)
    check_oracles(out)
    assert out.faults.get("node_crashes") == 1
    assert out.faults.get("node_rejoins") == 1
    # The crash window is shorter than the send deadline: the workload
    # rides through on link-level NAK + warm retrain.
    assert len(out.delivered) == N_MSGS


# ---------------------------------------------------------------------------
# Grid topologies (mesh2d / torus3d) under multi-fault plans.
# ---------------------------------------------------------------------------

def _corner_ranks(last_supernode):
    return lambda cl: (cl.rank_of(0), cl.rank_of(last_supernode))


def test_chaos_mesh_double_kill_routes_around():
    """mesh2d(3,3): kill edge 0 (supernodes 0-1) and edge 9 (5-8) under a
    corner-to-corner workload.  The mesh stays connected, so route-around
    must deliver everything with zero fatal broadcasts -- and the byte
    conservation oracle catches any packet the reroute duplicated or ate.
    """
    plan = (FaultPlan()
            .add(8_000.0, FaultKind.LINK_KILL, 0)
            .add(16_000.0, FaultKind.LINK_KILL, 9))
    out = run_chaos(lambda: mesh2d(3, 3), plan, endpoints=_corner_ranks(8))
    check_oracles(out)
    assert out.tx_error is None and out.rx_error is None
    assert len(out.delivered) == N_MSGS
    assert out.bytes_received == N_MSGS * MSG_BYTES
    assert out.faults.get("reroutes", 0) >= 9  # every supernode, twice
    assert out.faults.get("fatal_broadcasts", 0) == 0


def test_chaos_torus3d_multi_fault_heals():
    """torus3d(2,2,2) (two chips per board): a link kill plus a flap and
    a BER storm while antipodal corners (3 hops) exchange the workload.
    Degree-3 connectivity survives one kill, so delivery must be total.
    """
    plan = (FaultPlan()
            .add(5_000.0, FaultKind.BER_STORM, 3,
                 duration_ns=20_000.0, magnitude=1e-3)
            .add(9_000.0, FaultKind.LINK_KILL, 0)
            .add(14_000.0, FaultKind.LINK_FLAP, 7, duration_ns=9_000.0))
    out = run_chaos(lambda: torus3d(2, 2, 2), plan, endpoints=_corner_ranks(7))
    check_oracles(out)
    assert out.tx_error is None and out.rx_error is None
    assert len(out.delivered) == N_MSGS
    assert out.bytes_received == N_MSGS * MSG_BYTES
    assert out.faults.get("reroutes", 0) >= 8
    assert out.faults.get("fatal_broadcasts", 0) == 0


@pytest.mark.parametrize("seed", range(3))
def test_chaos_grid_seeded_multi_fault(seed):
    """Seeded destructive plans on both grid shapes.  Typed errors are
    acceptable (a kill can sever the corner pair's only short paths
    mid-flight); silent loss, duplication, or hangs are not."""
    mesh = mesh2d(3, 3)
    tor = torus3d(2, 2, 2)
    for topo_factory, n_links, n_ranks, last in (
            (lambda: mesh2d(3, 3), len(mesh.edges), 9, 8),
            (lambda: torus3d(2, 2, 2), len(tor.edges), 16, 7)):
        plan = FaultPlan.random(seed, horizon_ns=30_000.0,
                                num_links=n_links, num_ranks=n_ranks,
                                n_events=4,
                                kinds=DESTRUCTIVE + (FaultKind.LINK_KILL,))
        out = run_chaos(topo_factory, plan, endpoints=_corner_ranks(last))
        check_oracles(out)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12))
def test_chaos_grid_sweep(seed):
    """Wider seeded grid sweep for the nightly job (multi-kill plans)."""
    mesh = mesh2d(3, 3)
    tor = torus3d(2, 2, 2)
    topo_factory, n_links, n_ranks, last = (
        (lambda: mesh2d(3, 3), len(mesh.edges), 9, 8) if seed % 2 == 0
        else (lambda: torus3d(2, 2, 2), len(tor.edges), 16, 7))
    plan = FaultPlan.random(seed + 100, horizon_ns=40_000.0,
                            num_links=n_links, num_ranks=n_ranks,
                            n_events=6,
                            kinds=DESTRUCTIVE + (FaultKind.LINK_KILL,))
    out = run_chaos(topo_factory, plan, endpoints=_corner_ranks(last))
    check_oracles(out)


# ---------------------------------------------------------------------------
# Faults during slot-span traffic (fidelity on vs off).
# ---------------------------------------------------------------------------

#: Eager-span friendly msglib config: big ring, 3584-byte messages
#: coalesce into 64-slot spans that ride bulk trains when fidelity is on.
_BULK_CFG = dict(ring_bytes=16 * KiB, eager_max=7168,
                 fb_interval_slots=128, read_chunk=4 * KiB)
BULK_BYTES = 3584
BULK_MSGS = 10


def _storm_at(seed: int) -> float:
    return 4_000.0 + (seed * 977) % 6_000


def _compound_outcome(seed: int, fidelity: bool) -> ChaosOutcome:
    """BER storm AND credit stall overlapping on link 0 while an eager
    bulk stream is in flight.  The armed stall holds slot spans off
    until it fires (DESIGN.md section 12): with fidelity on, spans
    planned while the storm's BER is raised ride no train, and trains
    return after the storm.  The replay oracle audits the whole run."""
    storm_at = _storm_at(seed)
    stall_at = storm_at + 2_000.0 + (seed * 131) % 4_000
    plan = (FaultPlan()
            .add(storm_at, FaultKind.BER_STORM, 0,
                 duration_ns=15_000.0, magnitude=1e-3)
            .add(stall_at, FaultKind.CREDIT_STALL, 0,
                 duration_ns=6_000.0))
    return run_chaos(lambda: chain(2), plan, n_msgs=BULK_MSGS,
                     msg_bytes=BULK_BYTES, fidelity=fidelity,
                     cfg_extra=_BULK_CFG)


@pytest.mark.parametrize("seed", range(5))
def test_compound_fault_macro_flow_oracle(seed):
    """The two execution modes must reach the identical outcome, every
    delivery instant included."""
    fast = _compound_outcome(seed, fidelity=True)
    slow = _compound_outcome(seed, fidelity=False)
    check_oracles(fast, n_msgs=BULK_MSGS, msg_bytes=BULK_BYTES)
    check_oracles(slow, n_msgs=BULK_MSGS, msg_bytes=BULK_BYTES)
    assert fast.macro_windows >= 1, "no macro flow ever formed"
    assert slow.macro_windows == 0
    assert fast.fingerprint() == slow.fingerprint()


def test_compound_fault_replays_identically():
    """Same seed, fidelity on, run twice: the fingerprint (including the
    macro window count) must replay exactly."""
    a = _compound_outcome(2, fidelity=True)
    b = _compound_outcome(2, fidelity=True)
    assert a.fingerprint() == b.fingerprint()
    assert a.macro_windows == b.macro_windows


def _storm_outcome(seed: int, fidelity: bool) -> ChaosOutcome:
    plan = FaultPlan().add(_storm_at(seed), FaultKind.BER_STORM, 0,
                           duration_ns=15_000.0, magnitude=1e-3)
    return run_chaos(lambda: chain(2), plan, n_msgs=BULK_MSGS,
                     msg_bytes=BULK_BYTES, fidelity=fidelity,
                     cfg_extra=_BULK_CFG)


#: Seeds whose storm starts while a slot span's train is open; on seeds
#: 0 and 3 it starts between two trains.
_STORM_IN_TRAIN = (1, 2, 4)


@pytest.mark.parametrize("seed", range(5))
def test_storm_in_slot_span_window_oracle(seed):
    """A BER storm alone hits link 0 during slot-span traffic.  Where it
    starts inside a span's open train, raising the BER demotes the train
    mid-window.  Either way the run matches the per-packet one, every
    delivery instant included."""
    fast = _storm_outcome(seed, fidelity=True)
    slow = _storm_outcome(seed, fidelity=False)
    check_oracles(fast, n_msgs=BULK_MSGS, msg_bytes=BULK_BYTES)
    if seed in _STORM_IN_TRAIN:
        assert fast.train_demotions >= 1, "the storm missed every open train"
    assert fast.fingerprint() == slow.fingerprint()


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12))
def test_compound_fault_macro_flow_sweep(seed):
    fast = _compound_outcome(seed + 40, fidelity=True)
    slow = _compound_outcome(seed + 40, fidelity=False)
    check_oracles(fast, n_msgs=BULK_MSGS, msg_bytes=BULK_BYTES)
    assert fast.fingerprint() == slow.fingerprint()


#: Seeds of the random-plan oracle below whose run delivers a message
#: with stale ring-slot payloads; empty since the receiver checks every
#: middle slot's sequence number.
_RANDOM_PLAN_CORRUPTS = ()


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40))
def test_random_plan_slot_span_oracle(seed):
    """Seeded random plans against the eager bulk stream, which runs in
    slot spans once the plan's held-off faults have acted: flaps,
    stalls, storms and crash/rejoin on ``chain(2)``, plus kills on
    ``ring(3)``.  Both execution modes reach the identical outcome,
    every delivery instant included."""
    kinds = DESTRUCTIVE + ((FaultKind.LINK_KILL,) if seed % 2 else ())
    plan = FaultPlan.random(seed, horizon_ns=40_000.0, num_links=3,
                            num_ranks=3, n_events=3, kinds=kinds)
    topo = (lambda: ring(3)) if seed % 2 else (lambda: chain(2))
    fast, slow = (run_chaos(topo, plan, n_msgs=BULK_MSGS,
                            msg_bytes=BULK_BYTES, fidelity=f,
                            cfg_extra=_BULK_CFG) for f in (True, False))
    assert fast.fingerprint() == slow.fingerprint()
    if seed in _RANDOM_PLAN_CORRUPTS:
        with pytest.raises(AssertionError, match="corrupted"):
            check_oracles(fast, n_msgs=BULK_MSGS, msg_bytes=BULK_BYTES)
    else:
        check_oracles(fast, n_msgs=BULK_MSGS, msg_bytes=BULK_BYTES)


def test_crash_lost_middle_slots_are_never_delivered():
    """Random-plan seed 32, written out: the sender's crash discards
    eight middle slots of a 64-slot message whose first and last slots
    have landed.  The receiver must see the stale middle slots and wait
    for them instead of delivering stale data.  The crash also lost the
    sender's retransmit images, so the message fails on both sides
    (short deadlines keep the wait cheap)."""
    plan = (FaultPlan()
            .add(3_703.3, FaultKind.CREDIT_STALL, 0, duration_ns=3_728.2)
            .add(4_205.2, FaultKind.BER_STORM, 0, duration_ns=28_526.0,
                 magnitude=0.00775)
            .add(21_804.7, FaultKind.NODE_CRASH, 0)
            .add(85_019.1, FaultKind.NODE_WARM_RESET, 0))
    cfg = dict(_BULK_CFG, send_deadline_ns=4e5, recv_deadline_ns=4e5)
    fast, slow = (run_chaos(lambda: chain(2), plan, n_msgs=BULK_MSGS,
                            msg_bytes=BULK_BYTES, fidelity=f,
                            cfg_extra=cfg) for f in (True, False))
    assert fast.fingerprint() == slow.fingerprint()
    assert fast.faults["crash_packets_discarded"] == 8
    check_oracles(fast, n_msgs=BULK_MSGS, msg_bytes=BULK_BYTES)
    assert len(fast.delivered) == 8
    assert fast.tx_error is not None and fast.rx_error is not None


# ---------------------------------------------------------------------------
# Seeded random plans.
# ---------------------------------------------------------------------------

def _random_outcome(seed: int) -> ChaosOutcome:
    plan = FaultPlan.random(seed, horizon_ns=30_000.0, num_links=1,
                            num_ranks=2, n_events=3, kinds=TRANSIENT)
    return run_chaos(lambda: chain(2), plan)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_transient_plans(seed):
    out = _random_outcome(seed)
    check_oracles(out)
    # Transient faults with generous deadlines must always heal.
    assert out.tx_error is None and out.rx_error is None
    assert len(out.delivered) == N_MSGS


def test_same_seed_replays_identically():
    a = _random_outcome(3)
    b = _random_outcome(3)
    assert a.fingerprint() == b.fingerprint()


def test_plan_random_is_deterministic():
    p1 = FaultPlan.random(11, horizon_ns=1e6, n_events=6, kinds=DESTRUCTIVE)
    p2 = FaultPlan.random(11, horizon_ns=1e6, n_events=6, kinds=DESTRUCTIVE)
    assert p1.events == p2.events
    p3 = FaultPlan.random(12, horizon_ns=1e6, n_events=6, kinds=DESTRUCTIVE)
    assert p1.events != p3.events


def test_random_crash_always_pairs_rejoin():
    plan = FaultPlan.random(7, horizon_ns=1e6, n_events=10,
                            kinds=(FaultKind.NODE_CRASH,))
    crashes = [e for e in plan.events if e.kind is FaultKind.NODE_CRASH]
    rejoins = [e for e in plan.events if e.kind is FaultKind.NODE_WARM_RESET]
    assert len(crashes) == len(rejoins) == 10
    for c, r in zip(sorted(crashes, key=lambda e: e.at_ns),
                    sorted(rejoins, key=lambda e: e.at_ns)):
        assert r.at_ns > c.at_ns


@pytest.mark.slow
@pytest.mark.parametrize("fidelity", [False, True],
                         ids=["per_packet", "macro"])
@pytest.mark.parametrize("seed", range(50))
def test_chaos_sweep(seed, fidelity):
    """The acceptance sweep: 50 seeded plans, mixed kinds, all oracles,
    run under both execution modes (per-packet and macro).

    Even kills and crashes are fair game on the ring (route-around keeps
    connectivity); errors are allowed, silent loss and hangs are not.
    """
    kinds = TRANSIENT if seed % 2 else DESTRUCTIVE + (FaultKind.LINK_KILL,)
    topo = (lambda: ring(3)) if seed % 2 == 0 else (lambda: chain(2))
    plan = FaultPlan.random(seed, horizon_ns=30_000.0, num_links=3,
                            num_ranks=3, n_events=4, kinds=kinds)
    out = run_chaos(topo, plan, fidelity=fidelity)
    check_oracles(out)


# ---------------------------------------------------------------------------
# Crash/rejoin resynchronization under sustained load (epoch handshake).
#
# Unlike the plain chaos harness above -- whose workload gives up on the
# first TransportError -- this one models an application that *retries*:
# crash windows are drawn longer than the send deadline, so the sender's
# peer-dead verdict is guaranteed to fire and recovery must go through
# the in-band HELLO/HELLO-ACK session handshake, the only reconnect
# path the message library has.
# ---------------------------------------------------------------------------

REJOIN_MSGS = 40
REJOIN_BYTES = 128
REJOIN_HORIZON_NS = 4e7
REJOIN_SEND_RETRIES = 16
REJOIN_RECV_RETRIES = 400


def rejoin_payload(i: int, nbytes: int = REJOIN_BYTES) -> bytes:
    """Self-identifying payload: the message index rides in the first
    four bytes, so delivery can be checked as a *set* of indices --
    retry-after-landed sends legally duplicate."""
    return i.to_bytes(4, "little") + bytes([i % 251]) * (nbytes - 4)


@dataclass
class RejoinOutcome:
    indices: Set[int] = field(default_factory=set)
    duplicates: int = 0
    corrupt: int = 0
    tx_retries: int = 0
    rx_retries: int = 0
    tx_failed: List[int] = field(default_factory=list)
    tx_done: bool = False
    rx_done: bool = False
    faults: dict = field(default_factory=dict)
    end_ns: float = 0.0
    bytes_received: int = 0
    received_bytes_total: int = 0
    session_epochs: Tuple[int, int] = (0, 0)

    def fingerprint(self) -> Tuple:
        return (tuple(sorted(self.indices)), self.duplicates,
                self.tx_retries, self.rx_retries,
                tuple(sorted(self.faults.items())), self.end_ns)


def make_rejoin_plan(seed: int) -> FaultPlan:
    """1-3 crash/rejoin pairs with outage windows that straddle the send
    deadline (1e5..8e5 ns vs a 3e5 ns deadline), alternating victims so
    both the sender's and the receiver's crash paths get exercised.
    Windows are sequential by construction, so the plan is conflict-free."""
    rng = random.Random(0xBEEF ^ seed)
    plan = FaultPlan()
    t = 4_000.0 + rng.random() * 4_000.0
    for k in range(1 + rng.randrange(3)):
        victim = rng.randrange(2) if k else 1
        window = 100_000.0 + rng.random() * 700_000.0
        plan.add(t, FaultKind.NODE_CRASH, victim)
        plan.add(t + window, FaultKind.NODE_WARM_RESET, victim)
        t += window + 200_000.0 + rng.random() * 300_000.0
    return plan


def run_rejoin_chaos(seed: int, n_msgs: int = REJOIN_MSGS) -> RejoinOutcome:
    cfg = MsgConfig(send_deadline_ns=3e5, recv_deadline_ns=5e5,
                    retransmit_base_ns=50_000.0)
    cl = TCCluster(chain(2), msg_cfg=cfg, memory_bytes=64 * MiB)
    cl.boot()
    FaultInjector(cl, make_rejoin_plan(seed)).arm(on_conflict="skip")
    ep_a = cl.library(0).connect(1)
    ep_b = cl.library(1).connect(0)
    out = RejoinOutcome()

    def tx(_proc=None):
        for i in range(n_msgs):
            for _attempt in range(REJOIN_SEND_RETRIES):
                try:
                    yield from ep_a.send(rejoin_payload(i))
                    break
                except TransportError:
                    out.tx_retries += 1
            else:
                out.tx_failed.append(i)
        out.tx_done = True

    def rx(_proc=None):
        attempts = 0
        while len(out.indices) < n_msgs and attempts < REJOIN_RECV_RETRIES:
            attempts += 1
            try:
                msg = yield from ep_b.recv()
            except TransportError:
                out.rx_retries += 1
                continue
            i = int.from_bytes(msg[:4], "little")
            if bytes(msg) != rejoin_payload(i):
                out.corrupt += 1
            elif i in out.indices:
                out.duplicates += 1
            else:
                out.indices.add(i)
            out.received_bytes_total += len(msg)
        out.rx_done = True

    cl.sim.process(tx(), name="rejoin-tx")
    cl.sim.process(rx(), name="rejoin-rx")
    cl.run(REJOIN_HORIZON_NS)
    out.faults = {k: v for k, v in fault_counters(cl.sim).as_dict().items()
                  if v}
    out.end_ns = cl.sim.now
    out.bytes_received = ep_b.stats.bytes_received
    out.session_epochs = (ep_a.session_epoch, ep_b.session_epoch)
    return out


def check_rejoin_oracles(out: RejoinOutcome,
                         n_msgs: int = REJOIN_MSGS) -> None:
    # No deadlock: both retry loops came to a verdict before the horizon.
    assert out.tx_done, "sender wedged across crash/rejoin"
    assert out.rx_done, "receiver wedged across crash/rejoin"
    # Gap-free delivery through every crash: the full index set arrived
    # (duplicates from retry-after-landed sends are legal and invisible).
    assert not out.tx_failed, (
        f"messages {out.tx_failed} never sent despite retries")
    assert out.indices == set(range(n_msgs)), (
        f"lost messages: {sorted(set(range(n_msgs)) - out.indices)}")
    assert out.corrupt == 0
    # Byte conservation: endpoint accounting matches what rx consumed.
    assert out.bytes_received == out.received_bytes_total
    # The fault plan actually crashed and rejoined nodes.
    assert out.faults.get("node_crashes", 0) >= 1
    assert out.faults.get("node_crashes") == out.faults.get("node_rejoins")


@pytest.mark.parametrize("seed", range(8))
def test_rejoin_chaos_fast(seed):
    """Tier-1 subset: eight seeded crash/rejoin-under-load scenarios."""
    out = run_rejoin_chaos(seed)
    check_rejoin_oracles(out)


def test_rejoin_handshake_actually_fires():
    """At least one fast seed must recover through the epoch handshake
    (not just ride through on link retransmit) -- otherwise the sweep
    proves nothing about resynchronization."""
    resets = 0
    for seed in range(8):
        out = run_rejoin_chaos(seed)
        resets += out.faults.get("session_resets", 0)
        if resets:
            assert max(out.session_epochs) >= 1
            break
    assert resets >= 1, "no seed ever exercised the reconnect handshake"


def test_rejoin_chaos_replays_identically():
    a = run_rejoin_chaos(5)
    b = run_rejoin_chaos(5)
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(50))
def test_rejoin_chaos_sweep(seed):
    """The acceptance sweep: 50 seeded crash/rejoin plans under
    sustained load, all oracles, recovery through the handshake alone."""
    out = run_rejoin_chaos(seed)
    check_rejoin_oracles(out)


# ---------------------------------------------------------------------------
# Collectives under faults
# ---------------------------------------------------------------------------

def test_allreduce_through_link_flap_fidelity_identical():
    """A 16-rank ring allreduce on torus3d(2,2,2) runs to the correct
    result *through* link flaps (retransmission recovers mid-collective),
    and the macro-event fast paths replay the identical outcome --
    same result bytes and same virtual completion time as the
    per-packet plane."""
    import numpy as np

    from repro.middleware import Communicator

    plan_events = ((6_000.0, 1, 9_000.0), (20_000.0, 7, 12_000.0))
    fingerprints = {}
    for fidelity in (False, True):
        cfg = MsgConfig(send_deadline_ns=5e6, recv_deadline_ns=2e7,
                        retransmit_base_ns=100_000.0)
        cl = TCCluster(torus3d(2, 2, 2), msg_cfg=cfg, memory_bytes=64 * MiB)
        cl.sim.features.adaptive_fidelity = fidelity
        cl.boot()
        plan = FaultPlan()
        for at, link, dur in plan_events:
            plan.add(at, FaultKind.LINK_FLAP, link, duration_ns=dur)
        FaultInjector(cl, plan).arm(on_conflict="skip")
        n = cl.nranks
        comms = [Communicator.for_cluster(cl, r) for r in range(n)]
        assert comms[0].ring_single_hop
        inputs = [np.arange(2048, dtype=np.float64) * 0.25 + r
                  for r in range(n)]
        oracle = np.sum(inputs, axis=0)
        procs = [cl.sim.process(comms[r].allreduce(inputs[r],
                                                   algorithm="ring"))
                 for r in range(n)]
        cl.sim.run_until_event(cl.sim.all_of(procs))
        outs = [p.value for p in procs]
        assert np.allclose(outs[0], oracle)
        first = outs[0].tobytes()
        assert all(o.tobytes() == first for o in outs)
        faults = {k: v for k, v in
                  fault_counters(cl.sim).as_dict().items() if v}
        assert faults.get("retrains", 0) >= 1, \
            "the flap plan never actually perturbed the fabric"
        fingerprints[fidelity] = (first, cl.sim.now,
                                  tuple(sorted(faults.items())))
    assert fingerprints[False] == fingerprints[True]
