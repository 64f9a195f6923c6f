"""Unit coverage for the crash/rejoin resynchronization machinery.

The chaos harness (``test_chaos.py``) proves the end-to-end property;
these tests pin the individual contracts: the HELLO/feedback wire
format, the lost-volatile-state model of ``crash_node``, the epoch
handshake itself, and the injector's up-front plan validation.
"""

import pytest

from repro.cluster import TCCluster
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.faults.injector import FaultPlanError
from repro.msglib import MsgConfig, SessionReset, TransportError
from repro.msglib.slots import (
    pack_feedback,
    pack_hello,
    unpack_feedback,
    unpack_feedback_epoch,
    unpack_header,
    unpack_hello,
)
from repro.obs.metrics import fault_counters
from repro.topology import chain
from repro.util.units import KiB, MiB

CFG = dict(send_deadline_ns=2e5, recv_deadline_ns=5e5,
           retransmit_base_ns=50_000.0)


def _pair():
    cfg = MsgConfig(**CFG)
    cl = TCCluster(chain(2), msg_cfg=cfg, memory_bytes=64 * MiB).boot()
    return cl, cl.library(0).connect(1), cl.library(1).connect(0)


def _drive(cl, gen, horizon_ns=5e6, name="driver"):
    """Run one generator process to completion; returns its result box."""
    box = {}

    def wrap():
        box["value"] = yield from gen()

    cl.sim.process(wrap(), name=name)
    cl.run(until=cl.sim.now + horizon_ns)
    return box


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def test_hello_roundtrip_and_validation():
    raw = pack_hello(7, epoch=3, recv_seq=41, heap_recvd=4096)
    seq, marker = unpack_header(raw)
    assert seq == 7
    assert unpack_hello(raw) == (3, 41, 4096)
    with pytest.raises(ValueError):
        pack_hello(7, epoch=0, recv_seq=0, heap_recvd=0)
    with pytest.raises(ValueError):
        pack_hello(7, epoch=-1, recv_seq=0, heap_recvd=0)


def test_feedback_epoch_zero_is_byte_identical_to_legacy_layout():
    """The epoch field rides in what used to be zero padding: fault-free
    feedback lines must stay bit-identical to the two-field format."""
    legacy = pack_feedback(12, 3072)
    assert unpack_feedback(legacy) == (12, 3072)
    assert unpack_feedback_epoch(legacy) == 0
    assert legacy == pack_feedback(12, 3072, epoch=0)
    stamped = pack_feedback(12, 3072, epoch=5)
    assert unpack_feedback(stamped) == (12, 3072)
    assert unpack_feedback_epoch(stamped) == 5
    # Only the epoch bytes differ.
    assert stamped[:16] == legacy[:16]
    assert stamped[24:] == legacy[24:]


# ---------------------------------------------------------------------------
# Lost-volatile-state model
# ---------------------------------------------------------------------------

def test_crash_node_discards_volatile_state_and_marks_sessions():
    cl, ep_a, ep_b = _pair()

    got = []

    def rx():
        data = yield from ep_b.recv()
        got.append(data)

    def warm():
        yield from ep_a.send(b"x" * 64)

    cl.sim.process(rx(), name="warm-rx")
    _drive(cl, warm)
    assert got == [b"x" * 64]
    fc = fault_counters(cl.sim)
    assert fc.node_crashes == 0
    # Warm a line into the victim's cache hierarchy (msglib polling is
    # uncached, so the ring traffic alone leaves the caches cold).
    cl.ranks[1].chip.caches.fill_line(0x1000, b"\xAA" * 64)
    cl.crash_node(1)
    assert fc.node_crashes == 1
    # The warmed line copy was on-chip state and is gone with the crash.
    assert fc.crash_lines_discarded > 0
    assert 0x1000 not in cl.ranks[1].chip.caches.levels[0]
    # The victim's endpoints are marked dead toward their peers so the
    # next reliable send runs the handshake instead of transmitting into
    # a torn session.
    assert ep_b.peer_dead
    assert not ep_a.peer_dead  # survivor learns via its send deadline


def test_crash_discard_drops_unacked_retransmit_images():
    cl, ep_a, _ = _pair()
    ep_a._unacked.append((1, 0, b"\x00" * 64, None, None))
    assert ep_a.crash_discard() == 1
    assert not ep_a._unacked
    assert ep_a.peer_dead


# ---------------------------------------------------------------------------
# The epoch handshake end to end
# ---------------------------------------------------------------------------

def test_handshake_resynchronizes_after_crash_rejoin():
    """Crash the receiver long enough to expire the send deadline; the
    sender's retry must resynchronize via HELLO/HELLO-ACK on its own
    and deliveries must resume gap-free."""
    cl, ep_a, ep_b = _pair()
    # The crash must land mid-stream (one message costs ~600 ns here).
    plan = (FaultPlan()
            .add(2_000.0, FaultKind.NODE_CRASH, 1)
            .add(400_000.0, FaultKind.NODE_WARM_RESET, 1))
    FaultInjector(cl, plan).arm()
    got = []

    def tx():
        sent = 0
        for i in range(6):
            for _ in range(8):
                try:
                    yield from ep_a.send(bytes([i]) * 64)
                    sent += 1
                    break
                except TransportError:
                    continue
        return sent

    def rx():
        # Dedupe: an expired send whose slots had already landed in DRAM
        # is legally redelivered after its app-level retry (at-least-once
        # on TransportError).
        while len(got) < 6:
            try:
                msg = yield from ep_b.recv()
            except TransportError:
                continue
            if msg[0] not in got:
                got.append(msg[0])

    cl.sim.process(rx(), name="rx")
    box = _drive(cl, tx, horizon_ns=2e7, name="tx")
    assert box["value"] == 6
    assert got == list(range(6))
    assert fault_counters(cl.sim).session_resets >= 1
    assert ep_a.session_epoch >= 1
    assert ep_a.session_epoch == ep_b.session_epoch
    assert ep_a.stats.session_resets + ep_b.stats.session_resets >= 2


def test_reconnect_times_out_with_session_reset_when_peer_stays_dead():
    """No rejoin: the reconnect handshake must fail with a typed
    SessionReset within its deadline instead of hanging."""
    cl, ep_a, _ = _pair()
    cl.crash_node(1)

    def tx():
        outcomes = []
        for _ in range(2):
            try:
                yield from ep_a.send(b"y" * 64)
                outcomes.append("ok")
            except SessionReset:
                outcomes.append("reset")
            except TransportError:
                outcomes.append("expired")
        return outcomes

    box = _drive(cl, tx, horizon_ns=5e6)
    # First send burns the deadline (peer declared dead), the retry runs
    # the handshake against a dead peer and surfaces SessionReset.
    assert box["value"] == ["expired", "reset"]
    assert ep_a.peer_dead


def _stale_slot_reconnect(fidelity):
    """Random-plan seed 32 of ``test_chaos.py``, written out: the sender's
    crash discards eight middle slots of 64-slot message 8, whose first
    and last slots have landed, and the retransmit images with them.
    The sender retries each failed send; the receiver retries each
    failed receive.  Returns (arming instant, delivery instants, sender
    errors, receiver error instants)."""
    plan = (FaultPlan()
            .add(3_703.3, FaultKind.CREDIT_STALL, 0, duration_ns=3_728.2)
            .add(4_205.2, FaultKind.BER_STORM, 0, duration_ns=28_526.0,
                 magnitude=0.00775)
            .add(21_804.7, FaultKind.NODE_CRASH, 0)
            .add(85_019.1, FaultKind.NODE_WARM_RESET, 0))
    cfg = MsgConfig(ring_bytes=16 * KiB, eager_max=7168,
                    fb_interval_slots=128, read_chunk=4 * KiB,
                    send_deadline_ns=4e5, recv_deadline_ns=2e6,
                    retransmit_base_ns=100_000.0)
    cl = TCCluster(chain(2), msg_cfg=cfg, memory_bytes=64 * MiB)
    cl.sim.features.adaptive_fidelity = fidelity
    cl.boot()
    t0 = cl.sim.now
    FaultInjector(cl, plan).arm()
    ep_a, ep_b = cl.library(0).connect(1), cl.library(1).connect(0)
    msgs = [bytes([i]) * 3584 for i in range(10)]
    got, at, tx_errors, rx_errors = [], [], [], []

    def tx():
        for msg in msgs:
            while True:
                try:
                    yield from ep_a.send(msg)
                    break
                except TransportError as exc:
                    tx_errors.append(type(exc))

    def rx():
        while len(got) < len(msgs):
            try:
                msg = yield from ep_b.recv()
            except TransportError:
                rx_errors.append(cl.sim.now)
                continue
            got.append(msg)
            at.append(cl.sim.now)

    cl.sim.process(tx(), name="tx")
    cl.sim.process(rx(), name="rx")
    cl.run(until=t0 + 1e7)
    assert got == msgs
    assert fault_counters(cl.sim).crash_packets_discarded == 8
    return t0, at, tx_errors, rx_errors


def test_hello_ends_a_wait_on_a_stale_middle_slot():
    """The reconnecting sender writes its HELLO over the first slot of
    message 8 (seq = acked + 1) while the receiver waits on a stale
    middle slot.  The receiver must take the HELLO and reset the
    session at once, not wait out its 2 ms recv deadline while the
    sender's reconnects end in SessionReset every 0.4 ms."""
    runs = [_stale_slot_reconnect(f) for f in (False, True)]
    assert runs[0] == runs[1]
    t0, at, tx_errors, rx_errors = runs[0]
    assert rx_errors == []
    # Only the send that outlived the crash expires; its retry's
    # handshake succeeds on the first attempt.
    assert tx_errors == [TransportError]
    assert at[8] - t0 < 5e5


# ---------------------------------------------------------------------------
# Injector plan validation
# ---------------------------------------------------------------------------

def test_arm_rejects_kill_then_kill_on_same_link():
    cl, _, _ = _pair()
    plan = (FaultPlan()
            .add(1_000.0, FaultKind.LINK_KILL, 0)
            .add(2_000.0, FaultKind.LINK_KILL, 0))
    with pytest.raises(FaultPlanError, match="conflict"):
        FaultInjector(cl, plan).arm()


def test_arm_rejects_fault_on_crashed_rank():
    cl, _, _ = _pair()
    plan = (FaultPlan()
            .add(1_000.0, FaultKind.NODE_CRASH, 1)
            .add(2_000.0, FaultKind.NODE_CRASH, 1))
    with pytest.raises(FaultPlanError):
        FaultInjector(cl, plan).arm()


def test_arm_on_conflict_skip_records_dropped_events():
    cl, _, _ = _pair()
    plan = (FaultPlan()
            .add(1_000.0, FaultKind.LINK_KILL, 0)
            .add(2_000.0, FaultKind.LINK_KILL, 0)
            .add(3_000.0, FaultKind.NODE_CRASH, 1))
    inj = FaultInjector(cl, plan)
    armed = inj.arm(on_conflict="skip")
    assert armed == 2
    assert len(inj.skipped) == 1
    ev, why = inj.skipped[0]
    assert ev.at_ns == 2_000.0 and ev.kind is FaultKind.LINK_KILL
    assert why
    with pytest.raises(ValueError):
        FaultInjector(cl, plan).arm(on_conflict="maybe")
