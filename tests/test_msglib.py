"""Tests for the message library: slots, flow control, endpoints, barrier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TCClusterSystem
from repro.msglib import (
    ClusterBarrier,
    MessageError,
    MsgConfig,
    RENDEZVOUS_MARKER,
    SLOT_PAYLOAD,
    pack_feedback,
    pack_rendezvous_control,
    pack_slot,
    slots_needed,
    unpack_feedback,
    unpack_header,
    unpack_payload,
    unpack_rendezvous_control,
)


# ---------------------------------------------------------------------------
# Slot codecs (pure)
# ---------------------------------------------------------------------------

def test_slot_roundtrip():
    raw = pack_slot(7, 100, b"hello")
    assert len(raw) == 64
    assert unpack_header(raw) == (7, 100)
    assert unpack_payload(raw, 5) == b"hello"


def test_slot_seq_must_be_nonzero():
    with pytest.raises(ValueError):
        pack_slot(0, 10, b"x")


def test_slot_payload_capped():
    with pytest.raises(ValueError):
        pack_slot(1, 60, b"\x00" * 57)


def test_rendezvous_control_roundtrip():
    raw = pack_rendezvous_control(3, 0x4000, 123456, 0x8000)
    seq, marker = unpack_header(raw)
    assert seq == 3 and marker == RENDEZVOUS_MARKER
    assert unpack_rendezvous_control(raw) == (0x4000, 123456, 0x8000)


def test_feedback_roundtrip():
    raw = pack_feedback(42, 1 << 40)
    assert len(raw) == 64
    assert unpack_feedback(raw) == (42, 1 << 40)


def test_slots_needed():
    assert slots_needed(1) == 1
    assert slots_needed(56) == 1
    assert slots_needed(57) == 2
    assert slots_needed(56 * 10) == 10
    with pytest.raises(ValueError):
        slots_needed(0)


@given(seq=st.integers(1, 2**32 - 1), length=st.integers(0, 2**32 - 1),
       payload=st.binary(max_size=56))
@settings(max_examples=100)
def test_slot_roundtrip_property(seq, length, payload):
    raw = pack_slot(seq, length, payload)
    assert unpack_header(raw) == (seq, length)
    assert unpack_payload(raw, len(payload)) == payload


# ---------------------------------------------------------------------------
# Config / layout
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        MsgConfig(ring_bytes=100)
    with pytest.raises(ValueError):
        MsgConfig(eager_max=4096)  # exceeds half the ring
    with pytest.raises(ValueError):
        MsgConfig(fb_interval_slots=64)


def test_layout_offsets_disjoint():
    lo = MsgConfig().layout(8)
    ring_off, ring_sz = lo.ring_region()
    fb_off, fb_sz = lo.fb_region()
    heap_off, heap_sz = lo.heap_region()
    assert ring_off + ring_sz <= fb_off
    assert fb_off + fb_sz <= heap_off
    assert lo.required_bytes() == heap_off + heap_sz


def test_layout_addressing_symmetry():
    lo = MsgConfig().layout(4)
    # ring of sender r is distinct per r and page aligned
    rings = [lo.ring_of_sender(r) for r in range(4)]
    assert len(set(rings)) == 4
    assert all(r % 4096 == 0 for r in rings)
    with pytest.raises(ValueError):
        lo.ring_of_sender(4)


# ---------------------------------------------------------------------------
# End-to-end endpoint behaviour (on the booted prototype)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def system():
    return TCClusterSystem.two_board_prototype().boot()


@pytest.fixture(scope="module")
def pair(system):
    cl = system.cluster
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    return system, *system.connect(a, b)


def run(system, *gens):
    procs = [system.sim.process(g) for g in gens]
    system.sim.run_until_event(system.sim.all_of(procs))
    return [p.value for p in procs]


def test_eager_roundtrip(pair):
    system, tx, rx = pair
    msg = b"0123456789" * 5  # 50 bytes, single slot

    def sender():
        yield from tx.send(msg)
        yield from tx.flush()

    def receiver():
        data = yield from rx.recv()
        return data

    _, got = run(system, sender(), receiver())
    assert got == msg


def test_multislot_eager_roundtrip(pair):
    system, tx, rx = pair
    msg = bytes(range(256)) * 3  # 768 bytes, 14 slots

    def sender():
        yield from tx.send(msg)
        yield from tx.flush()

    def receiver():
        return (yield from rx.recv())

    _, got = run(system, sender(), receiver())
    assert got == msg


def test_stale_middle_slot_waits_for_the_late_packet():
    """Posted order holds along one path only: after a reroute or a
    crash, a middle slot can land after the message's last slot.  The
    receiver polls for it instead of reading it stale, then bulk-reads
    the rest, and the message arrives intact once the late slot
    commits."""
    system = TCClusterSystem.two_board_prototype().boot()
    cl = system.cluster
    _, rx = system.connect(cl.rank_of(0, 1), cl.rank_of(1, 1))
    sim = system.sim
    chip = rx.proc.core.chip
    msg = bytes(range(256)) * 3  # 14 slots
    late = 3

    def land(i):
        seq = rx.recv_seq + 1 + i
        slot = pack_slot(seq, len(msg) - i * SLOT_PAYLOAD,
                         msg[i * SLOT_PAYLOAD:(i + 1) * SLOT_PAYLOAD])
        chip.memctrl.write_posted(
            chip.nb._local_offset(rx._slot_rx_addr(seq)), slot)

    for i in range(slots_needed(len(msg))):
        if i != late:
            land(i)
    t_late = sim.now + 5_000.0
    sim.schedule(5_000.0, land, late)
    (got,) = run(system, rx.recv())
    assert got == msg
    assert sim.now > t_late


def test_rendezvous_roundtrip(pair):
    system, tx, rx = pair
    msg = bytes(i % 251 for i in range(100_000))

    def sender():
        yield from tx.send(msg)
        yield from tx.flush()

    def receiver():
        return (yield from rx.recv())

    _, got = run(system, sender(), receiver())
    assert got == msg
    assert tx.stats.rendezvous_sent >= 1


def test_many_messages_fifo_order(pair):
    system, tx, rx = pair
    n = 200  # several ring wraps (64 slots)

    def sender():
        for i in range(n):
            yield from tx.send(f"msg-{i:04d}".encode())
        yield from tx.flush()

    def receiver():
        out = []
        for _ in range(n):
            out.append((yield from rx.recv()))
        return out

    _, got = run(system, sender(), receiver())
    assert got == [f"msg-{i:04d}".encode() for i in range(n)]


def test_flow_control_stalls_but_survives_slow_receiver(pair):
    system, tx, rx = pair
    n = 150
    sim = system.sim

    def sender():
        for i in range(n):
            yield from tx.send(bytes([i % 256]) * 40)
        yield from tx.flush()

    def slow_receiver():
        out = []
        for _ in range(n):
            yield sim.timeout(500.0)  # much slower than the sender
            out.append((yield from rx.recv()))
        return out

    stalls_before = tx.stats.tx_stalls
    _, got = run(system, sender(), slow_receiver())
    assert len(got) == n
    assert got[-1] == bytes([(n - 1) % 256]) * 40
    assert tx.stats.tx_stalls > stalls_before, "ring back-pressure engaged"


def test_mixed_sizes_interleaved(pair):
    system, tx, rx = pair
    sizes = [1, 56, 57, 500, 1024, 2000, 8192, 3, 70_000, 64]
    msgs = [bytes((i * 7 + j) % 256 for j in range(s))
            for i, s in enumerate(sizes)]

    def sender():
        for m in msgs:
            yield from tx.send(m)
        yield from tx.flush()

    def receiver():
        out = []
        for _ in msgs:
            out.append((yield from rx.recv()))
        return out

    _, got = run(system, sender(), receiver())
    assert got == msgs


def test_strict_mode_also_correct(pair):
    system, tx, rx = pair
    msg = bytes(range(200))

    def sender():
        yield from tx.send(msg, mode="strict")

    def receiver():
        return (yield from rx.recv())

    _, got = run(system, sender(), receiver())
    assert got == msg


def test_bidirectional_same_pair(pair):
    system, tx, rx = pair

    def side_a():
        yield from tx.send(b"a->b")
        yield from tx.flush()
        return (yield from tx.recv())

    def side_b():
        got = yield from rx.recv()
        yield from rx.send(b"b->a:" + got)
        yield from rx.flush()
        return got

    ra, rb = run(system, side_a(), side_b())
    assert rb == b"a->b"
    assert ra == b"b->a:a->b"


def test_try_recv_nonblocking(pair):
    system, tx, rx = pair

    def prober():
        first = yield from rx.try_recv()
        yield from tx.send(b"late")
        yield from tx.flush()
        yield system.sim.timeout(5000.0)
        second = yield from rx.try_recv()
        return first, second

    (first, second), = run(system, prober())
    assert first is None
    assert second == b"late"


def test_empty_and_oversized_messages_rejected(pair):
    system, tx, _ = pair
    with pytest.raises(MessageError):
        next(tx.send(b""))
    huge = bytes(tx.cfg.heap_bytes + 64)

    def sender():
        yield from tx.send(huge)

    proc = system.sim.process(sender())
    with pytest.raises(MessageError, match="heap"):
        system.sim.run_until_event(proc)


def test_intra_supernode_endpoint():
    """Messaging between the two chips of one board goes over the coherent
    fabric but uses the same library path."""
    system = TCClusterSystem.two_board_prototype().boot()
    cl = system.cluster
    a, b = cl.rank_of(0, 0), cl.rank_of(0, 1)
    tx, rx = system.connect(a, b)

    def sender():
        yield from tx.send(b"intra-board")
        yield from tx.flush()

    def receiver():
        return (yield from rx.recv())

    _, got = run(system, sender(), receiver())
    assert got == b"intra-board"
    # No TCC link traffic involved.
    assert all(l.stats("A").packets == 0 and l.stats("B").packets == 0
               for l in cl.tcc_links)


def test_cluster_barrier():
    system = TCClusterSystem.two_board_prototype().boot()
    cl = system.cluster
    sim = system.sim
    order = []

    def participant(rank, delay):
        lib = cl.library(rank)
        bar = ClusterBarrier(lib)
        yield sim.timeout(delay)
        order.append(("enter", rank, sim.now))
        yield from bar.wait()
        order.append(("exit", rank, sim.now))

    procs = [sim.process(participant(r, 1000.0 * r)) for r in range(4)]
    sim.run_until_event(sim.all_of(procs))
    last_enter = max(t for (k, _, t) in order if k == "enter")
    first_exit = min(t for (k, _, t) in order if k == "exit")
    assert first_exit >= last_enter, "nobody leaves before the last entry"
