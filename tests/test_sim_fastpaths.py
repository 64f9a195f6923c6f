"""Tests for the engine/link wall-clock fast paths (PR 2).

Three families, matching the hot-path overhaul's risk surface:

* lazy Event dispatch -- ``succeed()`` on a callback-less event pushes
  nothing; ``add_callback`` must recover both the *deferred* (triggered,
  never scheduled) and the *late* (already dispatched) cases,
* the numeric-sleep fast path under interrupts (wake-token staleness),
* poll parking as a virtual-time-invariant transformation (the
  park/doorbell race), and ``LinkStats`` exact at any instant of a
  seeded link stream.
"""

import hashlib
import random
from unittest import mock

import pytest

from repro.ht import Link, LinkSide, VirtualChannel, make_posted_write
from repro.msglib.endpoint import Endpoint
from repro.sim import Doorbell, Interrupt, Simulator
from repro.sim.trace import NULL_TRACER, Tracer


# ---------------------------------------------------------------------------
# Lazy event dispatch
# ---------------------------------------------------------------------------

def test_succeed_without_callbacks_pushes_nothing():
    sim = Simulator()
    ev = sim.event()
    before = sim.heap_pushes
    ev.succeed("v")
    assert sim.heap_pushes == before, "callback-less succeed must be free"
    assert ev.triggered and ev.ok and ev.value == "v"


def test_add_callback_on_lazy_triggered_event_schedules_dispatch():
    """Deferred path: triggered but never scheduled (no callbacks at
    trigger time) -- the first add_callback must schedule the dispatch."""
    sim = Simulator()
    ev = sim.event()
    ev.succeed(41)
    sim.run()  # nothing to do; the event is lazily triggered
    seen = []
    ev.add_callback(lambda e: seen.append(e.value + 1))
    assert seen == [], "callback must run from the calendar, not inline"
    sim.run()
    assert seen == [42]


def test_add_callback_after_dispatch_runs_late():
    """Late path: the event has already *dispatched* its callback list
    (``_callbacks`` consumed); a subsequent add_callback still runs, as a
    fresh zero-delay calendar entry."""
    sim = Simulator()
    ev = sim.event()
    order = []
    ev.add_callback(lambda e: order.append("first"))
    ev.succeed("v")
    sim.run()  # dispatches "first"
    assert order == ["first"]
    ev.add_callback(lambda e: order.append(("late", e.value)))
    assert order == ["first"], "late callback must not run inline"
    sim.run()
    assert order == ["first", ("late", "v")]


def test_failed_lazy_event_raises_when_finally_awaited():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("deferred boom"))

    def waiter():
        yield ev

    sim.process(waiter())
    with pytest.raises(ValueError, match="deferred boom"):
        sim.run()


# ---------------------------------------------------------------------------
# Numeric-sleep fast path vs interrupts
# ---------------------------------------------------------------------------

def test_interrupt_during_fastpath_sleep():
    """An interrupt mid-way through ``yield <float>`` must (a) arrive at
    the interrupt time, and (b) leave the now-stale calendar wake entry
    inert -- the process resumes from its *new* sleep, not the old one."""
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield 100.0
            resumes.append(("uninterrupted", sim.now))
        except Interrupt as i:
            resumes.append(("interrupted", sim.now, i.cause))
        yield 30.0  # re-sleep across the stale t=100 wake entry
        resumes.append(("resleep", sim.now))

    proc = sim.process(sleeper())
    sim.schedule(50.0, proc.interrupt, "poke")
    sim.run()
    assert resumes == [
        ("interrupted", 50.0, "poke"),
        ("resleep", 80.0),
    ]
    assert not proc.is_alive


def test_interrupt_during_zero_delay_step():
    """Same staleness guard for the ``yield None`` zero-delay step: an
    interrupt scheduled at the same timestamp must not double-wake."""
    sim = Simulator()
    log = []

    def stepper():
        yield 10.0
        try:
            yield None
            log.append("stepped")
        except Interrupt:
            log.append("interrupted")
        yield 5.0
        log.append(("done", sim.now))

    proc = sim.process(stepper())
    # Delivered at t=10 with a lower seq than the process's own step wake.
    sim.schedule(10.0, proc.interrupt)
    sim.run()
    assert log == ["interrupted", ("done", 15.0)]


# ---------------------------------------------------------------------------
# Park / doorbell
# ---------------------------------------------------------------------------

def test_doorbell_ring_between_snapshot_and_wait_not_lost():
    """The lost-wakeup race the compare-and-wait closes: a producer rings
    after the consumer snapshots the count but before it parks."""
    sim = Simulator()
    db = Doorbell(sim, "db")
    seen = db.count
    db.ring()  # racing producer
    ev = db.wait(seen)
    assert ev.triggered, "ring between snapshot and wait must not be lost"


def test_doorbell_coalesces_but_never_loses_rings():
    sim = Simulator()
    db = Doorbell(sim, "db")
    wakes = []

    def consumer():
        while len(wakes) < 2:
            seen = db.count
            yield db.wait(seen)
            wakes.append((sim.now, db.count))

    sim.process(consumer())
    sim.schedule(5.0, db.ring)
    sim.schedule(5.0, db.ring)   # same-timestamp burst: coalesced
    sim.schedule(9.0, db.ring)
    sim.run()
    assert wakes == [(5.0, 2), (9.0, 3)]


def test_parked_receiver_wakes_for_concurrent_send():
    """End-to-end park/doorbell: a receiver idle long enough to park must
    wake for a message sent while it is parked, at the same virtual time
    (quantized to the poll grid) a busy-polling receiver would see it."""
    from repro.core import TCClusterSystem

    def run():
        sys_ = TCClusterSystem.two_board_prototype()
        sys_.boot()
        cl = sys_.cluster
        a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
        tx, rx = sys_.connect(a, b)
        sim = sys_.sim
        got = []

        def receiver():
            got.append(((yield from rx.recv()), sim.now))

        def sender():
            yield 300_000.0  # receiver is parked long before this
            yield from tx.send(b"wake-up" * 9)
            yield from tx.flush()

        sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert got and got[0][0] == b"wake-up" * 9
        return got[0][1], rx.stats.park_wakes

    t_parked, wakes_parked = run()
    # Busy-polling reference: the receiver never finds a doorbell to
    # park on, as for a deadline-guarded receive.
    with mock.patch.object(Endpoint, "_parking_doorbell", lambda self: None):
        t_polled, wakes_polled = run()
    assert wakes_parked >= 1, "the idle window must actually park"
    assert wakes_polled == 0
    assert t_parked == t_polled, "parking moved the receive completion time"


# ---------------------------------------------------------------------------
# LinkStats exact at every instant (seeded stream, mid-stream probes)
# ---------------------------------------------------------------------------

#: Per seed: sha256 prefix of ``repr`` of the delivery records
#: ``(time, addr, payload_len)`` and the last delivery time, recorded from
#: the per-packet serializer.
_STREAM_RECORDS = {
    1: ("3a5f9ef982aa4d4f", 13093.0),
    7: ("909413b926a8db8c", 13053.0),
    42: ("b9500babc370ffbc", 11186.75),
    1234: ("f30a26aff29417b1", 12584.25),
}


def _run_stream(seed: int, probes=(), tracer=NULL_TRACER):
    """Drive a seeded random posted-write stream through a clean link.

    Stops ``run(until=t)`` at each probe instant to snapshot the TX
    ``LinkStats``.  Returns the delivery records ``(time, addr,
    payload_len)``, each delivery's ``(wire_bytes, serialization_ns)``,
    the snapshots ``(packets, wire_bytes, busy_ns)`` and the link."""
    rng = random.Random(seed)
    sizes = [rng.choice((4, 8, 32, 64)) for _ in range(120)]
    gaps = [rng.choice((0.0, 0.0, 0.0, 5.0, 500.0)) for _ in sizes]

    sim = Simulator()
    link = Link(sim, "l0", tracer=tracer)
    link.activate("noncoherent")
    deliveries = []
    wire = []

    def rx():
        while len(deliveries) < len(sizes):
            p = yield link.receive(LinkSide.B)
            deliveries.append((sim.now, p.addr, len(p.data)))
            wire.append((p.wire_bytes(link._crc_bytes), link.serialization_ns(p)))

    def tx():
        for i, (n, gap) in enumerate(zip(sizes, gaps)):
            if gap:
                yield gap
            yield link.send(
                LinkSide.A, make_posted_write(0x1000 + 64 * i, bytes([i % 255 + 1]) * n)
            )

    sim.process(rx())
    sim.process(tx())
    stats = link.stats(LinkSide.A)
    snaps = []
    for t in probes:
        sim.run(until=t)
        snaps.append((stats.packets, stats.wire_bytes, stats.busy_ns))
    sim.run()
    assert len(deliveries) == len(sizes)
    return deliveries, wire, snaps, link


@pytest.mark.parametrize("seed", sorted(_STREAM_RECORDS))
def test_link_stats_exact_mid_stream(seed):
    """At any instant, ``packets``, ``wire_bytes`` and ``busy_ns`` count
    exactly the packets whose serialization has ended by then (delivery
    time minus propagation), including instants inside back-to-back
    runs, where the serializer never idles between packets."""
    deliveries, wire, _, link = _run_stream(seed)
    digest, t_last = _STREAM_RECORDS[seed]
    assert hashlib.sha256(repr(deliveries).encode()).hexdigest()[:16] == digest
    assert deliveries[-1][0] == t_last
    ser_end = [t - link.propagation_ns for t, _, _ in deliveries]
    # Packets that started serializing the instant their predecessor
    # finished: probe mid-wire and exactly at the end of the wire time.
    b2b = [i for i in range(1, len(ser_end))
           if ser_end[i] - ser_end[i - 1] == wire[i][1]]
    assert len(b2b) >= 20, "stream has too few back-to-back packets"
    picks = b2b[::len(b2b) // 10]
    probes = sorted({t for i in picks
                     for t in (ser_end[i] - wire[i][1] / 2, ser_end[i])})

    probed, _, snaps, _ = _run_stream(seed, probes)
    assert probed == deliveries, "stopping run(until=) moved a delivery"
    for t, (packets, wire_bytes, busy_ns) in zip(probes, snaps):
        done = [w for end, w in zip(ser_end, wire) if end <= t]
        assert packets == len(done), f"packets at t={t}"
        assert wire_bytes == sum(wb for wb, _ in done), f"wire_bytes at t={t}"
        assert busy_ns == sum(ser for _, ser in done), f"busy_ns at t={t}"


@pytest.mark.parametrize("seed", sorted(_STREAM_RECORDS))
def test_traced_link_delivers_like_untraced(seed):
    """Tracing a link records its deliveries without changing how they
    happen: the same delivery instants and the same calendar entries,
    with one rx record per delivery at its instant."""
    plain, _, _, link = _run_stream(seed)
    tracer = Tracer()
    traced, _, _, traced_link = _run_stream(seed, tracer=tracer)
    assert traced == plain
    assert traced_link.sim.event_count == link.sim.event_count
    assert [r.time for r in tracer.by_event("rx")] == [t for t, _, _ in plain]


# ---------------------------------------------------------------------------
# Cancellable calendar entries (adaptive-fidelity support)
# ---------------------------------------------------------------------------

def test_cancelled_entry_skipped_without_advancing_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    seq = sim._push_cancellable(50.0, lambda: fired.append("never"), None)
    sim._cancel(seq)
    sim.run()
    assert fired == [5.0]
    # The revoked entry must not have dragged the clock to t=50.
    assert sim.now == 5.0
    assert not sim._cancelled, "cancel bookkeeping must drain"


def test_cancel_is_scoped_to_one_entry():
    sim = Simulator()
    fired = []
    keep = sim._push_cancellable(3.0, lambda: fired.append("keep"), None)
    drop = sim._push_cancellable(3.0, lambda: fired.append("drop"), None)
    assert keep != drop
    sim._cancel(drop)
    sim.run()
    assert fired == ["keep"]
    assert sim.now == 3.0


def test_cancelled_entry_skipped_in_run_until_event():
    sim = Simulator()
    seq = sim._push_cancellable(40.0, lambda: None, None)
    sim._cancel(seq)
    ev = sim.event()
    sim.schedule(2.0, ev.succeed)
    sim.run_until_event(ev)
    assert sim.now == 2.0


# ---------------------------------------------------------------------------
# Adaptive-fidelity demotion edge cases (ISSUE 3 satellite): each foreign
# disturbance must flip the train back to per-packet mode with an end
# state identical to a run that never aggregated.  The deep sweep lives in
# test_train_equivalence.py; these pin the three named hazards.
# ---------------------------------------------------------------------------

from test_train_equivalence import assert_equivalent, run_train_mode


def test_train_contention_arriving_mid_train():
    # A local posted write enters the northbridge while the train is in
    # full flight (K=64 window spans ~1.5us; t=241.3 is mid-window).
    slow = run_train_mode(64, fast=False, kind="submit", t_off=241.3)
    fast = run_train_mode(64, fast=True, kind="submit", t_off=241.3)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] >= 1, "contention must demote"


def test_train_link_degradation_mid_train():
    # A BER pulse (retry-capable link state) during the aggregate window:
    # the fidelity switch may not keep arithmetic timestamps once the
    # wire can corrupt packets.
    slow = run_train_mode(64, fast=False, kind="ber", t_off=160.9)
    fast = run_train_mode(64, fast=True, kind="ber", t_off=160.9)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] >= 1, "degradation must demote"


def test_train_interrupt_inside_aggregated_window():
    slow = run_train_mode(64, fast=False, kind="interrupt", t_off=93.1)
    fast = run_train_mode(64, fast=True, kind="interrupt", t_off=93.1)
    assert_equivalent(slow, fast)
    assert "store_interrupted" in fast["done"]
    assert fast["train_demotions"] >= 1, "interrupt must demote"


def test_train_foreign_rx_traffic_mid_train():
    # A packet from elsewhere entering the same link direction.
    slow = run_train_mode(16, fast=False, kind="send", t_off=47.77)
    fast = run_train_mode(16, fast=True, kind="send", t_off=47.77)
    assert_equivalent(slow, fast)
