"""Tests for the HT link model: timing, ordering, credits, retry."""

import pytest

from repro.ht import (
    Link,
    LinkDownError,
    LinkSide,
    VirtualChannel,
    make_posted_write,
    make_read,
    make_read_response,
)
from repro.sim import Simulator
from repro.util.calibration import DEFAULT_TIMING


def make_active_link(sim, **kw):
    link = Link(sim, "l0", **kw)
    link.activate("noncoherent")
    return link


def test_send_on_down_link_raises():
    sim = Simulator()
    link = Link(sim, "l0")
    with pytest.raises(LinkDownError):
        link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 4))


def test_single_packet_delivery_and_timing():
    sim = Simulator()
    link = make_active_link(sim)
    pkt = make_posted_write(0x1000, b"\xAB" * 64)
    received = []

    def rx():
        p = yield link.receive(LinkSide.B)
        received.append((sim.now, p))

    sim.process(rx())
    link.send(LinkSide.A, pkt)
    sim.run()
    assert len(received) == 1
    t, p = received[0]
    assert p.data == b"\xAB" * 64
    # serialization 76B at 3.2 B/ns = 23.75ns + propagation 3ns
    assert t == pytest.approx(76 / 3.2 + DEFAULT_TIMING.link_propagation_ns)


def test_in_order_delivery_within_vc():
    sim = Simulator()
    link = make_active_link(sim)
    got = []

    def tx():
        for i in range(20):
            yield link.send(LinkSide.A, make_posted_write(0x1000 + 64 * i, bytes([i] * 4)))

    def rx():
        for _ in range(20):
            p = yield link.receive(LinkSide.B)
            got.append(p.data[0])

    sim.process(tx())
    sim.process(rx())
    sim.run()
    assert got == list(range(20))


def test_bidirectional_full_duplex():
    """Both directions have independent wires; transfers overlap in time."""
    sim = Simulator()
    link = make_active_link(sim)
    done = {}

    def side(tx_side, rx_side, n=10):
        for i in range(n):
            yield link.send(tx_side, make_posted_write(0x1000, b"\x00" * 64))
        for _ in range(n):
            yield link.receive(tx_side)
        done[tx_side] = sim.now

    sim.process(side(LinkSide.A, LinkSide.B))
    sim.process(side(LinkSide.B, LinkSide.A))
    sim.run()
    # If the directions shared a serializer this would take ~2x as long.
    one_way = 10 * 76 / 3.2 + DEFAULT_TIMING.link_propagation_ns
    assert done[LinkSide.A] == pytest.approx(one_way)
    assert done[LinkSide.B] == pytest.approx(one_way)


def test_credit_backpressure_limits_in_flight():
    """With the receiver not consuming, at most credits+txq packets leave."""
    sim = Simulator()
    link = make_active_link(sim, credits_per_vc=4)
    sent = []

    def tx():
        for i in range(20):
            yield link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 4))
            sent.append(i)

    sim.process(tx())
    sim.run(until=100000.0)
    # 4 credits in flight/buffered + 4 tx queue slots + 1 being offered
    assert len(sent) < 20
    assert link.pending_rx(LinkSide.B) == 4


def test_credit_returned_on_consume():
    sim = Simulator()
    link = make_active_link(sim, credits_per_vc=2)
    count = [0]

    def rx():
        while count[0] < 10:
            yield link.receive(LinkSide.B)
            count[0] += 1

    def tx():
        for _ in range(10):
            yield link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 4))

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert count[0] == 10


def test_vcs_pump_independently():
    """A stalled posted VC (no credits) must not block the response VC."""
    sim = Simulator()
    link = make_active_link(sim, credits_per_vc=1)
    order = []

    def tx():
        # Two posted writes: the second will wait for a posted credit
        # that never returns (receiver only drains responses).
        yield link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 4))
        yield link.send(LinkSide.A, make_posted_write(0x1040, b"\x00" * 4))
        yield link.send(LinkSide.A, make_read_response(b"\x00" * 4, srctag=1))

    consumed = []

    def rx():
        # Consume only until we see the response.
        while True:
            p = yield link.receive(LinkSide.B)
            consumed.append(p.cmd.name)
            if p.vc is VirtualChannel.RESPONSE:
                break

    sim.process(tx())
    sim.process(rx())
    sim.run()
    assert "READ_RESPONSE" in consumed


def test_retry_consumes_extra_time_and_counts():
    sim = Simulator()
    # ber=1 would retry forever; use a seeded mid probability.
    link = make_active_link(sim, ber=0.5, seed=42)
    done = []

    def rx():
        p = yield link.receive(LinkSide.B)
        done.append(sim.now)

    sim.process(rx())
    link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 64))
    sim.run()
    stats = link.stats(LinkSide.A)
    assert done, "packet should eventually arrive"
    assert stats.packets == 1
    if stats.retries:
        clean = 76 / 3.2 + DEFAULT_TIMING.link_propagation_ns
        assert done[0] > clean


def test_retry_storm_drops_packet_but_keeps_vc_alive():
    """A packet that exhausts max_retries is dropped -- it must NOT kill
    the pump process or leak its flow-control credit (either would
    deadlock the VC forever)."""
    sim = Simulator()
    link = make_active_link(sim, ber=1.0)
    link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 4))
    sim.run()  # must terminate (no retry-forever), and must not raise
    stats = link.stats(LinkSide.A)
    assert stats.drops == 1
    assert stats.packets == 0
    assert stats.retries == link.max_retries
    # The credit taken for the doomed packet was returned.
    d = link._dirs[LinkSide.A]
    assert d.credits[VirtualChannel.POSTED].credits == link.credits_per_vc


def test_high_ber_drops_do_not_deadlock_vc():
    """Regression: under a high error rate, later packets still flow after
    earlier ones are dropped (the pre-fix code killed the pump and leaked
    one credit per drop)."""
    sim = Simulator()
    link = make_active_link(sim, ber=0.62, seed=7, credits_per_vc=2)
    link.max_retries = 3  # make drops likely without a retry storm
    got = []

    def rx():
        while True:
            p = yield link.receive(LinkSide.B)
            got.append(p.addr)

    def tx():
        for i in range(40):
            yield link.send(LinkSide.A, make_posted_write(0x1000 + 4 * i, b"\x00" * 4))

    sim.process(rx())
    sim.process(tx())
    sim.run(until=10_000_000.0)
    stats = link.stats(LinkSide.A)
    assert stats.drops > 0, "BER must actually cause drops for this test"
    assert stats.packets == len(got)
    assert stats.drops + stats.packets == 40
    d = link._dirs[LinkSide.A]
    # Every credit came back: none in flight, none leaked by drops.
    assert d.credits[VirtualChannel.POSTED].credits == 2


def test_set_rate_changes_serialization():
    sim = Simulator()
    link = make_active_link(sim)
    pkt = make_posted_write(0x1000, b"\x00" * 64)
    t_fast = link.serialization_ns(pkt)
    link.set_rate(8, 0.4)  # boot rate: 0.4 bytes/ns
    t_slow = link.serialization_ns(pkt)
    assert t_slow == pytest.approx(t_fast * 8)


def test_set_rate_validates():
    sim = Simulator()
    link = make_active_link(sim)
    with pytest.raises(ValueError):
        link.set_rate(7, 1.6)
    with pytest.raises(ValueError):
        link.set_rate(8, 0.0)


def test_stats_accounting():
    sim = Simulator()
    link = make_active_link(sim)

    def rx():
        for _ in range(3):
            yield link.receive(LinkSide.B)

    sim.process(rx())
    for i in range(3):
        link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 64))
    sim.run()
    stats = link.stats(LinkSide.A)
    assert stats.packets == 3
    assert stats.payload_bytes == 192
    assert stats.wire_bytes == 3 * 76
    assert stats.busy_ns == pytest.approx(3 * 76 / 3.2)


def test_try_receive_nonblocking():
    sim = Simulator()
    link = make_active_link(sim)
    ok, pkt = link.try_receive(LinkSide.B)
    assert not ok and pkt is None
    link.send(LinkSide.A, make_posted_write(0x1000, b"\x00" * 4))
    sim.run()
    ok, pkt = link.try_receive(LinkSide.B)
    assert ok and pkt.addr == 0x1000


def test_reads_travel_nonposted_vc():
    sim = Simulator()
    link = make_active_link(sim)
    got = []

    def rx():
        p = yield link.receive(LinkSide.B)
        got.append(p.vc)

    sim.process(rx())
    link.send(LinkSide.A, make_read(0x1000, 1, srctag=0))
    sim.run()
    assert got == [VirtualChannel.NONPOSTED]

