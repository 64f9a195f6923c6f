"""The HyperTransport link model: serialization, virtual channels, credits.

A :class:`Link` connects two endpoints (side ``A`` and side ``B``).  Each
direction has its own wires and consists of

* one transmit queue per virtual channel (posted / non-posted / response),
* a credit pool per VC granted by the receiver (HT coupled flow control),
* a physical serializer shared by the three VCs (FCFS arbitration),
* optional bit-error injection with HT3-style per-packet retry.

Delivery ordering is in-order **within** a VC; packets in different VCs
are pumped independently and may pass each other at the serializer --
exactly the property the message library relies on (paper Section IV.A:
"The HyperTransport fabric guarantees in-order delivery for packets
within a single virtual channel").

Timing: a packet occupies the serializer for ``wire_bytes / link_rate``
where the rate follows the currently trained width and frequency, then
experiences the propagation delay of the cable/trace before appearing in
the receiver's buffer.  Consuming a packet at the receiver returns its
flow-control credit to the transmitter.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..obs.metrics import fault_counters
from ..sim import CreditPool, Event, Gate, Resource, Simulator, Store, Tracer, NULL_TRACER
from ..util.calibration import TimingModel, DEFAULT_TIMING
from .packet import Packet, VirtualChannel

__all__ = ["Link", "LinkSide", "LinkState", "LinkDownError", "LinkStats",
           "FAIL_DOWN_THRESHOLD_DEFAULT", "FAIL_DOWN_BER_RELIEF"]

#: Signal-integrity margin recovered per fail-down step: each narrowing
#: (or lane-rate halving) multiplies the effective per-packet error
#: probability by this factor.  The cable-BER model behind the paper's
#: "signal integrity issues of our cable based approach" -- backing off
#: the rate buys eye margin.
FAIL_DOWN_BER_RELIEF = 0.25

#: Calibrated default for :attr:`Link.fail_down_threshold` -- consecutive
#: retry-exhaustion drops before the link sheds width.  Chosen by the
#: retry-storm calibration sweep (``repro.bench.recovery.
#: run_fail_down_calibration``; grid and scores in
#: ``BENCH_reliability.json``): once a drop is priced at its end-to-end
#: cost (the message layer recovers it through a ~100us retransmit
#: backoff), every drop avoided by narrowing early outweighs the
#: stranded-width tail until the next retrain, so the sweep's optimum is
#: to fail down on the *first* exhaustion.  Reaching it at all takes
#: ``max_retries`` consecutive CRC failures, so realistic error rates
#: never trigger it and the fault-free data path is unchanged.
FAIL_DOWN_THRESHOLD_DEFAULT = 1


class LinkDownError(RuntimeError):
    """Attempt to use a link that is not in the ACTIVE state."""


class LinkState:
    DOWN = "down"
    INIT = "init"
    ACTIVE = "active"


class LinkSide:
    A = "A"
    B = "B"

    @staticmethod
    def other(side: str) -> str:
        if side == LinkSide.A:
            return LinkSide.B
        if side == LinkSide.B:
            return LinkSide.A
        raise ValueError(f"unknown link side {side!r}")


@dataclass
class LinkStats:
    packets: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    #: Extra wire bytes burnt by HT3 retransmissions (kept separate so
    #: goodput and busy-time accounting stay consistent under BER).
    retry_wire_bytes: int = 0
    retries: int = 0
    drops: int = 0
    busy_ns: float = 0.0
    #: Time packets sat at the head of a TX queue waiting for a
    #: flow-control credit (receiver back-pressure).
    credit_stall_ns: float = 0.0
    #: Multi-packet serialization windows taken by the burst fast path
    #: (wall-clock instrumentation; no timing meaning).
    bursts: int = 0
    #: Packets handed back to the transmit queue because the link went
    #: down before/while they were serializing (link-level NAK; they are
    #: retransmitted after retrain, never lost).
    naks: int = 0

    def utilization(self, elapsed_ns: float) -> float:
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0

    def as_dict(self, elapsed_ns: float) -> Dict[str, float]:
        return {
            "packets": self.packets,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "retry_wire_bytes": self.retry_wire_bytes,
            "retries": self.retries,
            "drops": self.drops,
            "busy_ns": self.busy_ns,
            "credit_stall_ns": self.credit_stall_ns,
            "bursts": self.bursts,
            "naks": self.naks,
            "utilization": self.utilization(elapsed_ns),
        }


class _Direction:
    """One direction of the link (packets flowing tx_side -> rx_side)."""

    def __init__(self, link: "Link", tx_side: str):
        self.link = link
        self.tx_side = tx_side
        self.rx_side = LinkSide.other(tx_side)
        sim = link.sim
        self.txq: Dict[VirtualChannel, Store] = {
            vc: Store(
                sim,
                capacity=link.tx_queue_depth,
                name=f"{link.name}.{tx_side}.tx.{vc.name}",
            )
            for vc in VirtualChannel
        }
        self.credits: Dict[VirtualChannel, CreditPool] = {
            vc: CreditPool(
                sim,
                link.credits_per_vc,
                name=f"{link.name}.{tx_side}.cred.{vc.name}",
            )
            for vc in VirtualChannel
        }
        #: Arrival stream at the receiver; capacity is enforced by credits.
        self.rx: Store = Store(sim, capacity=None, name=f"{link.name}.{self.rx_side}.rx")
        self.phy = Resource(sim, 1, name=f"{link.name}.{tx_side}.phy")
        self.stats = LinkStats()

        # Shared credit-return callback for Link.receive: allocating a
        # fresh closure per blocking receive is measurable at packet rate.
        def _return_credit(done_ev: Event, credits=self.credits) -> None:
            credits[done_ev.value.vc].give()

        self._credit_cb = _return_credit
        #: Macro window owning this direction (a bulk train or a read
        #: flow, see repro.sim.flows.MacroWindow); foreign sends demote it
        #: first (Link.demote_macros).
        self._macro = None
        #: Burst-window deliveries pushed into the calendar but not yet
        #: past their serialization end: (cancel_seq, ser_end, pkt, vc).
        #: Pruned lazily; consulted by bring_down() to NAK packets that
        #: were still inside the serializer when the link died.
        self._burst_fly: Deque[Tuple[int, float, Packet, VirtualChannel]] = deque()
        #: Retry-exhaustion drops since the last successful transmit
        #: (drives the optional fail-down to a narrower width).
        self._consecutive_drops = 0
        for vc in VirtualChannel:
            sim.process(self._pump(vc), name=f"{link.name}.{tx_side}.pump.{vc.name}")

    #: Upper bound on packets serialized per burst window (bounds the work
    #: done by one calendar callback; txq depth usually bounds it first).
    MAX_BURST = 64

    def _can_burst(self, vc: VirtualChannel) -> bool:
        """Bursting is only legal when nothing could interleave at the phy
        during the window: no bit errors (retry falls back to per-packet),
        no other VC with traffic queued or waiting for the serializer, and
        tracing off (burst tx records would append out of time order)."""
        link = self.link
        if not link.sim.features.burst_serialization or link._ber > 0:
            return False
        if link.tracer.enabled or self.phy._waiters:
            return False
        for other, q in self.txq.items():
            if other is not vc and q._items:
                return False
        return True

    def _pump(self, vc: VirtualChannel):
        link = self.link
        sim = link.sim
        txq = self.txq[vc]
        credits = self.credits[vc]
        phy = self.phy
        stats = self.stats
        while True:
            # Fast paths: when the queue has a packet, a credit is free and
            # the serializer is idle, take all three inline -- no Event
            # allocation, no calendar round-trip.  The blocking fallbacks
            # preserve FCFS order exactly as before.
            ok, pkt = txq.try_get()
            if not ok:
                pkt = yield txq.get()
            if not credits.try_take():
                wait_start = sim.now
                yield credits.take()
                stats.credit_stall_ns += sim.now - wait_start
            if not phy.try_acquire():
                yield phy.acquire()
            if link.state != LinkState.ACTIVE:
                # The link died while this packet waited for a credit or
                # the serializer: NAK it back to the head of the TX queue
                # (HT retains unacknowledged packets in the retry buffer),
                # release everything, and park until retrain completes.
                phy.release()
                credits.give()
                txq.unget(pkt)
                stats.naks += 1
                fault_counters(sim).link_naks += 1
                yield link.up_gate.wait()
                continue
            dropped = False
            try:
                if txq._items and self._can_burst(vc):
                    yield from self._transmit_burst(pkt, vc)
                    continue  # phy released inside; stats/delivery done
                ser = link.serialization_ns(pkt)
                attempts = 1
                if link.ber > 0:
                    # Retry mode: the per-packet CRC the ACK/NAK protocol
                    # verifies.  This is the only data-plane consumer of
                    # the (lazily computed, cached) wire CRC; timing and
                    # the retry draw below do not depend on its value.
                    _ = pkt.crc32
                while link.ber > 0 and (
                        link._rng.random() < link.ber * link._ber_derate):
                    # HT3 retry: CRC failure detected, NAK + retransmission
                    # costs another serialization window plus turnaround.
                    yield ser + link.retry_turnaround_ns
                    stats.retries += 1
                    stats.busy_ns += ser + link.retry_turnaround_ns
                    stats.retry_wire_bytes += pkt.wire_bytes(
                        link.timing.ht_crc_bytes
                    )
                    attempts += 1
                    if attempts > link.max_retries:
                        # Give up on this packet but keep the VC alive: a
                        # dead pump (and a leaked credit) would silently
                        # deadlock the channel forever.
                        dropped = True
                        break
                if not dropped:
                    yield ser
                    stats.busy_ns += ser
            finally:
                phy.release()
            if link.state != LinkState.ACTIVE:
                # Cut mid-serialization (or mid retry storm): the receiver
                # never saw a complete packet, so NAK and retransmit after
                # retrain rather than losing or half-delivering it.
                credits.give()
                txq.unget(pkt)
                stats.naks += 1
                fault_counters(sim).link_naks += 1
                yield link.up_gate.wait()
                continue
            if dropped:
                stats.drops += 1
                credits.give()
                link.tracer.emit(sim.now, link.name, "drop",
                                 (self.tx_side, vc.name, pkt.addr))
                self._consecutive_drops += 1
                th = link.fail_down_threshold
                if th is not None and self._consecutive_drops >= th:
                    self._consecutive_drops = 0
                    link._fail_down()
                continue
            self._consecutive_drops = 0
            stats.packets += 1
            stats.payload_bytes += len(pkt.data)
            stats.wire_bytes += pkt.wire_bytes(link._crc_bytes)
            if link.tracer.enabled:
                link.tracer.emit(sim.now, link.name, "tx",
                                 (self.tx_side, vc.name, pkt.addr))
            sim.schedule(link.propagation_ns, self._deliver, pkt, vc)

    def _transmit_burst(self, pkt: Packet, vc: VirtualChannel):
        """Serialize ``pkt`` plus every same-VC packet that is already
        queued with a credit instantly available as ONE occupancy window.

        Per-packet wire times are what the serializer would produce
        back-to-back anyway (packet ``i`` ends at ``t0 + sum(ser_0..i)``),
        so delivery timestamps are computed arithmetically and pushed up
        front; only a single sleep covers the whole window.  Called with
        the phy held and a credit taken for ``pkt``; the caller's
        ``finally`` releases the phy when the window ends.
        """
        link = self.link
        sim = link.sim
        txq = self.txq[vc]
        credits = self.credits[vc]
        burst = [pkt]
        t0 = sim.now
        # The per-packet pump would pop packet i only once packets 0..i-1
        # finished serializing; popping early must not free the txq slot
        # sooner, or a back-pressured sender unblocks ahead of time and
        # virtual timing diverges.  get_deferred holds each slot until
        # the time the per-packet pop would have happened.
        pop_at = t0
        while len(burst) < self.MAX_BURST and txq._items and credits.try_take():
            pop_at += link.serialization_ns(burst[-1])
            nxt = txq.get_deferred(pop_at)
            if nxt is None:  # pragma: no cover - len(txq) just said otherwise
                credits.give()
                break
            burst.append(nxt)
        cum = 0.0
        crc = link._crc_bytes
        rate = link._rate
        prop = link.propagation_ns
        stats = self.stats
        deliver = self._deliver
        fly = self._burst_fly
        # Prune windows that fully serialized (cheap: ser_end values are
        # appended in ascending time order, the phy serializes windows
        # back to back).
        while fly and fly[0][1] <= t0:
            fly.popleft()
        for p in burst:
            cum += p.wire_bytes(crc) / rate
            stats.packets += 1
            stats.payload_bytes += len(p.data)
            stats.wire_bytes += p.wire_bytes(crc)
            seq = sim._push_cancellable(t0 + cum + prop, deliver, (p, vc))
            fly.append((seq, t0 + cum, p, vc))
        stats.bursts += 1
        yield cum
        stats.busy_ns += cum

    def _unwind_bursts(self) -> None:
        """NAK every burst-window packet still inside the serializer.

        Called by :meth:`Link.bring_down`.  A delivery whose serialization
        window already closed stands -- the packet is on the cable and
        will arrive after the propagation delay.  Deliveries still being
        serialized are cancelled (the entry leaves the calendar without
        advancing the clock), their transmit stats reversed, their
        credits returned, and the packets put back at the head of their
        TX queue in original order for retransmission after retrain.
        Because a cancelled delivery can never have fired, the packet
        cannot have reached its destination commit point -- so a pooled
        packet can never be recycled while a NAK still references it.
        """
        fly = self._burst_fly
        if not fly:
            return
        link = self.link
        sim = link.sim
        now = sim._now
        requeue = []
        while fly:
            seq, ser_end, pkt, vc = fly.popleft()
            if ser_end <= now:
                continue
            sim._cancel(seq)
            requeue.append((pkt, vc))
        if not requeue:
            return
        stats = self.stats
        crc = link._crc_bytes
        fc = fault_counters(sim)
        for pkt, vc in reversed(requeue):
            stats.packets -= 1
            stats.payload_bytes -= len(pkt.data)
            stats.wire_bytes -= pkt.wire_bytes(crc)
            stats.naks += 1
            fc.link_naks += 1
            self.credits[vc].give()
            self.txq[vc].unget(pkt)

    def _deliver(self, pkt: Packet, vc: VirtualChannel) -> None:
        link = self.link
        if link.tracer.enabled:
            # Keep the deferred wake so the rx trace record lands before
            # any receiver reaction at the same timestamp.
            self.rx.try_put(pkt)
            link.tracer.emit(link.sim._now, link.name, "rx",
                             (self.rx_side, vc.name, pkt.addr))
        else:
            # _deliver is a bare calendar callback and this is its final
            # action: wake a parked receiver synchronously, saving the
            # zero-delay dispatch entry per packet.
            self.rx.put_inline(pkt)


class Link:
    """A bidirectional HT link between two devices."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "link",
        timing: TimingModel = DEFAULT_TIMING,
        width_bits: Optional[int] = None,
        gbit_per_lane: Optional[float] = None,
        propagation_ns: Optional[float] = None,
        credits_per_vc: Optional[int] = None,
        tx_queue_depth: int = 4,
        ber: float = 0.0,
        seed: int = 0x7CC,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.name = name
        self.timing = timing
        self.width_bits = width_bits if width_bits is not None else timing.link_width_bits
        self.gbit_per_lane = (
            gbit_per_lane if gbit_per_lane is not None else timing.link_gbit_per_lane
        )
        self.propagation_ns = (
            propagation_ns if propagation_ns is not None else timing.link_propagation_ns
        )
        self.credits_per_vc = (
            credits_per_vc if credits_per_vc is not None else timing.link_credits_per_vc
        )
        self.tx_queue_depth = tx_queue_depth
        self._rate = self.width_bits * self.gbit_per_lane / 8.0
        self._crc_bytes = timing.ht_crc_bytes
        self.ber = ber
        self.max_retries = 16
        self.retry_turnaround_ns = 40.0
        self._rng = random.Random(seed)
        self.tracer = tracer
        self.state = LinkState.DOWN
        #: None until trained; then "coherent" or "noncoherent".
        self.link_type: Optional[str] = None
        #: Level-triggered "link is ACTIVE" condition.  Pumps that hit a
        #: down link NAK their packet and park here; the northbridge
        #: fault path waits on it (bounded) before rerouting.
        self.up_gate = Gate(sim, open_=False, name=f"{name}.up")
        #: Permanently failed (fault injection LINK_KILL): retrain
        #: attempts are refused until cleared.
        self.dead = False
        #: After this many *consecutive* retry-exhaustion drops, fail
        #: down to a narrower width / lower lane rate instead of keeping
        #: a hopeless link at full speed.  The default is calibrated by
        #: the retry-storm sweep in ``repro.bench.recovery`` (results in
        #: ``BENCH_reliability.json``); ``None`` disables the behaviour.
        #: A drop needs ``max_retries`` consecutive CRC failures first,
        #: so with the stock retry budget the threshold is unreachable
        #: below catastrophic error rates -- the fault-free (and the
        #: realistic-BER) data path is unchanged by the default.
        self.fail_down_threshold: Optional[int] = FAIL_DOWN_THRESHOLD_DEFAULT
        #: Fail-downs performed (narrowings/slowdowns since training).
        self.fail_downs = 0
        #: Effective-BER multiplier from fail-downs: a narrower/slower
        #: link has more signal-integrity margin, so each fail-down step
        #: multiplies the error probability the retry loop draws against
        #: by :data:`FAIL_DOWN_BER_RELIEF`.  A full retrain re-equalizes
        #: the link at the programmed rate and resets it to 1.0.
        self._ber_derate = 1.0
        self._dirs: Dict[str, _Direction] = {
            side: _Direction(self, side) for side in (LinkSide.A, LinkSide.B)
        }

    # -- rate -----------------------------------------------------------------
    @property
    def bytes_per_ns(self) -> float:
        """Current unidirectional link rate (bytes/ns).

        Cached as ``_rate`` (recomputed by :meth:`set_rate`, the single
        mutation path after construction): serialization runs once per
        packet and the float math showed up in wall-clock profiles.
        """
        return self._rate

    def serialization_ns(self, pkt: Packet) -> float:
        return pkt.wire_bytes(self._crc_bytes) / self._rate

    # -- data path --------------------------------------------------------------
    def send(self, side: str, pkt: Packet) -> Event:
        """Enqueue ``pkt`` for transmission from ``side``.

        Returns the event that fires when the packet is accepted into the
        per-VC transmit queue (the back-pressure point for the SRQ).
        """
        if self.state != LinkState.ACTIVE:
            raise LinkDownError(f"link {self.name} is {self.state}")
        d = self._dirs[side]
        if d._macro is not None:
            self.demote_macros(side)
        return d.txq[pkt.vc].put(pkt)

    def try_send(self, side: str, pkt: Packet) -> bool:
        if self.state != LinkState.ACTIVE:
            raise LinkDownError(f"link {self.name} is {self.state}")
        d = self._dirs[side]
        if d._macro is not None:
            self.demote_macros(side)
        return d.txq[pkt.vc].try_put(pkt)

    def receive(self, side: str) -> Event:
        """Event yielding the next :class:`Packet` arriving at ``side``.

        Consuming the packet returns its flow-control credit.
        """
        d = self._dirs[LinkSide.other(side)]  # direction whose rx is `side`
        ev = d.rx.get()
        ev.add_callback(d._credit_cb)
        return ev

    def try_receive(self, side: str):
        """Non-blocking receive; returns ``(ok, packet)``."""
        d = self._dirs[LinkSide.other(side)]
        ok, pkt = d.rx.try_get()
        if ok:
            d.credits[pkt.vc].give()
        return ok, pkt

    def pending_rx(self, side: str) -> int:
        return len(self._dirs[LinkSide.other(side)].rx)

    def stats(self, side: str) -> LinkStats:
        """Transmit statistics for the direction sending *from* ``side``."""
        return self._dirs[side].stats

    def metrics(self, now: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        """Per-direction counters + utilization, keyed by TX side.

        ``now`` defaults to the simulator clock; utilization is busy time
        over the full elapsed simulation time (links exist from t=0)."""
        elapsed = self.sim.now if now is None else now
        out: Dict[str, Dict[str, float]] = {}
        for side, d in self._dirs.items():
            m = d.stats.as_dict(elapsed)
            m["rx_pending"] = len(d.rx)
            out[side] = m
        return out

    # -- lifecycle ----------------------------------------------------------------
    def activate(self, link_type: str) -> None:
        """Bring the link up (called by the init FSM after training)."""
        if link_type not in ("coherent", "noncoherent"):
            raise ValueError(f"bad link type {link_type!r}")
        if self.dead:
            raise LinkDownError(f"link {self.name} is permanently dead")
        self.state = LinkState.ACTIVE
        self.link_type = link_type
        self.up_gate.open()

    def bring_down(self) -> None:
        """Take the link down (fault injection or the start of retrain).

        Ordering matters: macro windows are demoted first (their
        speculative future is revoked against pre-fault state), then any
        burst-serialization window in flight is unwound -- packets whose
        wire time had not completed are NAK'd back to their TX queues --
        and only then does the state flip and the up-gate close, parking
        the pumps until :meth:`activate`.
        """
        self.demote_macros()
        for d in self._dirs.values():
            d._unwind_bursts()
        self.state = LinkState.DOWN
        self.link_type = None
        self.up_gate.close()

    def _fail_down(self) -> None:
        """Degrade to the next narrower width (or half the lane rate at
        the minimum 2-bit width) after repeated retry exhaustion -- the
        HT-style response to a persistently bad cable.  The programmed
        (pending) rate in the init FSM personas is untouched, so a later
        full retrain restores full speed (and resets the margin relief
        -- the throughput-vs-width hysteresis the calibration bench in
        :mod:`repro.bench.recovery` measures)."""
        derate = self._ber_derate * FAIL_DOWN_BER_RELIEF
        if self.width_bits > 2:
            self.set_rate(self.width_bits // 2, self.gbit_per_lane)
        else:
            self.set_rate(self.width_bits, max(self.gbit_per_lane / 2.0, 0.1))
        self._ber_derate = derate
        self.fail_downs += 1
        fault_counters(self.sim).link_fail_downs += 1

    def set_rate(self, width_bits: int, gbit_per_lane: float) -> None:
        """Apply trained width/frequency (takes effect immediately).

        Any accumulated fail-down margin relief is cleared: training
        re-equalizes the link, so the raw channel error rate applies
        again at the newly trained speed."""
        if width_bits not in (2, 4, 8, 16, 32):
            raise ValueError(f"illegal link width {width_bits}")
        if gbit_per_lane <= 0:
            raise ValueError(f"illegal lane rate {gbit_per_lane}")
        self.demote_macros()
        self.width_bits = width_bits
        self.gbit_per_lane = gbit_per_lane
        self._rate = width_bits * gbit_per_lane / 8.0
        self._ber_derate = 1.0

    # -- adaptive fidelity ------------------------------------------------
    @property
    def ber(self) -> float:
        return self._ber

    @ber.setter
    def ber(self, value: float) -> None:
        # A mid-window error-rate change invalidates a macro window's
        # retry-free schedule (__init__ assigns before _dirs exists).
        self._ber = value
        if value > 0 and getattr(self, "_dirs", None):
            self.demote_macros()

    def demote_macros(self, side: Optional[str] = None) -> None:
        """Demote the macro windows (repro.sim.flows.MacroWindow) owning
        this link's directions before a link-level change (rate, state,
        error injection, credit theft) invalidates their schedules.

        With ``side`` (a send from that side) only that direction's owner
        is demoted."""
        now = self.sim._now
        if side is not None:
            m = self._dirs[side]._macro
            if m is not None:
                m.demote(now)
            return
        for d in self._dirs.values():
            if d._macro is not None:
                d._macro.demote(now)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Link {self.name} {self.state} type={self.link_type} "
            f"{self.width_bits}b@{self.gbit_per_lane}G>"
        )
