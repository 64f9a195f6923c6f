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
from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Dict, Optional

from ..obs.metrics import fault_counters
from ..sim import (CreditPool, Event, Gate, Resource, Simulator, Store, Tracer,
                   Wake, NULL_TRACER)
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
            "naks": self.naks,
            "utilization": self.utilization(elapsed_ns),
        }


class _Pump:
    """The transmit stage of one virtual channel of one link direction.

    A step function, not a process: its state is the packet it holds
    (``pkt``), and its calendar entries are the ones the per-packet
    model needs -- a wake when a packet reaches it idle, the end of each
    serialization (and of each retry), and, only when it must wait, a
    credit, serializer or link-up wake.  Each entry is pushed at the
    instant a pump process would have pushed it, so equal-instant order
    is that of the process it replaces (DESIGN.md section 7).

    A pump with nothing to send parks on its TX queue as the queue's
    getter: :meth:`succeed` is the queue handing it a packet.
    """

    __slots__ = ("d", "link", "sim", "vc", "txq", "credits", "phy", "stats",
                 "pkt", "wire", "ser", "attempts", "wait_start", "held",
                 "_credit_wake")

    def __init__(self, d: "_Direction", vc: VirtualChannel):
        self.d = d
        self.link = d.link
        self.sim = d.link.sim
        self.vc = vc
        self.txq = d.txq[vc]
        self.credits = d.credits[vc]
        self.phy = d.phy
        self.stats = d.stats
        self.pkt: Optional[Packet] = None
        self.wire = 0
        self.ser = 0.0
        self.attempts = 0
        self.wait_start = 0.0
        #: True while a demoted train keeps the pump off its queue.
        self.held = False
        self._credit_wake = Wake(self.sim, self._credited)

    @property
    def idle(self) -> bool:
        """Parked on an empty TX queue, holding nothing."""
        return self.pkt is None and self in self.txq._getters

    def succeed(self, pkt: Packet) -> None:
        """The TX queue hands a packet to the parked pump (``Store``'s
        getter protocol); it takes it from a wake entry at this instant."""
        self.pkt = pkt
        sim = self.sim
        sim._seq += 1
        sim._push_count += 1
        _heappush(sim._heap, (sim._now, sim._seq, self._take, None))

    def _next(self) -> None:
        """Take the head of the TX queue, or park on it."""
        q = self.txq
        items = q._items
        if not items:
            q._getters.append(self)
            return
        self.pkt = items.popleft()
        if q._putters:
            q._admit_putter()
        self._take()

    def _take(self) -> None:
        """Credit, serializer, link check, then serialize ``pkt``."""
        cp = self.credits
        if cp._waiters or cp._credits < 1:
            self.wait_start = self.sim._now
            cp._waiters.append((self._credit_wake, 1))
            return
        cp._credits -= 1
        phy = self.phy
        if phy._waiters or phy._in_use >= phy.capacity:
            phy.acquire().add_callback(self._serialize)
            return
        phy._in_use += 1
        link = self.link
        if link.state != LinkState.ACTIVE or link._ber > 0:
            self._serialize()
            return
        # Serializer start on a clean link (the common case, inlined):
        # one window, no CRC draw.
        self.wire = wire = self.pkt.wire_bytes(link._crc_bytes)
        self.ser = ser = wire / link._rate
        sim = self.sim
        sim._seq += 1
        sim._push_count += 1
        _heappush(sim._heap, (sim._now + ser, sim._seq, self._serialized, None))

    def _credited(self) -> None:
        self.stats.credit_stall_ns += self.sim._now - self.wait_start
        if not self.phy.try_acquire():
            self.phy.acquire().add_callback(self._serialize)
            return
        self._serialize()

    def _serialize(self, _ev=None) -> None:
        link = self.link
        if link.state != LinkState.ACTIVE:
            # The link died while this packet waited for a credit or the
            # serializer: NAK it back to the head of the TX queue (HT
            # retains unacknowledged packets in the retry buffer), release
            # everything, and park until retrain completes.
            self.phy.release()
            self._nak()
            return
        self.wire = wire = self.pkt.wire_bytes(link._crc_bytes)
        self.ser = wire / link._rate
        self.attempts = 1
        self._attempt()

    def _attempt(self) -> None:
        """One serialization window.  A random draw per attempt stands
        for the receiver's CRC check; a failure (NAK plus retransmission)
        costs another window plus turnaround."""
        link = self.link
        sim = self.sim
        if link._ber > 0 and link._rng.random() < link._ber * link._ber_derate:
            sim._push(sim._now + self.ser + link.retry_turnaround_ns,
                      self._retried, None)
        else:
            sim._push(sim._now + self.ser, self._serialized, None)

    def _retried(self) -> None:
        link = self.link
        st = self.stats
        st.retries += 1
        st.busy_ns += self.ser + link.retry_turnaround_ns
        st.retry_wire_bytes += self.wire
        self.attempts += 1
        if self.attempts > link.max_retries:
            # Give up on this packet but keep the VC alive: a dead pump
            # (and a leaked credit) would silently deadlock the channel.
            self.phy.release()
            if link.state != LinkState.ACTIVE:
                self._nak()
                return
            self._drop()
            return
        self._attempt()

    def _serialized(self) -> None:
        """End of the wire time: account, deliver, take the next packet."""
        self.stats.busy_ns += self.ser
        phy = self.phy
        if phy._waiters:
            phy.release()
        else:
            phy._in_use -= 1
        link = self.link
        if link.state != LinkState.ACTIVE:
            # Cut mid-serialization: the receiver never saw a complete
            # packet, so NAK and retransmit after retrain rather than
            # losing or half-delivering it.
            self._nak()
            return
        d = self.d
        pkt = self.pkt
        self.pkt = None
        d._consecutive_drops = 0
        st = self.stats
        st.packets += 1
        st.payload_bytes += len(pkt.data)
        st.wire_bytes += self.wire
        sim = self.sim
        if link.tracer.enabled:
            link.tracer.emit(sim._now, link.name, "tx",
                             (d.tx_side, self.vc.name, pkt.addr))
        sim._seq += 1
        sim._push_count += 1
        _heappush(sim._heap, (sim._now + link.propagation_ns, sim._seq,
                              d._deliver, (pkt, self.vc)))
        # The next packet, inlined from _next.
        q = self.txq
        items = q._items
        if not items:
            q._getters.append(self)
            return
        self.pkt = items.popleft()
        if q._putters:
            q._admit_putter()
        self._take()

    def _drop(self) -> None:
        link = self.link
        d = self.d
        pkt = self.pkt
        self.pkt = None
        self.stats.drops += 1
        self.credits.give()
        link.tracer.emit(self.sim._now, link.name, "drop",
                         (d.tx_side, self.vc.name, pkt.addr))
        d._consecutive_drops += 1
        th = link.fail_down_threshold
        if th is not None and d._consecutive_drops >= th:
            d._consecutive_drops = 0
            link._fail_down()
        self._next()

    def _nak(self) -> None:
        """NAK the held packet (:meth:`_Direction._nak`) and park until
        the link is up again."""
        pkt = self.pkt
        self.pkt = None
        self.d._nak(self.vc, pkt)
        self.link.up_gate.wait().add_callback(self._revived)

    def _revived(self, _ev=None) -> None:
        self._next()

    # -- macro windows (repro.opteron.train) ---------------------------------
    def hold(self) -> None:
        """Keep the parked pump off its queue: a demoted train refilled
        the queue while its last line still holds the serializer."""
        self.txq._getters.remove(self)
        self.held = True

    def release(self) -> None:
        """End a :meth:`hold`: take up the queue again."""
        if self.held:
            self.held = False
            self._next()

    def carry(self, pkt: Packet, ser: float, ser_end: float) -> None:
        """Serialize ``pkt`` (wire time ``ser``) until ``ser_end`` from
        the parked pump, its credit and the serializer already taken: a
        demoted read flow's packet caught on the wire finishes as any
        other, delivered or NAKed at the end of its wire time."""
        self.txq._getters.remove(self)
        self.pkt = pkt
        self.wire = pkt.wire_bytes(self.link._crc_bytes)
        self.ser = ser
        self.sim._push(ser_end, self._serialized, None)

    def wire_end(self) -> None:
        """The wire time of a demoted train's last line ends: free the
        serializer, then take up the queue."""
        self.phy.release()
        self.release()


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
        #: Retry-exhaustion drops since the last successful transmit
        #: (drives the optional fail-down to a narrower width).
        self._consecutive_drops = 0
        #: The northbridge stage that takes this direction's arrivals
        #: (repro.opteron.northbridge), once its chip has started.
        self.rx_stage = None
        #: One transmit stage per VC; each starts by parking on its empty
        #: TX queue.
        self.pumps: Dict[VirtualChannel, _Pump] = {}
        for vc in VirtualChannel:
            pump = self.pumps[vc] = _Pump(self, vc)
            sim._push(sim._now, pump._next, None)

    def _nak(self, vc: VirtualChannel, pkt: Packet) -> None:
        """Return ``pkt``'s credit and take it back from the wire.

        It goes to the head of its TX queue for retransmission after
        retrain -- unless the link is dead: a dead link never retrains,
        so the packet goes back to the chip that sent it instead
        (:meth:`Link.salvage`)."""
        link = self.link
        self.credits[vc].give()
        if link.dead:
            link.salvage(self.tx_side, pkt)
        else:
            self.txq[vc].unget(pkt)
        self.stats.naks += 1
        fault_counters(link.sim).link_naks += 1

    def _deliver(self, pkt: Packet, vc: VirtualChannel) -> None:
        link = self.link
        if link.tracer.enabled:
            # Emitted first, so it lands before any receiver reaction.
            link.tracer.emit(link.sim._now, link.name, "rx",
                             (self.rx_side, vc.name, pkt.addr))
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
        #: Unidirectional rate in bytes/ns; :meth:`set_rate` is the only
        #: mutation path after construction.
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

        Macro windows are demoted first (their speculative future is
        revoked against pre-fault state); then the state flips and the
        up-gate closes.  A pump mid-serialization sees the dead link when
        its wire time ends and NAKs the packet back to its TX queue
        (the delivery is only pushed after that check), then parks until
        :meth:`activate`.
        """
        self.demote_macros()
        self.state = LinkState.DOWN
        self.link_type = None
        self.up_gate.close()

    def salvage(self, side: str, pkt: Packet) -> None:
        """Hand a packet this dead link can no longer send from ``side``
        back to the chip attached there.

        A posted write re-enters the chip's posted queue, and the
        dispatcher re-routes it through the current maps.  Anything else,
        or a posted write that finds the queue full, is dropped with
        accounting (the TCC data plane is writes-only; requesters of a
        dropped read fail via ``LinkDownError``)."""
        fc = fault_counters(self.sim)
        nb = getattr(getattr(self, "attached", {}).get(side), "nb", None)
        if (pkt.vc is VirtualChannel.POSTED and nb is not None
                and nb.posted_q.try_put(pkt)):
            fc.packets_salvaged += 1
        else:
            fc.packets_dropped += 1

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
