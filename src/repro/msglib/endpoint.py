"""A communication endpoint: one peer pair's send/receive machinery.

Implements the protocol of paper Section IV.A on top of raw remote
stores:

* **eager path** -- messages up to ``eager_max`` travel inside ring slots;
  "sending is performed by writing to a specific address that is mapped
  to a remote node ... written to a ring buffer in main memory at the
  target node",
* **rendezvous path** -- larger payloads are "written directly to the
  final destination on the remote node and an additional queue is used
  for synchronization",
* **polling receive** -- "Receiving of messages is implemented by polling
  the corresponding address on the target node",
* **flow control** -- "Periodically, the APIs on the endpoints have to
  exchange pointer information to communicate buffer fill levels".

Send ordering modes mirror Figure 6: ``"weak"`` lets write-combining
buffers drain on their own (fastest); ``"strict"`` issues an sfence per
cache line ("after each cache line sized store operation an Sfence
instruction is triggered").

All public methods are generators driven inside a simulation process.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from ..ht.link import LinkDownError
from ..obs.metrics import fault_counters, flow_counters, metrics_for
from ..util.units import CACHELINE
from .config import (
    HELLO_MARKER,
    RENDEZVOUS_MARKER,
    SLOT_BYTES,
    SLOT_HEADER,
    SLOT_PAYLOAD,
)
from .slots import (
    pack_feedback,
    pack_hello,
    pack_rendezvous_control,
    pack_slots,
    slots_needed,
    unpack_feedback,
    unpack_feedback_epoch,
    unpack_header,
    unpack_hello,
    unpack_payload,
    unpack_rendezvous_control,
)

if TYPE_CHECKING:  # pragma: no cover
    from .library import MessageLibrary

__all__ = ["Endpoint", "EndpointStats", "MessageError", "TransportError",
           "SessionReset"]


class MessageError(RuntimeError):
    """Protocol violation (oversized message, corrupt slot...)."""


class TransportError(MessageError):
    """The transport gave up: a send/recv deadline expired or the path to
    the peer died (link down with no reroute).  The peer is declared dead
    on send-side failures; the in-band session handshake clears the
    verdict after the peer rejoins."""


class SessionReset(TransportError):
    """The session with the peer was reset by the reconnect handshake.

    Raised in two places: by ``send()`` when a reconnect attempt did not
    complete within the reconnect deadline (the peer is still gone), and
    by ``recv()`` when an incoming HELLO announced a fresh epoch while
    this side still held unacknowledged in-flight state -- that state
    was dropped and the caller must treat the affected messages as lost.
    The session itself is resynchronized; subsequent sends resume."""


class EndpointStats:
    def __init__(self) -> None:
        self.msgs_sent = 0
        self.msgs_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.eager_sent = 0
        self.rendezvous_sent = 0
        self.tx_stalls = 0
        self.tx_stall_ns = 0.0
        self.max_inflight_slots = 0
        self.polls = 0
        self.feedback_writes = 0
        #: Post-delivery feedback writes swallowed because the link was
        #: down; the idle keepalive republishes the line later.
        self.feedback_deferred = 0
        #: Doorbell wakeups while parked (poll-parking fast path).
        self.park_wakes = 0
        #: Reliable-send retransmission rounds (slot images rewritten).
        self.retransmits = 0
        #: Sends/recvs that raised :class:`TransportError` on a deadline.
        self.msgs_expired = 0
        #: Completed session resets (epoch handshakes) on this endpoint,
        #: counting both initiated and HELLO-absorbed resets.
        self.session_resets = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class Endpoint:
    """Bidirectional channel between this rank and ``peer_rank``."""

    def __init__(self, lib: "MessageLibrary", peer_rank: int):
        self.lib = lib
        self.proc = lib.proc
        self.sim = lib.sim
        self.cfg = lib.cfg
        self.layout = lib.layout
        self.me = lib.rank
        self.peer = peer_rank
        my_base = lib.rank_base(self.me)
        peer_base = lib.rank_base(peer_rank)
        lo = self.layout
        # Transmit: my flow into the peer's memory.
        self.tx_ring_addr = peer_base + lo.ring_of_sender(self.me)
        self.tx_heap_addr = peer_base + lo.heap_of_sender(self.me)
        #: acknowledgement line the peer writes into *my* memory.
        self.tx_fb_addr = my_base + lo.feedback_of_peer(peer_rank)
        # Receive: the peer's flow into my memory.
        self.rx_ring_addr = my_base + lo.ring_of_sender(peer_rank)
        self.rx_heap_addr = my_base + lo.heap_of_sender(peer_rank)
        #: acknowledgement line I write into the peer's memory.
        self.rx_fb_addr = peer_base + lo.feedback_of_peer(self.me)
        # TX state
        self.send_seq = 0        # slots pushed into the peer's ring
        self.acked_slots = 0
        self.heap_sent = 0       # monotonically increasing heap cursor
        self.heap_acked = 0
        # RX state
        self.recv_seq = 0        # slots consumed from my ring
        self.heap_recvd = 0
        self.fb_sent_slots = 0
        self.fb_sent_heap = 0
        self.stats = EndpointStats()
        # Reliability state (inert unless a send/recv deadline is set).
        #: Peer declared dead by a failed reliable send (or a link-down
        #: error with no reroute); cleared by the reconnect handshake.
        self.peer_dead = False
        #: Slot images not yet acknowledged by the peer, oldest first:
        #: ``(seq, slot_addr, slot_image, heap_addr, heap_image)`` --
        #: the heap fields are None for eager slots.  Only populated
        #: while a deadline-guarded send is in flight.
        self._unacked: Deque[Tuple[int, int, bytes, Optional[int], Optional[bytes]]] = deque()
        self._send_deadline: Optional[float] = None
        self._rtx_next = 0.0
        self._rtx_backoff = 0.0
        #: Session epoch of the reconnect handshake; 0 until the first
        #: reset.  Bumped by :meth:`_reconnect`, adopted from incoming
        #: HELLO control slots, echoed on every feedback write.
        self.session_epoch = 0
        #: Sim time of the last feedback-line write (ack keepalive clock).
        self._fb_last_ns = -math.inf
        #: Reliability configured (either deadline set): the receive path
        #: acks every message eagerly so a deadline-guarded sender's
        #: `_await_acked` converges even when the receiver then goes
        #: quiet.  False keeps the batched-feedback fault-free behavior
        #: bit-identical.  Both peers must share the reliable config.
        self._reliable = (self.cfg.send_deadline_ns is not None
                          or self.cfg.recv_deadline_ns is not None)
        self._m = metrics_for(self.sim)
        # Metric-name strings are built once: the f-strings showed up in
        # data-plane profiles when metrics are enabled (every occupancy
        # sample and stall rebuilt them).
        self._occ_series = f"msglib.r{self.me}->r{self.peer}.ring_occupancy"
        self._slot_stall_name = f"msglib.r{self.me}->r{self.peer}.slot_stall_ns"
        self._heap_stall_name = f"msglib.r{self.me}->r{self.peer}.heap_stall_ns"
        self._latency_series = f"msglib.r{self.peer}->r{self.me}.latency_ns"
        # Poll-parking state: a doorbell watching my rx ring, re-validated
        # when the process is re-bound to another socket (numactl).
        self._park_chip = None
        self._park_db = None
        self._park_db_obj = None
        self._watched_mc = None

    # -- instrumentation ------------------------------------------------
    def _note_occupancy(self) -> None:
        inflight = self.send_seq - self.acked_slots
        if inflight > self.stats.max_inflight_slots:
            self.stats.max_inflight_slots = inflight
        if self._m.enabled:
            self._m.track(self._occ_series, self.sim.now, inflight)

    # ------------------------------------------------------------------
    # Send
    # ------------------------------------------------------------------
    def send(self, data: bytes, mode: str = "weak",
             deadline_ns: Optional[float] = None):
        """Transmit ``data``; completes when every store has left the core
        (posted semantics -- delivery is guaranteed by HT, not signalled).

        With a deadline (per-call ``deadline_ns`` or the config's
        ``send_deadline_ns``) the call instead completes only once the
        peer acknowledged every ring slot of the message, retransmitting
        unacknowledged slot images on an exponential backoff, and raises
        :class:`TransportError` -- declaring the peer dead -- when the
        deadline expires.  An expired send is never counted in
        ``msgs_sent``/``bytes_sent``.
        """
        if not data:
            raise MessageError("empty message")
        if mode not in ("weak", "strict"):
            raise MessageError(f"unknown ordering mode {mode!r}")
        if self.peer_dead:
            if not self._reliable:
                raise TransportError(
                    f"rank {self.me}: peer rank {self.peer} is declared "
                    "dead (only reliable endpoints reconnect)"
                )
            # In-band reconnect: resync cursors via HELLO/HELLO-ACK, then
            # fall through and transmit normally.  Raises SessionReset
            # when the peer is still unresponsive.
            yield from self._reconnect()
        if self._m.enabled:
            # End-to-end latency clock starts before the library overhead,
            # matching what an application-level timer would see.
            self._m.note_send(self.me, self.peer, self.sim.now)
        limit = deadline_ns if deadline_ns is not None else self.cfg.send_deadline_ns
        if limit is not None:
            self._send_deadline = self.sim.now + limit
            self._rtx_backoff = self.cfg.retransmit_base_ns
            self._rtx_next = self.sim.now + self._rtx_backoff
        try:
            yield self.proc.core.chip.timing.send_overhead_ns
            if len(data) <= self.cfg.eager_max:
                yield from self._send_eager(data, mode)
                eager = True
            else:
                yield from self._send_rendezvous(data, mode)
                eager = False
            if self._send_deadline is not None:
                yield from self._await_acked(self.send_seq)
        except LinkDownError as exc:
            raise self._transport_fail(f"link down while sending ({exc})") from exc
        finally:
            self._send_deadline = None
            self._unacked.clear()
        if eager:
            self.stats.eager_sent += 1
        else:
            self.stats.rendezvous_sent += 1
        self.stats.msgs_sent += 1
        self.stats.bytes_sent += len(data)

    def _slot_tx_addr(self, seq: int) -> int:
        return self.tx_ring_addr + ((seq - 1) % self.cfg.nslots) * SLOT_BYTES

    def _send_eager(self, data: bytes, mode: str):
        # Slot spans (DESIGN.md section 12): each store call writes a run
        # of consecutive ring slots as one contiguous store, so a run of
        # two or more rides the bulk-train fast path.  Virtual-time
        # neutral: one slot per call issues the same back-to-back line
        # stores with zero virtual time between the calls.  A run is one
        # slot in strict mode (an sfence follows every slot), with
        # fidelity off, and until every armed link-down or credit-stall
        # fault has acted, a flap's revive included (a train hit by one
        # does not demote exactly).  Under metrics the store hands back
        # each line's accept instant, where a one-slot store would have
        # returned, and the run's ring-occupancy samples are taken there.
        sim = self.sim
        spans = mode == "weak" and sim.features.adaptive_fidelity
        nslots = self.cfg.nslots
        remaining = len(data)
        pos = 0
        while remaining > 0:
            yield from self._wait_tx_slots(1)
            seq0 = self.send_seq + 1
            n = 1
            if (spans and remaining > SLOT_PAYLOAD
                    and sim._now > sim._train_faults_until):
                # Bounded by the message, by the transmit window (sampled
                # once: acknowledgements only ever grow it, so a run that
                # fits now also fits slot by slot) and by the ring wrap
                # (slots are contiguous in memory only up to its end).
                n = min(-(-remaining // SLOT_PAYLOAD), self._free_tx_slots(),
                        nslots - (seq0 - 1) % nslots)
                if n > 1:
                    fl = flow_counters(sim)
                    fl.slot_windows += 1
                    fl.slot_slots += n
            image = pack_slots(seq0, n, data, pos, remaining)
            addr0 = self._slot_tx_addr(seq0)
            if n > 1 and self._m.enabled:
                accepts: List[float] = []
                yield from self.proc.store(addr0, image, accepts)
                for k in range(n - 1):
                    self._m.track(self._occ_series, accepts[k],
                                  seq0 + k - self.acked_slots)
            else:
                yield from self.proc.store(addr0, image)
            if self._send_deadline is not None:
                for i in range(n):
                    self._unacked.append(
                        (seq0 + i, addr0 + i * SLOT_BYTES,
                         image[i * SLOT_BYTES:(i + 1) * SLOT_BYTES],
                         None, None))
            if mode == "strict":
                yield from self.proc.sfence()
            self.send_seq = seq0 + n - 1
            self._note_occupancy()
            sent = min(remaining, n * SLOT_PAYLOAD)
            pos += sent
            remaining -= sent

    def _send_rendezvous(self, data: bytes, mode: str):
        need = -(-len(data) // CACHELINE) * CACHELINE  # round up to lines
        if need > self.cfg.heap_bytes:
            raise MessageError(
                f"message of {len(data)} bytes exceeds the {self.cfg.heap_bytes}"
                "-byte rendezvous heap"
            )
        offset = self.heap_sent % self.cfg.heap_bytes
        if offset + need > self.cfg.heap_bytes:
            # Skip the tail so the payload stays contiguous.
            pad = self.cfg.heap_bytes - offset
            yield from self._wait_heap(pad + need)
            self.heap_sent += pad
            offset = 0
        else:
            yield from self._wait_heap(need)
        addr = self.tx_heap_addr + offset
        # Already line-granular payloads (the common bulk case) go down the
        # store path as-is -- ljust would copy the whole message.
        padded = data if len(data) == need else data.ljust(need, b"\x00")
        if mode == "strict":
            for off in range(0, need, CACHELINE):
                yield from self.proc.store(addr + off, padded[off : off + CACHELINE])
                yield from self.proc.sfence()
        else:
            yield from self.proc.store(addr, padded)
        # Payload must be globally ordered before the control slot.
        yield from self.proc.sfence()
        self.heap_sent += need
        yield from self._wait_tx_slots(1)
        seq = self.send_seq + 1
        ctrl = pack_rendezvous_control(seq, offset, len(data), self.heap_sent)
        yield from self.proc.store(self._slot_tx_addr(seq), ctrl)
        if self._send_deadline is not None:
            self._unacked.append((seq, self._slot_tx_addr(seq), ctrl,
                                  addr, padded))
        if mode == "strict":
            yield from self.proc.sfence()
        self.send_seq = seq
        self._note_occupancy()

    def flush(self):
        """Drain write-combining buffers (finalize weakly-ordered sends)."""
        try:
            yield from self.proc.sfence()
        except LinkDownError as exc:
            raise self._transport_fail(f"link down while flushing ({exc})") from exc

    # -- transmit-side flow control --------------------------------------
    def _free_tx_slots(self) -> int:
        return self.cfg.nslots - (self.send_seq - self.acked_slots)

    def _wait_tx_slots(self, n: int):
        if self._free_tx_slots() >= n:
            return
        stall_start = self.sim.now
        while self._free_tx_slots() < n:
            self.stats.tx_stalls += 1
            yield from self._refresh_ack()
            if self._free_tx_slots() >= n:
                break
            yield from self._reliability_tick()
            yield self.proc.core.chip.timing.poll_iteration_ns
        self.stats.tx_stall_ns += self.sim.now - stall_start
        if self._m.enabled:
            self._m.inc(self._slot_stall_name, self.sim.now - stall_start)

    def _wait_heap(self, need: int):
        if self.heap_sent - self.heap_acked + need <= self.cfg.heap_bytes:
            return
        stall_start = self.sim.now
        while self.heap_sent - self.heap_acked + need > self.cfg.heap_bytes:
            self.stats.tx_stalls += 1
            yield from self._refresh_ack()
            if self.heap_sent - self.heap_acked + need <= self.cfg.heap_bytes:
                break
            yield from self._reliability_tick()
            yield self.proc.core.chip.timing.poll_iteration_ns
        self.stats.tx_stall_ns += self.sim.now - stall_start
        if self._m.enabled:
            self._m.inc(self._heap_stall_name, self.sim.now - stall_start)

    def _refresh_ack(self):
        raw = yield from self.proc.load(self.tx_fb_addr, 16)
        slots, heap = unpack_feedback(raw)
        # Monotonicity guard: a torn/stale read must never move acks back.
        if slots > self.acked_slots:
            if slots > self.send_seq:
                raise MessageError("peer acknowledged slots never sent")
            self.acked_slots = slots
            una = self._unacked
            while una and una[0][0] <= slots:
                una.popleft()
            self._note_occupancy()
        if heap > self.heap_acked:
            if heap > self.heap_sent:
                raise MessageError("peer acknowledged heap bytes never sent")
            self.heap_acked = heap

    # -- reliability (deadline-guarded sends/recvs) -----------------------
    def _transport_fail(self, why: str) -> TransportError:
        """Declare the peer dead and build the typed error (raised by the
        caller); the reconnect handshake clears the verdict after a
        rejoin."""
        self.peer_dead = True
        self.stats.msgs_expired += 1
        fault_counters(self.sim).messages_expired += 1
        return TransportError(f"rank {self.me} -> rank {self.peer}: {why}")

    def crash_discard(self) -> int:
        """Model this endpoint's volatile state being lost in a node
        crash: the unacknowledged retransmit images (cache/register
        copies, not DRAM) are dropped and the session is declared broken
        so the next reliable ``send()`` runs the reconnect handshake.
        Returns the number of slot images discarded."""
        lost = len(self._unacked)
        self._unacked.clear()
        self.peer_dead = True
        return lost

    def _reconnect(self):
        """In-band session reconnect: epoch-numbered HELLO/HELLO-ACK.

        The feedback line the peer writes into my memory is a monotonic
        record of what it actually consumed, so it survives my crash and
        the peer's crash alike (DRAM endures a warm reset).  Reconnect
        realigns my transmit cursors to it -- dropping stale unacked
        retransmit images deterministically -- then writes a HELLO
        control slot carrying a fresh session epoch exactly where the
        peer polls next, and waits for the peer to echo the epoch on the
        feedback line (the HELLO-ACK).  Raises :class:`SessionReset`
        when the echo does not arrive within the reconnect deadline (the
        send deadline, else 8 x ``retransmit_base_ns``); the attempt is
        safe to repeat and converges once the peer is back.
        """
        t = self.proc.core.chip.timing
        limit = self.cfg.send_deadline_ns
        if limit is None:
            limit = 8 * self.cfg.retransmit_base_ns
        deadline = self.sim.now + limit
        # Stale retransmit images are worthless across a session reset.
        self._unacked.clear()
        try:
            raw = yield from self.proc.load(self.tx_fb_addr, 24)
            fb_slots, fb_heap = unpack_feedback(raw)
            fb_epoch = unpack_feedback_epoch(raw)
            # Roll the tx cursors onto the peer's authoritative consumption
            # record: seq space beyond it belonged to in-flight messages
            # that are lost with the session.
            self.acked_slots = max(self.acked_slots, fb_slots)
            self.send_seq = self.acked_slots
            self.heap_acked = max(self.heap_acked, fb_heap)
            self.heap_sent = self.heap_acked
            epoch = max(self.session_epoch, fb_epoch) + 1
            # My own rx ring may hold the dead session's slot images too;
            # the peer realigns its tx cursor onto my reported recv_seq
            # and reuses those sequence numbers, so flush before inviting
            # it to transmit.
            yield from self._flush_stale_ring()
            seq = self.send_seq + 1
            hello = pack_hello(seq, epoch, self.recv_seq, self.heap_recvd)
            yield from self.proc.store(self._slot_tx_addr(seq), hello)
            yield from self.proc.sfence()
            self.send_seq = seq
            self.session_epoch = epoch
            while True:
                raw = yield from self.proc.load(self.tx_fb_addr, 24)
                fb_slots, fb_heap = unpack_feedback(raw)
                fb_epoch = unpack_feedback_epoch(raw)
                if fb_epoch >= epoch:
                    self.session_epoch = fb_epoch
                    self.acked_slots = max(self.acked_slots, fb_slots)
                    self.send_seq = max(self.send_seq, self.acked_slots)
                    self.heap_acked = max(self.heap_acked, fb_heap)
                    self.heap_sent = max(self.heap_sent, self.heap_acked)
                    self.peer_dead = False
                    self.stats.session_resets += 1
                    fault_counters(self.sim).session_resets += 1
                    return
                if self.sim.now >= deadline:
                    raise SessionReset(
                        f"rank {self.me} -> rank {self.peer}: no HELLO-ACK "
                        f"within the reconnect deadline (epoch {epoch})"
                    )
                yield t.poll_iteration_ns
        except LinkDownError as exc:
            raise SessionReset(
                f"rank {self.me} -> rank {self.peer}: peer unreachable "
                f"during reconnect ({exc})"
            ) from exc

    def _reliability_tick(self):
        """One watchdog step of a deadline-guarded send, shared by every
        transmit-side wait loop: retransmit unacknowledged slot images on
        the exponential-backoff grid, declare the peer dead once the
        deadline passes.  A no-op when no deadline is armed."""
        dl = self._send_deadline
        if dl is None:
            return
        now = self.sim.now
        if now >= dl:
            raise self._transport_fail(
                f"no acknowledgement from rank {self.peer} within the "
                f"send deadline ({self.acked_slots}/{self.send_seq} slots acked)"
            )
        if self._unacked and now >= self._rtx_next:
            # The backoff interval that just elapsed waiting for an ack.
            fault_counters(self.sim).backoff_ns_total += int(self._rtx_backoff)
            self._rtx_backoff *= 2.0
            self._rtx_next = now + self._rtx_backoff
            yield from self._retransmit_unacked()

    def _retransmit_unacked(self):
        """Rewrite every still-unacknowledged slot image (rendezvous
        payload first, then its control slot) into the peer's memory.

        Posted writes on one VC stay FIFO, so a retransmit can never
        overtake the original store or a newer slot, and the receiver's
        monotonic sequence check makes duplicates invisible -- at worst
        the rewrite is redundant wire traffic.
        """
        fc = fault_counters(self.sim)
        for seq, slot_addr, slot_img, heap_addr, heap_img in list(self._unacked):
            if seq <= self.acked_slots:
                continue
            if heap_img is not None:
                yield from self.proc.store(heap_addr, heap_img)
                # Payload globally ordered before its control slot.
                yield from self.proc.sfence()
            yield from self.proc.store(slot_addr, slot_img)
            self.stats.retransmits += 1
            fc.retransmits += 1
        yield from self.proc.sfence()

    def _await_acked(self, target_seq: int):
        """Reliable-send completion: poll the feedback line until the
        peer acknowledged every ring slot up to ``target_seq``."""
        t = self.proc.core.chip.timing
        while self.acked_slots < target_seq:
            yield from self._refresh_ack()
            if self.acked_slots >= target_seq:
                break
            yield from self._reliability_tick()
            yield t.poll_iteration_ns

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------
    def _slot_rx_addr(self, seq: int) -> int:
        return self.rx_ring_addr + ((seq - 1) % self.cfg.nslots) * SLOT_BYTES

    def recv(self, deadline_ns: Optional[float] = None):
        """Block (poll) until the next message is complete; returns bytes.

        ``deadline_ns`` (or the config's ``recv_deadline_ns``) bounds the
        wait: :class:`TransportError` is raised when no message completes
        in time.  Deadline polling stays on the deterministic busy-poll
        grid (doorbell parking is bypassed)."""
        t = self.proc.core.chip.timing
        limit = deadline_ns if deadline_ns is not None else self.cfg.recv_deadline_ns
        deadline = self.sim.now + limit if limit is not None else None
        try:
            while True:
                raw = yield from self._poll_slot(self.recv_seq + 1, deadline)
                seq, length = unpack_header(raw)
                if length == HELLO_MARKER:
                    # Session control: absorb and keep polling for a real
                    # message against the same absolute deadline.
                    yield from self._handle_hello(raw)
                    continue
                if length == RENDEZVOUS_MARKER:
                    offset, plen, heap_end = unpack_rendezvous_control(raw)
                    data = yield from self._bulk_read(self.rx_heap_addr + offset, plen)
                    self.recv_seq += 1
                    self.heap_recvd = heap_end
                    yield from self._feedback_after_delivery(force=True)
                elif slots_needed(length) == 1:
                    data = unpack_payload(raw, length)
                    self.recv_seq += 1
                    yield from self._feedback_after_delivery(
                        force=self._reliable)
                else:
                    data = yield from self._recv_multislot(raw, length, deadline)
                    if data is None:
                        # A reconnecting sender's HELLO replaced the first
                        # slot: the next poll consumes it.
                        continue
                    yield from self._feedback_after_delivery(
                        force=self._reliable)
                break
        except LinkDownError as exc:
            raise self._transport_fail(f"link down while receiving ({exc})") from exc
        yield t.recv_overhead_ns
        self.stats.msgs_received += 1
        self.stats.bytes_received += len(data)
        if self._m.enabled:
            sent_at = self._m.pop_send(self.peer, self.me)
            if sent_at is not None:
                lat = self.sim.now - sent_at
                self._m.observe("msglib.message_latency_ns", lat)
                self._m.observe(self._latency_series, lat)
        return bytes(data)

    def _handle_hello(self, raw: bytes):
        """Consume a HELLO control slot (peer-initiated session reset).

        Adopts the announced epoch, realigns my *transmit* cursors to the
        receive cursors the initiator reported (my unacked in-flight
        state toward it is stale by definition), clears any peer-dead
        verdict, and answers with an epoch-stamped feedback write -- the
        HELLO-ACK.  Raises :class:`SessionReset` when in-flight reliable
        send state had to be dropped, so the sender learns its messages
        are lost; a duplicate HELLO (stale epoch) is just re-acked.
        """
        epoch, peer_recv_seq, peer_heap_recvd = unpack_hello(raw)
        self.recv_seq += 1
        fresh = epoch > self.session_epoch
        stale_unacked = len(self._unacked)
        if fresh:
            self.session_epoch = epoch
            self._unacked.clear()
            self.acked_slots = max(self.acked_slots, peer_recv_seq)
            self.send_seq = self.acked_slots
            self.heap_acked = max(self.heap_acked, peer_heap_recvd)
            self.heap_sent = self.heap_acked
            self.peer_dead = False
            self.stats.session_resets += 1
            # The dead session's in-flight stores may have landed in my
            # ring with sequence numbers the realigned initiator will
            # reuse; flush them before the HELLO-ACK releases new data.
            yield from self._flush_stale_ring()
        # HELLO-ACK: unconditionally publish cursors + epoch echo.
        yield from self._rewrite_feedback()
        if fresh and stale_unacked:
            raise SessionReset(
                f"rank {self.me}: peer rank {self.peer} reset the session "
                f"(epoch {epoch}); {stale_unacked} in-flight slot(s) dropped"
            )

    def try_recv(self):
        """Non-blocking probe: returns the message or None."""
        raw = yield from self.proc.load(self._slot_rx_addr(self.recv_seq + 1), 8)
        seq, _ = unpack_header(raw)
        if seq != self.recv_seq + 1:
            return None
        data = yield from self.recv()
        return data

    def _poll_slot(self, want_seq: int, deadline: Optional[float] = None,
                   hello_seq: Optional[int] = None):
        """Spin on a slot until its sequence number appears.

        ``deadline`` (absolute sim time) bounds the spin with a
        :class:`TransportError`; a deadline-guarded poll never parks, so
        it busy-polls on the plain poll grid, as does a ring that
        :meth:`_parking_doorbell` cannot watch.  With ``hello_seq`` set,
        every busy-poll miss also reads that slot's header and returns
        None once it holds a HELLO.

        Otherwise the *idle* part of the spin is event-driven: instead of
        burning one calendar entry per ``poll_iteration_ns``, the process
        parks on a memory doorbell rung by the controller when a write
        commits into the rx ring, then re-joins the exact poll grid the
        busy loop would have followed (see DESIGN.md, "Performance model
        equivalence").  Sampling times and ``stats.polls`` are unchanged;
        idle-spin events drop to zero.
        """
        addr = self._slot_rx_addr(want_seq)
        t = self.proc.core.chip.timing
        flushed_idle_fb = False
        while True:
            if deadline is not None and self.sim.now >= deadline:
                self.stats.msgs_expired += 1
                fault_counters(self.sim).messages_expired += 1
                raise TransportError(
                    f"rank {self.me}: no message from rank {self.peer} "
                    "within the recv deadline"
                )
            db = self._parking_doorbell() if deadline is None else None
            seen = db.count if db is not None else 0
            self.stats.polls += 1
            raw = yield from self.proc.load(addr, SLOT_BYTES)
            seq, _ = unpack_header(raw)
            if seq == want_seq:
                return raw
            if seq > want_seq:
                raise MessageError(
                    f"ring overrun: found seq {seq} while waiting for "
                    f"{want_seq} (flow control violated)"
                )
            if not flushed_idle_fb:
                # We are idle: push any acknowledgement debt so a blocked
                # sender can make progress.
                flushed_idle_fb = True
                yield from self._maybe_feedback(force=self._fb_debt() > 0)
            elif (self._reliable
                  and (self.recv_seq or self.heap_recvd or self.session_epoch)
                  and self.sim.now - self._fb_last_ns
                      >= self.cfg.retransmit_base_ns):
                # Ack keepalive, the receive-side pair of the sender's
                # retransmit: a feedback write lost in flight (crashed
                # northbridge queue) would otherwise leave the sender
                # retransmitting into a fully-consumed ring forever.
                yield from self._rewrite_feedback()
            if db is None:
                if hello_seq is not None:
                    raw = yield from self.proc.load(
                        self._slot_rx_addr(hello_seq), SLOT_HEADER)
                    if unpack_header(raw) == (hello_seq, HELLO_MARKER):
                        return None
                yield t.poll_iteration_ns
                continue
            # Park.  `seen` was snapshotted before the load, so any commit
            # since then (including one racing the park) wakes immediately.
            load_ns = t.nb_request_ns + self.proc.core.chip.memctrl.read_latency_ns(
                SLOT_BYTES, uncached=True
            )
            grid = t.poll_iteration_ns + load_ns
            anchor = self.sim.now
            yield db.wait(seen)
            self.stats.park_wakes += 1
            # Quantize the wake onto the poll grid: virtual poll j is the
            # first whose *completion* (anchor + j*grid) lies at/after the
            # commit that rang the bell.
            j = max(1, math.ceil((self.sim.now - anchor) / grid))
            self.stats.polls += j - 1  # wholly-elapsed virtual misses
            cj = anchor + j * grid
            sj = cj - load_ns
            if sj >= self.sim.now:
                # Next grid poll has not started yet: sleep to its start
                # and resume the legacy loop (a real load from there).
                yield sj - self.sim.now
                continue
            # The commit landed inside virtual poll j's load window.  That
            # load (issued before the commit) is conceptually in flight;
            # sample memory at its completion time instead of issuing a
            # too-late real load that would skew the observed latency.
            yield cj - self.sim.now
            self.stats.polls += 1
            raw = self._read_slot_direct(addr)
            seq, _ = unpack_header(raw)
            if seq == want_seq:
                return raw
            if seq > want_seq:
                raise MessageError(
                    f"ring overrun: found seq {seq} while waiting for "
                    f"{want_seq} (flow control violated)"
                )
            # The bell was for another slot of the ring; stay on the grid.
            yield t.poll_iteration_ns

    def _parking_doorbell(self):
        """Doorbell watching my rx ring, or None when parking is illegal.

        Parking requires the ring to be local UC memory of the socket the
        process is currently bound to: only then do ring writes commit at
        this chip's memory controller and do polls bypass the caches.  The
        verdict is cached per chip and re-evaluated after ``bind_to``.
        """
        chip = self.proc.core.chip
        if self._park_chip is chip:
            return self._park_db
        from ..opteron.mtrr import MemoryType
        from ..opteron.northbridge import RouteKind
        from ..sim import Doorbell

        self._park_chip = chip
        self._park_db = None
        if self._watched_mc is not None:
            self._watched_mc.unwatch(self._park_db_obj)
            self._watched_mc = None
        ring_bytes = self.cfg.nslots * SLOT_BYTES
        try:
            m = self.proc.pagetable.check_load(self.rx_ring_addr, SLOT_BYTES)
        except Exception:
            return None  # unmapped: let the real load raise the fault
        if m.mtype is not MemoryType.UC:
            return None  # cached polling would not see DRAM updates anyway
        if chip.nb.route(self.rx_ring_addr).kind is not RouteKind.DRAM_LOCAL:
            return None
        lo = chip.nb._local_offset(self.rx_ring_addr)
        hi = chip.nb._local_offset(self.rx_ring_addr + ring_bytes - 1) + 1
        if hi - lo != ring_bytes:
            return None  # ring straddles local ranges; keep busy-polling
        if self._park_db_obj is None:
            self._park_db_obj = Doorbell(
                self.sim, name=f"ep.r{self.me}<-r{self.peer}.doorbell"
            )
        chip.memctrl.watch(lo, hi, self._park_db_obj)
        self._watched_mc = chip.memctrl
        self._park_db = self._park_db_obj
        return self._park_db

    def _read_slot_direct(self, addr: int):
        """Zero-time ring-slot sample used by a quantized park wake (the
        matching virtual load's port occupancy already elapsed)."""
        chip = self.proc.core.chip
        return chip.memctrl.sample(chip.nb._local_offset(addr), SLOT_BYTES)

    def _recv_multislot(self, first_raw: bytes, length: int,
                        deadline: Optional[float] = None):
        """Reassemble a multi-slot message; None when a HELLO replaced
        its first slot while a deadline-guarded wait was on a stale
        middle slot."""
        k = slots_needed(length)
        last_seq = self.recv_seq + k
        # HT keeps posted writes in order along one path, so once the last
        # slot shows up the middle is normally in memory: sync on it, then
        # bulk-read the middle.  A reroute or a crash can break that order,
        # so every middle slot's seq is checked in the bulk read; from the
        # first stale slot on, poll until the late or retransmitted packet
        # fills it, then bulk-read the rest again.  Middle slots are full.
        # A crash that lost the slots also lost their retransmit images:
        # the sender then reconnects and writes its HELLO over the first
        # slot (seq = acked + 1), so a deadline-guarded stale wait watches
        # that slot too.
        yield from self._poll_slot(last_seq, deadline)
        hello_seq = self.recv_seq + 1 if deadline is not None else None
        data = bytearray(unpack_payload(first_raw, min(length, SLOT_PAYLOAD)))
        seq = self.recv_seq + 2
        while seq < last_seq:
            raw = b""
            for (addr, nbytes) in self._ring_spans(seq, last_seq - 1):
                chunk = yield from self._bulk_read(addr, nbytes)
                raw += chunk
            for i in range(0, len(raw), SLOT_BYTES):
                if unpack_header(raw, i)[0] != seq:
                    break
                data += unpack_payload(raw, SLOT_PAYLOAD, i)
                seq += 1
            else:
                break
            slot = yield from self._poll_slot(seq, deadline, hello_seq)
            if slot is None:
                return None
            data += unpack_payload(slot, SLOT_PAYLOAD)
            seq += 1
        if len(data) < length:
            last_raw = yield from self.proc.load(self._slot_rx_addr(last_seq),
                                                 SLOT_BYTES)
            data += unpack_payload(last_raw, length - len(data))
        self.recv_seq += k
        if len(data) != length:
            raise MessageError(f"reassembled {len(data)} of {length} bytes")
        return bytes(data)

    def _ring_spans(self, first_seq: int, last_seq: int) -> List[Tuple[int, int]]:
        """Contiguous [addr, nbytes) runs covering slots first..last."""
        if last_seq < first_seq:
            return []
        spans: List[Tuple[int, int]] = []
        n = self.cfg.nslots
        seq = first_seq
        while seq <= last_seq:
            idx = (seq - 1) % n
            run = min(last_seq - seq + 1, n - idx)
            spans.append((self.rx_ring_addr + idx * SLOT_BYTES, run * SLOT_BYTES))
            seq += run
        return spans

    def _bulk_read(self, addr: int, nbytes: int):
        out = bytearray()
        pos = 0
        while pos < nbytes:
            n = min(self.cfg.read_chunk, nbytes - pos)
            chunk = yield from self.proc.load(addr + pos, n)
            out += chunk
            pos += n
        return bytes(out)

    # -- receive-side flow control ------------------------------------------
    def _fb_debt(self) -> int:
        return self.recv_seq - self.fb_sent_slots

    def _flush_stale_ring(self):
        """Zero every rx-ring slot position ahead of ``recv_seq``.

        Across a session reset the transmit cursor realigns *down*, so
        the fresh epoch reuses sequence numbers the dead session may
        already have written into my DRAM; a seq-matched stale slot
        would be consumed as a fresh message and desynchronize the
        framing.  Posted writes on one VC are FIFO, so by the time the
        HELLO that triggered the reset is visible every older store has
        landed -- and new-epoch data only flows after the HELLO-ACK --
        which makes this flush race-free.
        """
        zero = bytes(SLOT_BYTES)
        for seq in range(self.recv_seq + 1,
                         self.recv_seq + 1 + self.cfg.nslots):
            yield from self.proc.store(self._slot_rx_addr(seq), zero)
        yield from self.proc.sfence()

    def _feedback_after_delivery(self, force: bool = False):
        """Ack publish for a message that is already extracted and
        cursor-advanced.  The slot is consumed at this point, so a link
        failure in the *advisory* feedback write must not destroy the
        delivered message by failing the whole ``recv()`` -- the write
        is swallowed and the idle keepalive (or the next delivery)
        republishes the line once the fabric heals.  Failures before
        extraction still propagate as :class:`TransportError`."""
        try:
            yield from self._maybe_feedback(force=force)
        except LinkDownError:
            self.stats.feedback_deferred += 1

    def _maybe_feedback(self, force: bool = False):
        if not force and self._fb_debt() < self.cfg.fb_interval_slots:
            return
        if self._fb_debt() == 0 and self.heap_recvd == self.fb_sent_heap:
            return
        yield from self._rewrite_feedback()

    def _rewrite_feedback(self):
        """Unconditional feedback-line write (cursors + epoch echo).

        Beyond the batched path above this is the ack keepalive and the
        HELLO-ACK: a feedback write lost in a crashed northbridge queue
        leaves the sender retransmitting into a ring the receiver already
        consumed, so reliable receivers republish the line while idle."""
        line = pack_feedback(self.recv_seq, self.heap_recvd, self.session_epoch)
        yield from self.proc.store(self.rx_fb_addr, line)
        self.fb_sent_slots = self.recv_seq
        self.fb_sent_heap = self.heap_recvd
        self._fb_last_ns = self.sim.now
        self.stats.feedback_writes += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint {self.me}->{self.peer}>"
