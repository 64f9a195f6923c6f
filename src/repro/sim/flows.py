"""Flow-level adaptive fidelity: macro events beyond the store train.

:mod:`repro.opteron.train` proved the macro-event pattern for one traffic
class -- the uncontended bulk WC store -- by replacing the per-packet
pipeline with a closed-form schedule plus an *exact demotion* path that
reconstructs per-packet state at an arbitrary instant.  This module
carries the pattern to the train's destination and to two more classes:

* **destination commit spans** (:class:`CommitSpan`): a train's per-line
  DRAM commits become one arithmetic span on the destination memory
  controller instead of two calendar entries per line.  Port arbitration
  against foreign claims stays exact; content and write accounting are
  made real lazily at observation points, including every return from
  ``Simulator.run``.

* **read/response chains** (:class:`ReadFlow`): a run of same-route
  remote reads through one quiescent link is collapsed to two calendar
  entries per read (the DRAM issue instant and the response-complete
  instant) instead of the ~10-entry request/response pipeline.  The
  destination memory controller is still *really* called at the exact
  per-packet issue instant, so port arbitration against unrelated local
  traffic (receive-side polling!) stays exact.

* **msglib ring slot traffic** (:func:`plan_eager_span`): an uncontended
  run of eager ring-slot writes is coalesced into one contiguous
  multi-line store, which then rides the existing bulk-train machinery.
  The coalescing itself is *virtual-time neutral by construction*: the
  per-slot path issues back-to-back 64-byte WC stores with zero virtual
  time between the store calls, so a single span store walks the same
  fill/stream schedule line for line.  Exact per-slot timestamps on
  demotion therefore come for free -- the train's own abort replays the
  identical per-line instants.

Contract (DESIGN.md section 12): :class:`ReadFlow` and the bulk train are
:class:`MacroWindow` subclasses.  A window may only *promote* while every
queue, credit pool and resource it would bypass is quiescent and
deterministic; any foreign interaction -- a send on an owned link
direction, a fault injection, a BER/rate change, a link state change --
must *demote* it first, reconstructing bit-identical per-packet state at
the demotion instant.  Fault-free, the flows change wall-clock cost,
never virtual time.  ``SimFeatures.adaptive_fidelity`` (default on)
gates commit spans and read flows together with the train;
``SimFeatures.flow_fidelity`` (default off) gates only slot-span
coalescing, because a span rides a train whose demotion on a link
``bring_down`` is not yet exact.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from ..ht.packet import make_read_response
from ..obs.metrics import flow_counters
from .engine import MacroEntry

__all__ = ["MacroWindow", "plan_eager_span", "CommitSpan", "ReadFlow"]

_INF = float("inf")


# ---------------------------------------------------------------------------
# The macro-window contract
# ---------------------------------------------------------------------------

class MacroWindow:
    """A run of per-packet work replaced by a precomputed schedule over
    resources the window owns exclusively (DESIGN.md section 8.2).

    * ownership: :meth:`_claim` puts the window in the ``_macro`` slot of
      each link direction it plans (a train also claims its northbridge);
      only :meth:`_close` clears the slots;
    * quiescence: :meth:`quiescent` is the shared promotion test for a
      direction whose transmit side the window bypasses;
    * demotion: :meth:`demote` is the one idempotent entry point; it
      releases the slots, then :meth:`_demote` rebuilds per-packet state.

    Speculative calendar entries are :class:`~repro.sim.engine.MacroEntry`
    objects, so a demotion revokes them without advancing the clock.
    """

    __slots__ = ("sim", "_owners", "_closed")

    def __init__(self, sim):
        self.sim = sim
        self._owners = ()
        self._closed = False

    @staticmethod
    def quiescent(d) -> bool:
        """True when link direction ``d`` can be planned: link active with
        BER 0 and no tracer, no window owning it, PHY idle with no waiters,
        and every VC TX queue empty with only its parked pump -- no
        putters and no burst slots still held."""
        link = d.link
        if link.state != "active" or link._ber > 0 or link.tracer.enabled:
            return False
        if d._macro is not None or d.phy._in_use or d.phy._waiters:
            return False
        for q in d.txq.values():
            if q._items or q._putters or len(q._getters) != 1:
                return False
            if q._phantom and q._live_phantoms():
                return False
        return True

    def _claim(self, *owners) -> None:
        self._owners = owners
        for o in owners:
            o._macro = self

    def _close(self) -> bool:
        """End the window and release its slots; False if already ended."""
        if self._closed:
            return False
        self._closed = True
        for o in self._owners:
            if o._macro is self:
                o._macro = None
        return True

    def demote(self, T: float) -> None:
        """Hand the window back to per-packet simulation at instant ``T``
        (a no-op once the window has ended)."""
        if self._close():
            self._demote(T)

    def _demote(self, T: float) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def _account_tx(d, pkt, ser: float) -> None:
    """Charge one completed serialization of ``pkt`` to ``d``'s stats."""
    s = d.stats
    s.packets += 1
    s.payload_bytes += len(pkt.data)
    s.wire_bytes += pkt.wire_bytes(d.link._crc_bytes)
    s.busy_ns += ser


def _finish_serialization(d, pkt, ser_end: float, ser: float) -> None:
    """Complete a packet a demotion caught mid-serialization on ``d``
    (the caller holds the PHY and the packet's credit): at ``ser_end``
    release the PHY, then deliver (link up) or hand the packet back to
    the pump for its NAK (link died mid-wire), exactly as the pump."""
    link = d.link
    sim = link.sim

    def _end(_=None):
        d.phy.release()
        if link.state == "active":
            _account_tx(d, pkt, ser)
            sim._push(sim._now + link.propagation_ns, d._deliver,
                      (pkt, pkt.vc))
        else:
            d.stats.busy_ns += ser
            d.credits[pkt.vc].give()
            q = d.txq[pkt.vc]
            q.unget(pkt)
            q._wake_getter()

    sim._push(ser_end, _end, None)


# ---------------------------------------------------------------------------
# msglib ring slot traffic: span coalescing
# ---------------------------------------------------------------------------

def plan_eager_span(seq0: int, nslots: int, free_slots: int,
                    data: bytes, pos: int, remaining: int,
                    pack_slot, slot_payload: int
                    ) -> Optional[Tuple[int, bytes, List[int]]]:
    """Plan the largest coalescible run of eager ring slots.

    Returns ``(n, span, chunk_lens)`` -- the number of slots, the packed
    ``n * 64``-byte contiguous slot image starting at ``seq0``'s ring
    address, and each slot's payload length -- or ``None`` when no run of
    at least two slots is possible.  The run is bounded by the message's
    remaining payload, by the transmit window (``free_slots``, sampled
    once: acknowledgements only ever *grow* the window, so a run that
    fits now also fits slot by slot), and by the ring wrap (slots are
    contiguous in memory only up to the ring's end).

    Pure planning: no simulation state is touched.  The caller stores the
    span through the ordinary WC path, which is schedule-identical to the
    per-slot stores it replaces (see the module docstring) and -- for
    runs of four lines and up -- eligible for the bulk-train collapse.
    """
    msg_slots = (remaining + slot_payload - 1) // slot_payload
    run = nslots - ((seq0 - 1) % nslots)   # contiguity ends at the wrap
    n = min(msg_slots, free_slots, run)
    if n < 2:
        return None
    parts = []
    chunk_lens = []
    rem = remaining
    p = pos
    for i in range(n):
        chunk = data[p : p + slot_payload]
        parts.append(pack_slot(seq0 + i, rem, chunk))
        chunk_lens.append(len(chunk))
        p += len(chunk)
        rem -= len(chunk)
    return n, b"".join(parts), chunk_lens


# ---------------------------------------------------------------------------
# Destination-side commit spans
# ---------------------------------------------------------------------------

class CommitSpan:
    """Arithmetic replacement for a train's per-line destination commits.

    A clean :class:`~repro.opteron.train.BulkTrain` spends two calendar
    entries per line on the destination side: the chain entry that calls
    ``write_posted`` at the exact per-packet instant, and the memory
    controller's own commit entry.  A ``CommitSpan`` eliminates both.  It
    registers the whole arrival schedule with the controller and keeps
    three lazily-advanced cursors:

    * ``_applied``  -- arrivals folded into the controller's FCFS port
      arithmetic.  The controller calls :meth:`sync_to` before serving
      any foreign request, so interleaved claims (the receiver's polling
      loads!) see exactly the ``busy_until`` evolution the per-packet
      run produces, and span commit times pick up exactly the delays
      foreign occupancy would have imposed.
    * ``_flushed``  -- commits whose DRAM content, ``writes`` accounting
      and doorbell rings have been applied.  Flushing happens at
      observation points only: a foreign commit, a direct sample, a
      doorbell wake, demotion, the span's finalize entry, or a return
      from ``Simulator.run`` / ``run_until_event`` (the controller is
      listed in ``sim._span_hosts`` while it holds spans).
    * deferred doorbell rings -- the span registers as a *provider* on
      every watched doorbell overlapping its range, so ``Doorbell.count``
      reads fold in rings that exist arithmetically, and a calendar
      entry is spent only when a consumer actually parks (:meth:`arm`).

    Exactness contract: every externally observable quantity -- port
    claim times, memory contents at read-commit instants, doorbell
    counts and wake times, ``writes``/``rx_writes`` totals at any
    quiescent point -- matches the per-packet run.  On demotion
    (:meth:`abort`) in-flight commits become real calendar entries and
    the not-yet-arrived tail is handed back to the train's chain.
    """

    __slots__ = ("sim", "mc", "dest_nb", "offs", "mv", "times", "K",
                 "line", "occ", "_lat", "_c", "_applied", "_flushed",
                 "_contig", "_recs", "_entries", "_fin", "_detached")

    def __init__(self, sim, mc, dest_nb, offs, mv, times, line):
        self.sim = sim
        self.mc = mc
        self.dest_nb = dest_nb
        self.offs = offs
        self.mv = mv
        # Per-line instants are packed doubles (``times`` arrives as an
        # ``array("d")`` too): as lists, the two series of 64 concurrent
        # 256 KiB trains would hold 16 MiB of float objects, not 4 MiB.
        self.times = times            # exact per-line write_posted instants
        self.K = len(offs)
        self.line = line
        self.occ = mc._occupancy_ns(line)
        self._lat = mc.timing.dram_write_ns
        self._c = array("d")          # commit instants, filled as applied
        self._applied = 0
        self._flushed = 0
        self._contig = all(offs[i + 1] - offs[i] == line
                           for i in range(self.K - 1))
        #: (doorbell, sorted overlapping line indices) for watched ranges.
        self._recs = []
        self._entries = {}            # doorbell -> (MacroEntry, seen count)
        self._fin = MacroEntry(sim)
        self._detached = False
        for lo, hi, db in mc._watches:
            idxs = [i for i in range(self.K)
                    if offs[i] < hi and offs[i] + line > lo]
            if idxs:
                self._recs.append((db, idxs))
                db._providers.append(self)
        mc._spans.append(self)
        sim._span_hosts[mc] = None
        # A consumer already parked before this span existed (the usual
        # receive pattern: park first, traffic arrives later) would never
        # hit the park-time arming hook -- arm for it now.
        for db, _idxs in self._recs:
            if db._waiters:
                self.arm(db)
        # One entry holds the calendar open to the last commit (the
        # per-packet run's final _commit_write entry); re-armed if
        # foreign port occupancy pushes the true instant later.
        self._fin.arm(self._estimate(self.K - 1), self._finalize, None)

    # -- port arithmetic ----------------------------------------------------
    def next_arrival(self) -> float:
        return self.times[self._applied] if self._applied < self.K else _INF

    def apply_one(self) -> None:
        """Fold the next arrival into the controller's port FCFS state."""
        a = self.times[self._applied]
        mc = self.mc
        b = mc._busy_until
        start = b if b > a else a
        mc._busy_until = end = start + self.occ
        self._c.append(end + self._lat)
        self._applied += 1
        self.dest_nb.counters.inc("rx_writes")

    def sync_to(self, now: float) -> None:
        times = self.times
        while self._applied < self.K and times[self._applied] <= now:
            self.apply_one()

    def _estimate(self, j: int) -> float:
        """Earliest possible commit instant of line ``j`` (exact once the
        arrival is applied; a lower bound before -- foreign claims only
        ever push commits later, so an early entry re-arms, never a late
        one fires after the fact)."""
        if j < self._applied:
            return self._c[j]
        b = self.mc._busy_until
        for i in range(self._applied, j + 1):
            a = self.times[i]
            b = (b if b > a else a) + self.occ
        return b + self._lat

    # -- content / accounting flush -----------------------------------------
    def _rings(self, idxs, n: int) -> int:
        return bisect_left(idxs, n)

    def flush_until(self, now: float) -> None:
        self.sync_to(now)
        n = bisect_right(self._c, now)
        f = self._flushed
        if n <= f:
            return
        mc = self.mc
        if self._contig:
            base = f * self.line
            mc.memory.write_span(self.offs[f], self.mv[base:n * self.line])
        else:
            for i in range(f, n):
                base = i * self.line
                mc.memory.write_span(self.offs[i],
                                     self.mv[base:base + self.line])
        mc.writes += n - f
        mc.bytes_written += (n - f) * self.line
        for db, idxs in self._recs:
            db._count += self._rings(idxs, n) - self._rings(idxs, f)
        self._flushed = n

    # -- dynamic watch registration -----------------------------------------
    def add_watch(self, lo: int, hi: int, db, now: float) -> None:
        """A watch appeared mid-span (the receive path registers lazily on
        first park).  Per-packet semantics: only commits *after* the
        registration instant ring -- commits due by ``now`` were already
        observable (and are flushed here for good measure)."""
        self.sync_to(now)
        self.flush_until(now)
        idxs = [i for i in range(self._flushed, self.K)
                if self.offs[i] < hi and self.offs[i] + self.line > lo]
        if not idxs:
            return
        for d, existing in self._recs:
            if d is db:
                merged = sorted(set(existing) | set(idxs))
                existing[:] = merged
                break
        else:
            self._recs.append((db, idxs))
            db._providers.append(self)
        if db._waiters:
            self.arm(db)

    def remove_watch(self, db) -> None:
        ent = self._entries.pop(db, None)
        if ent is not None:
            ent[0].cancel()
        for i, (d, _idxs) in enumerate(self._recs):
            if d is db:
                del self._recs[i]
                db._providers.remove(self)
                return

    # -- doorbell provider protocol -----------------------------------------
    def pending_rings(self, db, now: float) -> int:
        self.sync_to(now)
        n = bisect_right(self._c, now)
        for d, idxs in self._recs:
            if d is db:
                return self._rings(idxs, n) - self._rings(idxs, self._flushed)
        return 0

    def arm(self, db) -> None:
        """A consumer parked on ``db``: spend a calendar entry at the
        next overlapping commit instant so the wake is not lost."""
        if db in self._entries:
            return
        for d, idxs in self._recs:
            if d is db:
                j = idxs[self._rings(idxs, self._flushed)] \
                    if self._rings(idxs, self._flushed) < len(idxs) else None
                if j is None:
                    return
                ent = MacroEntry(self.sim)
                ent.arm(self._estimate(j), self._ring_fire, (db,))
                self._entries[db] = (ent, db.count)
                return

    def _ring_fire(self, db) -> None:
        ent, seen = self._entries.pop(db)
        ent.fired()
        self.flush_until(self.sim._now)
        if not db._waiters:
            return
        if db.count != seen:
            db._wake_waiters()
        else:
            self.arm(db)  # fired on a lower-bound estimate; re-arm exact

    # -- lifecycle ----------------------------------------------------------
    def _finalize(self, _=None) -> None:
        self._fin.fired()
        self.flush_until(self.sim._now)
        if self._flushed >= self.K:
            self.detach()
        else:
            self._fin.arm(self._estimate(self.K - 1), self._finalize, None)

    def detach(self) -> None:
        if self._detached:
            return
        self._detached = True
        self._fin.cancel()
        for ent, _ in self._entries.values():
            ent.cancel()
        self._entries.clear()
        for db, _ in self._recs:
            db._providers.remove(self)
        mc = self.mc
        mc._spans.remove(self)
        if not mc._spans:
            del self.sim._span_hosts[mc]

    def abort(self, T: float) -> int:
        """Demote: make the per-packet state real at instant ``T``.

        Commits already flushed stay; arrivals claimed but not committed
        become the real ``_commit_write`` calendar entries the per-packet
        run would have in flight; everything after returns to the caller
        (the first line index whose ``write_posted`` call has not
        happened -- the train re-arms its per-line chain from there).
        """
        self.sync_to(T)
        self.flush_until(T)
        mc = self.mc
        for i in range(self._flushed, self._applied):
            base = i * self.line
            self.sim._push(self._c[i], mc._commit_write,
                           (self.offs[i], self.mv[base:base + self.line],
                            None, None))
        first_uncalled = self._applied
        self.detach()
        return first_uncalled


# ---------------------------------------------------------------------------
# Read/response chains
# ---------------------------------------------------------------------------

class ReadFlow(MacroWindow):
    """Closed-form remote read: request wire, destination DRAM issue and
    response completion as three calendar entries instead of the
    ~13-entry per-packet request/response pipeline (pump wakes, phy
    handshakes, two rx-loop round trips, response routing).

    The destination memory controller is still *really* called at the
    exact per-packet issue instant, so port arbitration against unrelated
    local traffic (receive-side polling!) stays exact; the responder's rx
    loop is stolen for exactly the busy window the per-packet loop would
    occupy.  A run of same-route reads promotes read after read -- each
    one costs pure arithmetic plus the three entries, the "pipelined
    schedule" over the run.

    Demotion (:meth:`_demote`): wherever the read is at instant ``T`` --
    request serializing, on the cable, inside the responder crossbar,
    awaiting DRAM, response serializing, on the cable, or inside the
    requester crossbar -- the per-packet state is reconstructed (phy held
    to the exact serialization end, credits taken, real deliver entries
    pushed, rx loops busy-stolen) and the ordinary machinery finishes.
    Link death mid-wire replays the pump's NAK dance with identical
    counter effects at identical instants.
    """

    __slots__ = ("nb", "dest_nb", "dest_mc", "link", "req_d", "rsp_d",
                 "pkt", "addr", "length", "t0", "ser_req", "t_r", "ser_rsp",
                 "rsp", "_e1", "_e3", "_getter", "_resp_port", "_demoted")

    @classmethod
    def plan(cls, nb, port, pkt, addr, length):
        """Promote when every resource the macro path bypasses is
        quiescent and the response provably routes straight back over the
        same link; otherwise return None (per-packet path).

        The credits-full checks double as an in-flight test: any packet
        between TX queue and receiver consumption holds a credit, so full
        pools mean nothing can arrive on either direction until a foreign
        send happens -- and a foreign send demotes the flow first.
        """
        binding = nb.chip.ports.get(port)
        if binding is None or nb._m.enabled:
            return None
        link = binding.link
        req_d = link._dirs[binding.side]
        rsp_side = "B" if binding.side == "A" else "A"
        rsp_d = link._dirs[rsp_side]
        for d in (req_d, rsp_d):
            if not cls.quiescent(d):
                return None
            if d.rx._items or len(d.rx._getters) != 1:
                return None
            for cred in d.credits.values():
                if cred._credits != cred.initial:
                    return None
        dest_chip = link.attached.get(rsp_side)
        if dest_chip is None:
            return None
        dest_nb = dest_chip.nb
        if (not dest_nb._started or dest_nb._m.enabled
                or pkt.unitid == dest_nb.nodeid
                or dest_chip.memctrl.tracer.enabled):
            return None
        resp_port = dest_nb._dram_read_port(addr, length, pkt.unitid)
        if resp_port is None:
            return None
        rb = dest_nb.chip.ports.get(resp_port)
        if rb is None or rb.link is not link or rb.side != rsp_side:
            return None
        return cls(nb, link, req_d, rsp_d, dest_nb, resp_port, pkt, addr,
                   length)

    def __init__(self, nb, link, req_d, rsp_d, dest_nb, resp_port, pkt,
                 addr, length):
        sim = nb.sim
        super().__init__(sim)
        self.nb = nb
        self.dest_nb = dest_nb
        self.dest_mc = dest_nb.chip.memctrl
        self.link = link
        self.req_d = req_d
        self.rsp_d = rsp_d
        self.pkt = pkt
        self.addr = addr
        self.length = length
        self.t0 = sim._now
        self.ser_req = link.serialization_ns(pkt)
        self.t_r = None
        self.ser_rsp = None
        self.rsp = None
        self._getter = None
        self._resp_port = resp_port
        self._demoted = False
        self._claim(req_d, rsp_d)
        self._e1 = MacroEntry(sim)
        self._e3 = MacroEntry(sim)
        t_issue = (self.t0 + self.ser_req + link.propagation_ns
                   + nb.timing.nb_request_ns)
        self._e1.arm(t_issue, self._issue, None)

    # -- macro path ---------------------------------------------------------
    def _issue(self, _=None) -> None:
        """E1 (t_issue): the request "arrived" and crossed the responder
        crossbar -- steal the responder's rx loop for its per-packet busy
        window and issue the real DRAM read."""
        self._e1.fired()
        self._steal_getter(self.req_d.rx)
        ev = self.dest_mc.read(self.dest_nb._local_offset(self.addr),
                               self.length, uncached=False)
        ev.add_callback(self._mc_done)

    def _mc_done(self, ev) -> None:
        """The DRAM read committed (t_r): build the response and either
        schedule the completion arithmetically (macro) or route it for
        real (demoted while the read was in flight)."""
        sim = self.sim
        self.t_r = sim._now
        pkt = self.pkt
        self.rsp = make_read_response(ev.value, srctag=pkt.srctag,
                                      unitid=pkt.unitid,
                                      coherent=pkt.coherent)
        if self._demoted:
            sim.process(self._demoted_tail(),
                        name=f"{self.dest_nb.name}.readflow_demote")
            return
        self.dest_nb.counters.inc("rx_reads")
        self._restore_getter(self.req_d.rx)
        self.ser_rsp = self.link.serialization_ns(self.rsp)
        t_done = (self.t_r + self.ser_rsp + self.link.propagation_ns
                  + self.nb.timing.nb_request_ns)
        self._e3.arm(t_done, self._complete, None)

    def _demoted_tail(self):
        """Post-demotion completion: exactly the per-packet rx-loop tail
        (response routed with real back-pressure, then accounting, then
        the rx loop re-parks)."""
        nb = self.dest_nb
        yield from nb._route_response(self.rsp, self._resp_port)
        nb.counters.inc("rx_reads")
        self._restore_getter(self.req_d.rx)

    def _steal_getter(self, rx) -> None:
        """Hold ``rx``'s parked rx loop busy for the per-packet busy
        window (:meth:`_restore_getter` ends it)."""
        if self._getter is None and rx._getters:
            self._getter = rx._getters.popleft()

    def _restore_getter(self, rx) -> None:
        """Give the stolen getter back at the head of ``rx`` and wake it."""
        getter = self._getter
        if getter is not None:
            self._getter = None
            rx._getters.appendleft(getter)
            rx._wake_getter()

    def _complete(self, _=None) -> None:
        """E3 (t_done): response consumed and matched at the requester."""
        self._e3.fired()
        if not self._demoted:
            _account_tx(self.req_d, self.pkt, self.ser_req)
            _account_tx(self.rsp_d, self.rsp, self.ser_rsp)
        self._close()
        nb = self.nb
        ev = nb.tags.match(self.pkt.srctag)
        nb._pending_reads.pop(self.pkt.srctag, None)
        if not ev.triggered:
            ev.succeed(self.rsp.data)
        nb.counters.inc("responses_matched")
        self._restore_getter(self.rsp_d.rx)

    # -- demotion -----------------------------------------------------------
    def _demote(self, T: float) -> None:
        """Make the per-packet state real for whatever phase the read is
        in at ``T`` and let the ordinary machinery finish the job."""
        flow_counters(self.sim).read_demotions += 1
        self.nb._read_flow_port = None
        if self._e1.armed:
            self._demote_leg(self._e1, self.req_d, self.pkt, self.t0,
                             self.ser_req, T)
            return
        _account_tx(self.req_d, self.pkt, self.ser_req)
        if self.t_r is None:
            # DRAM read in flight: _mc_done will route the response for
            # real (rx loop stays stolen until then, as per-packet).
            self._demoted = True
        else:
            self._demote_leg(self._e3, self.rsp_d, self.rsp, self.t_r,
                             self.ser_rsp, T)

    def _demote_leg(self, entry, d, pkt, t_start, ser, T) -> None:
        """Demote the leg (request or response) in flight at ``T``: its
        packet started serializing on ``d`` at ``t_start`` and ``entry``
        stands for the receiving end."""
        t_end = t_start + ser
        t_arrive = t_end + self.link.propagation_ns
        if T < t_arrive:
            entry.cancel()
            d.credits[pkt.vc].try_take()
            if T < t_end:
                d.phy.try_acquire()
                _finish_serialization(d, pkt, t_end, ser)
            else:
                _account_tx(d, pkt, ser)
                self.sim._push(t_arrive, d._deliver, (pkt, pkt.vc))
            return
        # Consumed by the receiving rx loop, crossbar latency in progress:
        # ``entry`` stays (its instant is exact), but the per-packet loop
        # is busy from the arrival on -- steal it for the window.
        _account_tx(d, pkt, ser)
        self._demoted = True
        self._steal_getter(d.rx)
