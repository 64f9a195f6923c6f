"""Flow-level adaptive fidelity: macro events beyond the store train.

:mod:`repro.opteron.train` proved the macro-event pattern for one traffic
class -- WC line stores over a quiescent link -- by replacing the per-packet
pipeline with a closed-form schedule plus an *exact demotion* path that
reconstructs per-packet state at an arbitrary instant.  This module
carries the pattern to the train's destination and to remote reads:

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

msglib's slot spans need nothing here: ``Endpoint._send_eager`` writes a
run of eager ring slots as one contiguous multi-line store, which rides
the bulk train.  The coalescing is *virtual-time neutral by
construction*: one slot per call issues back-to-back 64-byte WC stores
with zero virtual time between the store calls, so a run walks the same
fill/stream schedule line for line, and the train's own demotion replays
the identical per-line instants.

Contract (DESIGN.md section 12): :class:`ReadFlow` and the bulk train are
:class:`MacroWindow` subclasses.  A window may only *promote* while every
queue, credit pool and resource it would bypass is quiescent and
deterministic; any foreign interaction -- a send on an owned link
direction, a fault injection, a BER/rate change, a link state change --
must *demote* it first, reconstructing bit-identical per-packet state at
the demotion instant.  Fault-free, the flows change wall-clock cost,
never virtual time.  ``SimFeatures.adaptive_fidelity`` (default on)
gates all of them together with the train.  A slot span rides a train
whose demotion on a link ``bring_down`` or a credit theft is not yet
exact, so msglib plans none until every such armed fault has acted, a
flap's revive included (``sim._train_faults_until``, set by
:meth:`~repro.faults.FaultInjector.arm`, which also demotes every window
open at that moment through :func:`demote_windows`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Tuple

import numpy as np

from ..ht.packet import make_read_response
from ..obs.metrics import flow_counters
from .engine import MacroEntry

__all__ = ["MacroWindow", "demote_windows", "CommitSpan", "ReadFlow"]

_INF = float("inf")

#: Folds of at least this many arrivals run as NumPy idle runs; shorter
#: ones, and every span shorter than this, take the scalar step.
#: Measured on idle arrivals 23.75 ns apart (best of 7, 2-vCPU Xeon,
#: CPython 3.11): scalar vs NumPy 0.0031 vs 0.0042 ms for 16 lines,
#: 0.0048 vs 0.0041 for 32, 0.018 vs 0.0042 for 128, 0.68 vs 0.011 for
#: 4096.
_FOLD_LINES = 32


# ---------------------------------------------------------------------------
# The macro-window contract
# ---------------------------------------------------------------------------

class MacroWindow:
    """A run of per-packet work replaced by a precomputed schedule over
    resources the window owns exclusively (DESIGN.md section 8.2).

    * ownership: :meth:`_claim` puts the window in the ``_macro`` slot of
      each link direction it plans (a train also claims its northbridge)
      and lists it in ``sim._windows``; only :meth:`_close` clears both;
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
        every VC's pump idle on an empty TX queue with no putters, every
        credit pool full, and the receiving stage idle on an empty rx
        store.

        Full credit pools double as the in-flight test: any packet between
        TX queue and receiver consumption holds a credit, so nothing can
        arrive on ``d`` until a foreign send, which demotes the window
        first."""
        link = d.link
        if link.state != "active" or link._ber > 0 or link.tracer.enabled:
            return False
        if d._macro is not None or d.phy._in_use or d.phy._waiters:
            return False
        for vc, q in d.txq.items():
            if q._items or q._putters or not d.pumps[vc].idle:
                return False
        for cred in d.credits.values():
            if cred._credits != cred.initial:
                return False
        st = d.rx_stage
        return (st is not None and st.idle and not d.rx._items
                and len(d.rx._getters) == 1)

    def _claim(self, *owners) -> None:
        self._owners = owners
        for o in owners:
            o._macro = self
        self.sim._windows[self] = None

    def _close(self) -> bool:
        """End the window and release its slots; False if already ended."""
        if self._closed:
            return False
        self._closed = True
        for o in self._owners:
            if o._macro is self:
                o._macro = None
        self.sim._windows.pop(self, None)
        return True

    def demote(self, T: float) -> None:
        """Hand the window back to per-packet simulation at instant ``T``
        (a no-op once the window has ended)."""
        if self._close():
            self._demote(T)

    def _demote(self, T: float) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def demote_windows(sim) -> None:
    """Demote every macro window open in ``sim`` at the current instant,
    oldest first."""
    for w in list(sim._windows):
        w.demote(sim._now)


def _account_tx(d, pkt, ser: float) -> None:
    """Charge one completed serialization of ``pkt`` to ``d``'s stats."""
    s = d.stats
    s.packets += 1
    s.payload_bytes += len(pkt.data)
    s.wire_bytes += pkt.wire_bytes(d.link._crc_bytes)
    s.busy_ns += ser


# ---------------------------------------------------------------------------
# Destination-side commit spans
# ---------------------------------------------------------------------------

class CommitSpan:
    """Arithmetic replacement for a train's per-line destination commits.

    Per packet, each line of a train costs the destination two calendar
    entries: the rx stage's ``write_posted`` at the line's arrival and the
    memory controller's commit entry.  A ``CommitSpan`` eliminates both;
    it is the only way a :class:`~repro.opteron.train.BulkTrain` reaches
    destination DRAM.  A train that grows appends to its span
    (:meth:`extend`); each store call's payload is held by reference as
    one *part* starting at line ``_starts[j]`` and landing at DRAM offset
    ``_offs[j]`` (one route row covers each part, so its lines are
    contiguous in DRAM; the parts of one span need not be).  Line ``i``
    of part ``j`` lands at ``_offs[j] + (i - _starts[j]) * line``; lines
    that land on one address land in line order, the later one last, as
    per packet.  The span registers the whole arrival schedule with the
    controller and keeps three lazily-advanced cursors:

    * ``_applied``  -- arrivals folded into the controller's FCFS port
      arithmetic (:meth:`_fold`).  Every fold goes through the
      controller's ``_sync_spans``, before it serves any foreign request
      and before any flush, so interleaved claims (the receiver's
      polling loads!) see exactly the ``busy_until`` evolution the
      per-packet run produces, span commit times pick up exactly the
      delays foreign occupancy would have imposed, and spans sharing a
      controller take the port in global arrival order.
    * ``_flushed``  -- commits whose DRAM content, ``writes`` accounting
      and doorbell rings have been applied.  Flushing happens at
      observation points only: a foreign commit, a direct sample, a
      doorbell wake, the span's finalize entry, or a return from
      ``Simulator.run`` / ``run_until_event`` (the controller is listed
      in ``sim._span_hosts`` while it holds spans).
    * deferred doorbell rings -- every run of lines of one part that
      lands in a watched range is a ``(doorbell, i0, i1)`` record of its
      line indices (adjacent runs of one doorbell merge), and the span
      registers as a *provider* on that doorbell, so
      ``Doorbell.count`` reads fold in rings that exist arithmetically; a
      calendar entry is spent only when a consumer actually parks
      (:meth:`arm`).

    Exactness contract: every externally observable quantity -- port
    claim times, memory contents at read-commit instants, doorbell
    counts and wake times, ``writes``/``rx_writes`` totals at any
    quiescent point -- matches the per-packet run.  A demoted train
    truncates its span to the lines already on the wire
    (:meth:`truncate`); the per-packet path carries the rest.
    """

    __slots__ = ("sim", "mc", "dest_nb", "_parts", "_starts", "_offs",
                 "times", "K", "line", "occ", "_lat", "_c", "_applied",
                 "_flushed", "_recs", "_entries", "_fin", "_detached",
                 "on_detach")

    def __init__(self, sim, mc, dest_nb, off0, data, times, line):
        self.sim = sim
        self.mc = mc
        self.dest_nb = dest_nb
        #: Line payloads by reference: part ``j`` holds the lines from
        #: ``_starts[j]`` on (one part per store call of the train) and
        #: lands at DRAM offset ``_offs[j]``.
        self._parts = [data]
        self._starts = array("q", [0])
        self._offs = array("q", [off0])
        # Per-line instants are packed doubles: as lists, the two series
        # of 64 concurrent 256 KiB trains would hold 16 MiB of float
        # objects, not 4 MiB.  NumPy sees them only through views taken
        # per fold: an exported array('d') cannot grow.
        self.times = times            # exact per-line write_posted instants
        self.K = K = len(times)
        self.line = line
        self.occ = mc._occupancy_ns(line)
        self._lat = mc.timing.dram_write_ns
        #: Commit instants; exact below ``_applied``, scratch above.
        self._c = array("d", bytes(8 * K))
        self._applied = 0
        self._flushed = 0
        #: (doorbell, i0, i1): one per watched range, lines i0 <= i < i1.
        self._recs: List[Tuple[object, int, int]] = []
        self._entries = {}            # doorbell -> (MacroEntry, seen count)
        self._fin = MacroEntry(sim)
        self._detached = False
        #: Called once the span detaches (its train closes then).
        self.on_detach = None
        for lo, hi, db in mc._watches:
            self._add_rec(lo, hi, db, 0)
        mc._spans.append(self)
        sim._span_hosts[mc] = None
        # One entry holds the calendar open to the last commit (the
        # per-packet run's final _commit_write entry); re-armed if
        # foreign port occupancy or growth pushes the true instant later.
        self._fin.arm(self._estimate(K - 1), self._finalize, None)

    # -- port arithmetic ----------------------------------------------------
    def next_arrival(self) -> float:
        return self.times[self._applied] if self._applied < self.K else _INF

    def _fold(self, i: int, n: int, b: float) -> float:
        """Fold arrivals ``[i, n)`` into a port busy until ``b``: write
        their commit instants to ``_c`` and return the new busy-until.

        Per line this is the controller's FCFS step: start at the later
        of ``b`` and the arrival, hold the port ``occ``, commit ``lat``
        after that.  A line that finds the port idle starts at its
        arrival, so a run of such lines folds elementwise as
        ``(arrival + occ) + lat``, the same two additions.  The run ends
        at the first line whose predecessor's ``arrival + occ`` exceeds
        its arrival: the step's own ``b > a`` test, evaluated for every
        line at once.  A train's arrivals are at least one serialization
        apart, so after its first idle line a fold is normally one run.
        Busy lines and folds shorter than ``_FOLD_LINES`` take the step."""
        times, c = self.times, self._c
        occ, lat = self.occ, self._lat
        while i < n:
            a = times[i]
            if b > a or n - i < _FOLD_LINES:
                b = (b if b > a else a) + occ
                c[i] = b + lat
                i += 1
                continue
            tv = np.frombuffer(times)[i:n]
            ends = tv + occ
            busy = ends[:-1] > tv[1:]
            r = int(busy.argmax()) + 1 if busy.any() else n - i
            np.add(ends[:r], lat, out=np.frombuffer(c)[i:i + r])
            i += r
            b = times[i - 1] + occ
        return b

    def sync_to(self, now: float, strict: bool = False) -> None:
        """Fold every arrival due by ``now`` (strictly before it when
        ``strict``) into the port.  Only
        :meth:`~repro.opteron.memory.MemoryController._sync_spans` calls
        this, so spans sharing a controller fold in global order."""
        i = self._applied
        if i >= self.K:
            return
        times = self.times
        a = times[i]
        if a > now or (strict and a == now):
            return  # nothing due: the common case on every port claim
        n = (bisect_left if strict else bisect_right)(times, now, i, self.K)
        mc = self.mc
        mc._busy_until = self._fold(i, n, mc._busy_until)
        self._applied = n
        self.dest_nb.counters.inc("rx_writes", n - i)

    def _estimate(self, j: int) -> float:
        """Earliest possible commit instant of line ``j`` (exact once the
        arrival is applied; a lower bound before -- foreign claims and
        other spans only ever push commits later, so an early entry
        re-arms, never a late one fires after the fact).  The tentative
        instants land in the scratch part of ``_c``."""
        if j >= self._applied:
            self._fold(self._applied, j + 1, self.mc._busy_until)
        return self._c[j]

    # -- content / accounting flush -----------------------------------------
    def flush_until(self, now: float, claimed: float = _INF) -> None:
        """Make every commit due by ``now`` real.  A read committing at
        ``now`` passes the instant it ``claimed`` the port: per packet, a
        line committing at that same instant lands first only if it
        arrived by then (its commit entry went on the calendar before the
        read's), so a later arrival stays unflushed."""
        self.mc._sync_spans(now)
        f = self._flushed
        n = bisect_right(self._c, now, f, self._applied)
        # Commit instants strictly increase, so at most one line ties.
        if n > f and self._c[n - 1] == now and self.times[n - 1] > claimed:
            n -= 1
        if n <= f:
            return
        mc = self.mc
        line = self.line
        write = mc.memory.write_span
        starts, parts, offs = self._starts, self._parts, self._offs
        j = bisect_right(starts, f) - 1
        lo = f
        while lo < n:
            s0 = starts[j]
            part = parts[j]
            hi = s0 + len(part) // line
            if hi > n:
                hi = n
            if lo == s0 and (hi - lo) * line == len(part):
                write(offs[j], part)
            else:
                write(offs[j] + (lo - s0) * line,
                      memoryview(part)[(lo - s0) * line:(hi - s0) * line])
            lo = hi
            j += 1
        mc.writes += n - f
        mc.bytes_written += (n - f) * line
        for db, i0, i1 in self._recs:
            lo = f if f > i0 else i0
            hi = n if n < i1 else i1
            if hi > lo:
                db._count += hi - lo
        self._flushed = n

    def part_of(self, i: int) -> Tuple[int, int]:
        """``(j, k)``: line ``i`` is line ``k`` of part ``j``."""
        j = bisect_right(self._starts, i) - 1
        return j, i - self._starts[j]

    def line_data(self, i: int):
        """Payload of line ``i`` (a zero-copy span of its part)."""
        j, k = self.part_of(i)
        k *= self.line
        return memoryview(self._parts[j])[k:k + self.line]

    def line_offset(self, i: int) -> int:
        """DRAM offset line ``i`` lands at."""
        j, k = self.part_of(i)
        return self._offs[j] + k * self.line

    def extend(self, times, data, off: int) -> None:
        """Append lines: their ``times`` of arrival and their payload
        ``data``, held by reference as one more part landing at DRAM
        offset ``off``.  Records of watched ranges grow over the new
        lines, and a consumer already parked on one of them gets its ring
        entry.  The finalize entry stays where it is: it re-arms at the
        new last commit when it fires."""
        K0 = self.K
        self._parts.append(data)
        self._starts.append(K0)
        self._offs.append(off)
        self.times.extend(times)
        self.K = K0 + len(times)
        self._c.frombytes(bytes(8 * len(times)))
        for lo, hi, db in self.mc._watches:
            self._add_rec(lo, hi, db, K0)

    # -- watched ranges -------------------------------------------------------
    def _add_rec(self, lo: int, hi: int, db, first: int) -> None:
        """Record the lines from ``first`` on that land in DRAM range
        ``[lo, hi)`` as ring sources of ``db``, one record per part that
        has any; a record ending where a new one starts grows instead.  A
        consumer parked before the record existed (the usual receive
        pattern: park first, traffic arrives later) never hit the
        park-time arming hook, so arm for it here."""
        line = self.line
        starts, offs, recs = self._starts, self._offs, self._recs
        K = self.K
        added = False
        for j in range(bisect_right(starts, first) - 1, len(starts)):
            s0 = starts[j]
            if s0 >= K:
                break
            s1 = starts[j + 1] if j + 1 < len(starts) else K
            i0 = max(first, s0, s0 + (lo - offs[j]) // line)
            i1 = min(s1, K, s0 + (hi - offs[j] + line - 1) // line)
            if i0 >= i1:
                continue
            added = True
            for k, (d, r0, r1) in enumerate(recs):
                if d is db and r1 == i0:
                    recs[k] = (db, r0, i1)
                    break
            else:
                if all(d is not db for d, _i0, _i1 in recs):
                    db._providers.append(self)
                recs.append((db, i0, i1))
        if added and db._waiters:
            self.arm(db)

    def _next_ring(self, db) -> int:
        """Index of the next unflushed line that rings ``db`` (``K`` if
        none does)."""
        f = self._flushed
        j = self.K
        for d, i0, i1 in self._recs:
            if d is db:
                lo = f if f > i0 else i0
                if lo < i1 and lo < j:
                    j = lo
        return j

    def add_watch(self, lo: int, hi: int, db, now: float) -> None:
        """A watch appeared mid-span (the receive path registers lazily on
        first park).  Per-packet semantics: only commits *after* the
        registration instant ring -- commits due by ``now`` were already
        observable (and are flushed here for good measure)."""
        self.flush_until(now)
        self._add_rec(lo, hi, db, self._flushed)

    def remove_watch(self, db) -> None:
        ent = self._entries.pop(db, None)
        if ent is not None:
            ent[0].cancel()
        recs = [r for r in self._recs if r[0] is not db]
        if len(recs) < len(self._recs):
            self._recs = recs
            db._providers.remove(self)

    # -- doorbell provider protocol -----------------------------------------
    def pending_rings(self, db, now: float) -> int:
        self.mc._sync_spans(now)
        f = self._flushed
        n = bisect_right(self._c, now, f, self._applied)
        c = 0
        for d, i0, i1 in self._recs:
            if d is db:
                lo = f if f > i0 else i0
                hi = n if n < i1 else i1
                if hi > lo:
                    c += hi - lo
        return c

    def arm(self, db) -> None:
        """A consumer parked on ``db``: spend a calendar entry at the
        next overlapping commit instant so the wake is not lost."""
        if db in self._entries:
            return
        j = self._next_ring(db)
        if j < self.K:
            ent = MacroEntry(self.sim)
            ent.arm(self._estimate(j), self._ring_fire, (db,))
            self._entries[db] = (ent, db.count)

    def _ring_fire(self, db) -> None:
        ent, seen = self._entries.pop(db)
        ent.fired()
        held = self._flush_at_entry()
        if not db._waiters:
            return
        if held:
            # Fire again after the read, against the same snapshot.
            ent.arm(self.sim._now, self._ring_fire, (db,))
            self._entries[db] = (ent, seen)
        elif db.count != seen:
            db._wake_waiters()
        else:
            self.arm(db)  # fired on a lower-bound estimate; re-arm exact

    def _flush_at_entry(self) -> bool:
        """Flush at one of the span's own calendar entries.  True when
        the line committing now is held back for a read that commits now
        too but claimed the port before the line arrived: that read's
        entry is still to run, and per packet it lands first."""
        now = self.sim._now
        self.flush_until(now, self.mc.read_claim_at(now))
        f = self._flushed
        return f < self._applied and self._c[f] == now

    # -- lifecycle ----------------------------------------------------------
    def _finalize(self, _=None) -> None:
        self._fin.fired()
        self._flush_at_entry()
        if self._flushed >= self.K:
            self.detach()
        else:
            self._fin.arm(self._estimate(self.K - 1), self._finalize, None)

    def detach(self) -> None:
        """Leave the controller.  A flush moves ``Doorbell._count``
        without waking anyone (the ring entries do that), so every
        consumer whose entry is revoked here and whose snapshot the
        count has passed wakes now, as the per-packet commit's ring
        would have woken it."""
        if self._detached:
            return
        self._detached = True
        self._fin.cancel()
        entries, self._entries = self._entries, {}
        for ent, _ in entries.values():
            ent.cancel()
        if self._recs:
            for db in dict.fromkeys(d for d, _i0, _i1 in self._recs):
                db._providers.remove(self)
        mc = self.mc
        mc._spans.remove(self)
        if not mc._spans:
            del self.sim._span_hosts[mc]
        for db, (_ent, seen) in entries.items():
            if db._waiters and db.count != seen:
                db._wake_waiters()
        done, self.on_detach = self.on_detach, None
        if done is not None:
            done()

    def truncate(self, n: int) -> None:
        """Demote: keep lines ``[0, n)``, those whose serialization began
        before the demotion instant, and leave the rest to the per-packet
        path.  Every applied arrival is a kept line (an arrival follows
        its serialization start), so no port claim is revoked."""
        if n >= self.K:
            return
        assert self._applied <= n, "commit span cut below an applied arrival"
        self.K = n
        if self._flushed >= n:
            self.detach()
            return
        for db in list(self._entries):
            if self._next_ring(db) >= n:
                self._entries.pop(db)[0].cancel()
        self._fin.cancel()
        self._fin.arm(self._estimate(n - 1), self._finalize, None)


# ---------------------------------------------------------------------------
# Read/response chains
# ---------------------------------------------------------------------------

class ReadFlow(MacroWindow):
    """Closed-form remote read: request wire, destination DRAM issue and
    response completion as three calendar entries instead of the
    ~13-entry per-packet request/response pipeline (pump wakes, phy
    handshakes, two rx-stage round trips, response routing).

    The destination memory controller is still *really* called at the
    exact per-packet issue instant, so port arbitration against unrelated
    local traffic (receive-side polling!) stays exact; the responder's rx
    stage is held busy for exactly the window the per-packet stage would
    be.  A run of same-route reads promotes read after read -- each one
    costs pure arithmetic plus the three entries, the "pipelined
    schedule" over the run.

    Demotion (:meth:`_demote`): wherever the read is at instant ``T`` --
    request serializing, on the cable, inside the responder crossbar,
    awaiting DRAM, response serializing, on the cable, or inside the
    requester crossbar -- it writes the per-packet state of each stage
    (a packet on the wire becomes the pump's packet to its serialization
    end, its credit taken; a packet past the wire gets its real deliver
    entry; a packet in a crossbar holds that rx stage busy) and the
    stages finish the job.  A link that dies mid-wire NAKs the packet at
    the end of its wire time, as any packet's pump does.
    """

    __slots__ = ("nb", "dest_nb", "dest_mc", "link", "req_d", "rsp_d",
                 "pkt", "addr", "length", "t0", "ser_req", "t_r", "ser_rsp",
                 "rsp", "_e1", "_e3", "_demoted")

    @classmethod
    def plan(cls, nb, port, pkt, addr, length):
        """Promote when both directions of the link are quiescent and the
        response provably routes straight back over the same link;
        otherwise return None (per-packet path)."""
        binding = nb.chip.ports.get(port)
        if binding is None:
            return None
        link = binding.link
        req_d = link._dirs[binding.side]
        rsp_side = "B" if binding.side == "A" else "A"
        rsp_d = link._dirs[rsp_side]
        if not (cls.quiescent(req_d) and cls.quiescent(rsp_d)):
            return None
        dest_chip = link.attached.get(rsp_side)
        if dest_chip is None:
            return None
        dest_nb = dest_chip.nb
        if (not dest_nb._started or pkt.unitid == dest_nb.nodeid
                or dest_chip.memctrl.tracer.enabled):
            return None
        resp_port = dest_nb._dram_read_port(addr, length, pkt.unitid)
        if resp_port is None:
            return None
        rb = dest_nb.chip.ports.get(resp_port)
        if rb is None or rb.link is not link or rb.side != rsp_side:
            return None
        return cls(nb, link, req_d, rsp_d, dest_nb, pkt, addr, length)

    def __init__(self, nb, link, req_d, rsp_d, dest_nb, pkt, addr, length):
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
        crossbar -- hold the responder's rx stage busy for its per-packet
        busy window and issue the real DRAM read."""
        self._e1.fired()
        self.req_d.rx_stage.hold()
        ev = self.dest_mc.read(self.dest_nb._local_offset(self.addr),
                               self.length, uncached=False)
        ev.add_callback(self._mc_done)

    def _mc_done(self, ev) -> None:
        """The DRAM read committed (t_r): build the response and either
        schedule the completion arithmetically (macro) or hand it to the
        responder's rx stage to route for real (demoted while the read
        was in flight)."""
        sim = self.sim
        self.t_r = sim._now
        pkt = self.pkt
        self.rsp = make_read_response(ev.value, srctag=pkt.srctag,
                                      unitid=pkt.unitid,
                                      coherent=pkt.coherent)
        if self._demoted:
            self.req_d.rx_stage.respond(self.rsp)
            return
        self.dest_nb.counters.inc("rx_reads")
        self.req_d.rx_stage.release()
        self.ser_rsp = self.link.serialization_ns(self.rsp)
        t_done = (self.t_r + self.ser_rsp + self.link.propagation_ns
                  + self.nb.timing.nb_request_ns)
        self._e3.arm(t_done, self._complete, None)

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
        self.rsp_d.rx_stage.release()

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
            # real (the rx stage stays held until then, as per-packet).
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
                d.pumps[pkt.vc].carry(pkt, ser, t_end)
            else:
                _account_tx(d, pkt, ser)
                self.sim._push(t_arrive, d._deliver, (pkt, pkt.vc))
            return
        # Consumed by the receiving rx stage, crossbar latency in progress:
        # ``entry`` stays (its instant is exact), but the per-packet stage
        # is busy from the arrival on -- hold it for the window.
        _account_tx(d, pkt, ser)
        self._demoted = True
        d.rx_stage.hold()
