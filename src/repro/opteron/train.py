"""Adaptive-fidelity bulk transfers: the write-combined packet train.

The TCCluster transmit pipeline for a large weakly-ordered store is a
fixed four-stage pipeline (WC line fill -> posted queue -> dispatcher ->
link serializer) whose per-packet schedule is *closed under arithmetic*
as long as nothing else touches the queues involved: every fill, pop,
dispatch and serialization instant of packet ``i`` is determined by the
recurrence below.  Simulating it packet by packet costs ~8 calendar
entries per 64-byte line; a 4 MiB store is half a million heap
operations that compute what three ``max()`` chains already know.

:func:`plan_train` checks that a store qualifies (aligned bulk WC store
over a quiescent single-hop TCCluster window) and :class:`BulkTrain`
then runs the whole train at *aggregate fidelity*:

* the sender side (core fills, posted queue, dispatcher, TX queue,
  serializer) becomes pure arithmetic -- its externally visible effects
  (WC stats, ``mmio_writes``, link TX stats, posted-queue depth metric
  samples) are applied lazily at the virtual times they would have
  occurred;
* the receiver side stays exact: the destination commits become one
  :class:`~repro.sim.flows.CommitSpan` on the destination memory
  controller, which folds each line's arrival into the controller's FCFS
  port arithmetic at its exact per-packet instant, so destination memory
  timing, receiver polling and doorbells are bit-identical to per-packet
  mode (this is what lets many trains run concurrently in a mesh).  With
  a tracer on the destination controller, a chain of one calendar
  callback per line performs the real ``memctrl.write_posted`` instead.

**Demotion.**  A train is a :class:`~repro.sim.flows.MacroWindow`: the
schedule is only valid while it owns its northbridge and link direction.
Any foreign action that could perturb it -- another submit into the
same northbridge, any send on the same link direction, a link
rate/BER/state change, an interrupt thrown into the storing core --
calls :meth:`~repro.sim.flows.MacroWindow.demote`, which reconstructs the
exact per-packet state at the demotion instant ``T`` (queue contents,
blocked putters, a mid-flight dispatcher shim, a mid-serialization phy
hold) and falls back to per-packet simulation for the remainder.  The
reconstruction is exact: every timestamp in the recurrence is a dyadic
rational under the default timing model, so float arithmetic reproduces
the per-packet event times bit-for-bit (non-dyadic timing would only be
ulp-close).

Known, documented divergences (DESIGN.md section 8.2):

* ``LinkStats.bursts`` is not incremented (burst mode's counter);
* POSTED credits are not taken/returned mid-window (net zero; at most
  2 credits of transient difference while a packet is in flight --
  enough headroom that back-pressure never gates differently).  A
  credit theft (``CREDIT_STALL``) does see the gap, and demotion on a
  link flap or kill does not rebuild the per-packet NAK sequence;
* mid-window reads of deferred stats by *foreign* observers at the same
  timestamp as the triggering event see post-application values
  (hooks run before the foreign mutation).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, List, Optional

from ..ht.link import LinkDownError
from ..ht.packet import VirtualChannel, make_posted_write
from ..sim import Event, Interrupt, MacroEntry
from ..sim.flows import CommitSpan, MacroWindow
from ..util.units import CACHELINE
from .northbridge import RouteKind

if TYPE_CHECKING:  # pragma: no cover
    from .core import CpuCore

__all__ = ["BulkTrain", "plan_train", "MIN_TRAIN_LINES"]

#: Below this many full lines the scheduling arithmetic is not worth the
#: eligibility scan; the per-packet path handles short stores fine.
MIN_TRAIN_LINES = 4

_INF = float("inf")


def _covers(table, base: int, size: int) -> bool:
    """True when one route-table row covers ``[base, base+size)`` entirely
    and no higher-priority row shadows any part of the range."""
    end = base + size
    for b, lim, _result, _re, _we in table:
        if b <= base < lim:
            return end <= lim
        if b < end and lim > base:
            return False
    return False


def _hand_back(store, ev: Event) -> None:
    """Return a getter stolen from ``store``, replicating ``try_get``:
    pop, admit a blocked putter, then resume the process *synchronously*
    -- the per-packet pump and dispatcher pop and act within a single
    dispatch, so a lazy succeed() would shift their actions one seq later
    and lose same-instant tie-breaks.  An empty store re-parks it."""
    if store._items:
        item = store._items.popleft()
        if store._putters:
            store._admit_putter()
        ev._succeed_inline(item)
    else:
        store._getters.append(ev)


def plan_train(core: "CpuCore", addr: int, data: bytes) -> Optional["BulkTrain"]:
    """Qualify a WC store for aggregate fidelity; ``None`` demotes to the
    per-packet path before anything is committed.

    Eligibility = (a) the store is an aligned bulk of full lines, (b) the
    whole source range routes out one local TCCluster link, (c) the whole
    pipeline for that link direction is quiescent (queues empty, pumps
    parked, credits full, phy idle), and (d) every line lands in the
    destination's ready local DRAM.  Anything else: per-packet.
    """
    chip = core.chip
    sim = core.sim
    feats = sim.features
    if not (feats.adaptive_fidelity and feats.burst_serialization):
        return None
    if addr % CACHELINE:
        return None
    nlines = len(data) // CACHELINE
    if nlines < MIN_TRAIN_LINES:
        return None
    size = nlines * CACHELINE
    nb = chip.nb
    if nb._macro is not None or not nb._started:
        return None
    # The WC streaming fast path must hold for every line: no open buffer
    # may alias a train line and a buffer slot must stay free throughout.
    wc = core.wc
    if wc._buffers:
        if len(wc._buffers) >= wc.num_buffers:
            return None
        if any(addr <= line < addr + size for line in wc._buffers):
            return None
    r = nb.route(addr)
    if r.kind is not RouteKind.MMIO_LOCAL_LINK or not r.writable:
        return None
    if not _covers(nb._route_table, addr, size):
        return None
    binding = chip.ports.get(r.dst_link)
    if binding is None:
        return None
    link = binding.link
    if getattr(link, "_dirs", None) is None:  # striped/aggregated wrapper
        return None
    d = link._dirs[binding.side]
    if not MacroWindow.quiescent(d):
        return None
    cred = d.credits[VirtualChannel.POSTED]
    if cred._credits != cred.initial:
        return None
    if d.rx._items or len(d.rx._getters) != 1:
        return None
    pq = nb.posted_q
    if pq._items or pq._putters or len(pq._getters) != 1:
        return None
    dest_chip = getattr(link, "attached", {}).get(d.rx_side)
    if dest_chip is None:
        return None
    dest_nb = dest_chip.nb
    if not dest_nb._started:
        return None
    proto = make_posted_write(addr, data[:CACHELINE], unitid=nb.nodeid,
                              coherent=False)
    ser = link.serialization_ns(proto)
    prop = link.propagation_ns
    # Credit headroom: at most ceil((ser+prop)/ser) per-packet credits are
    # ever in flight; with strictly more than that (+1 margin) available
    # the pump can never stall, so skipping credit traffic is invisible.
    if cred.initial <= math.ceil((ser + prop) / ser) + 1:
        return None
    dt = dest_chip.timing
    rxs = dt.nb_request_ns + dt.nb_iobridge_ns
    if rxs > ser:
        return None  # receive loop could fall behind the wire
    rd = dest_nb.route(addr)
    if rd.kind is not RouteKind.DRAM_LOCAL:
        return None  # multi-hop stays per-packet
    if not _covers(dest_nb._route_table, addr, size):
        return None
    if not dest_nb._dram_ready():
        return None
    return BulkTrain(core, addr, data, nlines, binding, d, ser, prop, rxs)


class BulkTrain(MacroWindow):
    """One aggregate-fidelity packet train (see module docstring).

    Built by :func:`plan_train` only; drive it with
    ``consumed = yield from train.run()`` from the core's WC store path.
    """

    def __init__(self, core, addr, data, nlines, binding, direction,
                 ser, prop, rxs):
        super().__init__(core.sim)
        self.core = core
        self.nb = core.chip.nb
        self.addr = addr
        #: Zero-copy line spans into the (immutable) source buffer; both
        #: the receiver-side commits and demotion-rebuilt packets slice
        #: this instead of copying 64 bytes per line.
        self._mv = memoryview(data)
        self.K = nlines
        self.port = binding.port
        self.dir = direction
        dest_chip = binding.link.attached[direction.rx_side]
        self.dest_nb = dest_chip.nb
        self.dest_mc = dest_chip.memctrl
        t = core.chip.timing
        self.F = t.wc_line_fill_ns
        self.TS = t.nb_request_ns + t.nb_iobridge_ns
        self.ser = ser
        self.prop = prop
        self.rxs = rxs
        pq_cap = self.nb.posted_q.capacity
        self.capq = pq_cap if pq_cap is not None else nlines + 1
        txq_cap = direction.txq[VirtualChannel.POSTED].capacity
        self.capt = txq_cap if txq_cap is not None else nlines + 1
        proto = make_posted_write(addr, data[:CACHELINE],
                                  unitid=self.nb.nodeid, coherent=False)
        self.wire_per_pkt = proto.wire_bytes(binding.link.timing.ht_crc_bytes)
        self._offs = [self.dest_nb._local_offset(addr + i * CACHELINE)
                      for i in range(nlines)]
        self.metrics_on = self.nb._m.enabled
        self._depth_series = f"{self.nb.name}.posted_q_depth"
        # lifecycle
        self.aborted = False
        self.cut = nlines        # first packet index NOT owned by the train
        self.abort_time = 0.0
        self.resume_fills = 0
        self.resume_put: Optional[Event] = None
        self.wake: Optional[Event] = None
        self._pump_wake: Optional[Event] = None
        # Speculative calendar entries (a demotion revokes whatever part
        # of the precomputed future did not happen): the receiver commit
        # chain's next hop (line _chain_idx), completion, finalization.
        self._chain = MacroEntry(self.sim)
        self._chain_idx = 0
        self._complete_e = MacroEntry(self.sim)
        self._finalize_e = MacroEntry(self.sim)
        self._span: Optional[CommitSpan] = None
        # deferred-effect cursors
        self._fills_applied = 0
        self._mmio_applied = 0
        self._ser_applied = 0
        self._depth_applied = 0
        self._depths: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    # The schedule recurrence (exact; see DESIGN.md "Adaptive fidelity")
    # ------------------------------------------------------------------
    def _compute_schedule(self, t0: float) -> None:
        """Per-packet pipeline instants for all K lines.

        accept[i]    posted queue accepts packet i (core fill i+1 starts)
        fill_done[i] WC fill of line i completes (the submit instant)
        pop[i]       dispatcher pops packet i from the posted queue
        putc[i]      packet i accepted into the link TX queue
        ss[i]        serialization of packet i starts on the wire
        """
        K = self.K
        F, TS, SER = self.F, self.TS, self.ser
        CAPQ, CAPT = self.capq, self.capt
        accept = [0.0] * K
        fill_done = [0.0] * K
        pop = [0.0] * K
        putc = [0.0] * K
        ss = [0.0] * K
        fs = t0
        for i in range(K):
            fd = fs + F
            a = fd
            if i >= CAPQ and pop[i - CAPQ] > fd:
                a = pop[i - CAPQ]  # posted queue full: core blocks
            accept[i] = a
            fill_done[i] = fd
            fs = a
            p = a if i == 0 else max(putc[i - 1], a)
            pop[i] = p
            pc = p + TS
            if i >= CAPT and ss[i - CAPT] > pc:
                pc = ss[i - CAPT]  # TX queue full: dispatcher blocks
            putc[i] = pc
            ss[i] = pc if i == 0 else max(pc, ss[i - 1] + SER)
        self.t0 = t0
        self.accept = accept
        self.fill_done = fill_done
        self.pop = pop
        self.putc = putc
        self.ss = ss
        self.t_end = accept[K - 1]
        self.t_final = max(putc[K - 1], ss[K - 1] + SER)
        self._mcw_off = SER + self.prop + self.rxs

    def _compute_depths(self) -> List[tuple]:
        """(time, value) posted-queue depth samples the dispatcher would
        have tracked at each pop, replaying its exact tie-breaks.

        A pop that finds the queue empty (the dispatcher was parked and a
        put woke it) samples 0.  Otherwise the sample counts the packets
        whose acceptance *dispatch entry* precedes the dispatcher's wake
        entry in the calendar: all accepts strictly before the pop, plus
        same-instant accepts whose triggering entry was pushed earlier
        than the dispatcher's (a blocked putter admitted inside the pop
        always is; a direct put ties on fill-entry vs wake-entry push
        time), minus the i+1 packets already consumed.
        """
        K = self.K
        accept, fill_done, pop, putc = (self.accept, self.fill_done,
                                        self.pop, self.putc)
        t0, TS = self.t0, self.TS
        depths: List[tuple] = []
        ja = 0
        for i in range(K):
            if i == 0 or accept[i] >= putc[i - 1]:
                depths.append((pop[i], 0))
                continue
            tpop = pop[i]
            while ja < K and accept[ja] < tpop:
                ja += 1
            n = ja
            attempt = pop[i - 1] + TS
            disp_push = attempt if putc[i - 1] > attempt else pop[i - 1]
            jb = ja
            while jb < K and accept[jb] == tpop:
                if accept[jb] > fill_done[jb]:
                    n += 1  # blocked putter admitted inside this pop
                else:
                    fill_push = accept[jb - 1] if jb else t0
                    if fill_push < disp_push:
                        n += 1
                jb += 1
            depths.append((tpop, n - (i + 1)))
        return depths

    # ------------------------------------------------------------------
    # Deferred sender-side effects
    # ------------------------------------------------------------------
    def _apply_effects(self, T: float, inclusive: bool) -> None:
        """Apply WC stats, mmio_writes, link TX stats and depth metric
        samples for every pipeline instant up to ``T`` (chronological per
        series, so live samples after ``T`` stay monotone)."""
        cut = bisect_right if inclusive else bisect_left
        nf = cut(self.fill_done, T)
        if nf > self._fills_applied:
            delta = nf - self._fills_applied
            wc = self.core.wc
            wc.fills += delta
            wc.full_flushes += delta
            self._fills_applied = nf
        nm = cut(self.putc, T)
        if nm > self._mmio_applied:
            self.nb.counters.inc("mmio_writes", nm - self._mmio_applied)
            self._mmio_applied = nm
        ns = cut(self.ss, T)
        if ns > self._ser_applied:
            delta = ns - self._ser_applied
            st = self.dir.stats
            st.packets += delta
            st.payload_bytes += CACHELINE * delta
            st.wire_bytes += self.wire_per_pkt * delta
            st.busy_ns += self.ser * delta
            self._ser_applied = ns
        if self.metrics_on:
            if self._depths is None:
                self._depths = self._compute_depths()
            dep = self._depths
            m = self.nb._m
            name = self._depth_series
            i = self._depth_applied
            K = self.K
            while i < K and (dep[i][0] < T or
                             (inclusive and dep[i][0] == T)):
                m.track(name, dep[i][0], dep[i][1])
                i += 1
            self._depth_applied = i

    # ------------------------------------------------------------------
    # Launch / receiver chain / completion
    # ------------------------------------------------------------------
    def launch(self) -> None:
        sim = self.sim
        self._compute_schedule(sim._now)
        self._claim(self.nb, self.dir)
        self.wake = Event(sim, name=f"{self.nb.name}.train")
        self.nb.counters.inc("train_windows")
        self.nb.counters.inc("train_lines", self.K)
        if self.metrics_on:
            self.nb._m.inc("train.windows")
            self.nb._m.inc("train.lines", self.K)
        # Cancellable rather than guarded no-ops: a stale entry would
        # still drag the clock out to t_final when an interrupt makes the
        # calendar drain early.
        if not self.dest_mc.tracer.enabled:
            # The whole destination commit schedule becomes one
            # arithmetic span on the controller instead of two calendar
            # entries per line (see repro.sim.flows.CommitSpan).
            off = self._mcw_off
            self._span = CommitSpan(
                sim, self.dest_mc, self.dest_nb, self._offs, self._mv,
                array("d", [s + off for s in self.ss]), CACHELINE)
        else:
            self._chain.arm(self.ss[0] + self._mcw_off, self._commit, (0,))
        self._complete_e.arm(self.t_end, self._complete, None)
        self._finalize_e.arm(self.t_final, self._finalize, None)

    def _commit(self, i: int) -> None:
        """Receiver-side commit of packet ``i`` at its exact per-packet
        instant: the real destination memory write plus rx accounting.
        One live calendar entry walks the train (traced destinations, and
        a demoted commit span's not-yet-arrived tail)."""
        self._chain.fired()
        if i >= self.cut:
            return
        base = i * CACHELINE
        self.dest_nb.counters.inc("rx_writes")
        self.dest_mc.write_posted(self._offs[i],
                                  self._mv[base:base + CACHELINE])
        j = i + 1
        if j < self.cut:
            self._chain_idx = j
            self._chain.arm(self.ss[j] + self._mcw_off, self._commit, (j,))

    def _complete(self, _=None) -> None:
        self._complete_e.fired()
        if self._closed:
            return
        self._apply_effects(self.t_end, True)
        self.wake.succeed()

    def _finalize(self, _=None) -> None:
        self._finalize_e.fired()
        if self._close():
            self._apply_effects(_INF, True)

    # ------------------------------------------------------------------
    # Demotion
    # ------------------------------------------------------------------
    def _make_pkt(self, i: int, coherent: bool):
        pkt = self.nb._pool.posted_write(
            self.addr + i * CACHELINE,
            self._mv[i * CACHELINE:(i + 1) * CACHELINE],
            unitid=self.nb.nodeid, coherent=coherent)
        pkt.inject_time = self.fill_done[i]
        return pkt

    def _demote(self, T: float) -> None:
        """Reconstruct the exact per-packet state at virtual time ``T``
        (strict-< cut: the triggering foreign action has not yet mutated
        anything) and hand every queue back to the live processes.
        """
        self.aborted = True
        self.nb.counters.inc("train_demotions")
        if self.metrics_on:
            self.nb._m.inc("train.demotions")
        sim = self.sim
        accept, fill_done, pop, putc, ss = (self.accept, self.fill_done,
                                            self.pop, self.putc, self.ss)
        f = bisect_left(fill_done, T)     # WC fills done
        m = bisect_left(accept, T)        # packets in the posted queue ever
        npop = bisect_left(pop, T)        # packets popped by the dispatcher
        nput = bisect_left(putc, T)       # packets accepted into the TX queue
        nser = bisect_left(ss, T)         # packets whose serialization began
        self.cut = nser
        # Revoke the speculative future: completion/finalization entirely,
        # and the commit chain's pending hop if it points past the cut.
        self._complete_e.cancel()
        self._finalize_e.cancel()
        if self._chain_idx >= nser:
            self._chain.cancel()
        if self._span is not None:
            # Commit span: flushed commits stay, in-flight ones become
            # real calendar entries, and the not-yet-arrived tail
            # (strictly before the cut) re-arms the per-line chain.
            j0 = self._span.abort(T)
            self._span = None
            if j0 < nser:
                self._chain_idx = j0
                self._chain.arm(ss[j0] + self._mcw_off, self._commit, (j0,))
        self._apply_effects(T, False)
        self.abort_time = T
        self.resume_fills = f

        # --- link direction: canonical non-burst state --------------------
        d = self.dir
        txq = d.txq[VirtualChannel.POSTED]
        ss_end = ss[nser - 1] + self.ser if nser else T
        if nser < nput:
            for j in range(nser, nput):
                txq._items.append(self._make_pkt(j, coherent=False))
            # The pump must wake to drain these exactly when the per-packet
            # pump would pop packet nser: at ss_end (refill nonempty
            # implies the serializer is still busy until then).
            self._pump_wake = txq._getters.popleft()

        pending_txq_put: Optional[Event] = None
        disp_wake: Optional[Event] = None
        if npop > nput:
            p = npop - 1
            attempt = pop[p] + self.TS
            if attempt <= T:
                # The dispatcher's send() happened before T; its putter
                # must precede any foreign put at T (FIFO).
                pending_txq_put = txq.put(self._make_pkt(p, coherent=False))
            # Dispatcher mid-flight on packet npop-1: steal its parked
            # getter; a shim finishes that packet's handling and hands it
            # back to the real loop.
            disp_wake = self.nb.posted_q._getters.popleft()

        # --- posted queue -------------------------------------------------
        pq = self.nb.posted_q
        for i in range(npop, m):
            pq._items.append(self._make_pkt(i, coherent=True))
        self.resume_put = None
        if f == m + 1:
            # Line m submitted (fill ended before T) but not yet accepted:
            # queue its putter now, ahead of the aborting foreign action.
            self.resume_put = pq.put(self._make_pkt(m, coherent=True))

        # --- re-create the live calendar entries --------------------------
        # Seq order within a timestamp is push order, so entries that
        # collide at the same future instant must be pushed here in the
        # same relative order the per-packet run pushed them: the pump's
        # serialization sleep went on the calendar at ss[nser-1], the
        # dispatcher's crossbar sleep at pop[npop-1], and the core's
        # fill sleep at accept[f-1] (t0 for the first line).
        entries = []
        if nser and ss_end > T:
            took = d.phy.try_acquire()
            assert took, "train invariant: phy idle during window"
            entries.append((ss[nser - 1], 0,
                            lambda: sim._push(ss_end, self._phy_release,
                                              None)))
        else:
            self._resume_pump()
        if npop > nput:
            shim = self._dispatcher_shim(pop[npop - 1] + self.TS, T,
                                         pending_txq_put, npop - 1,
                                         disp_wake)
            entries.append((pop[npop - 1], 1,
                            lambda: sim.process(
                                shim, name=f"{self.nb.name}.train_demote")))
        if not self.wake._triggered:
            entries.append((accept[f - 1] if f else self.t0, 2,
                            self.wake.succeed))
        entries.sort(key=lambda e: (e[0], e[1]))
        for _, _, push in entries:
            push()

    def _phy_release(self, _=None) -> None:
        self.dir.phy.release()
        self._resume_pump()

    def _resume_pump(self) -> None:
        ev = self._pump_wake
        if ev is not None:
            self._pump_wake = None
            _hand_back(self.dir.txq[VirtualChannel.POSTED], ev)

    def _dispatcher_shim(self, attempt: float, T: float,
                         put_ev: Optional[Event], p: int, disp_wake: Event):
        """Finish the dispatcher's in-flight packet exactly as the real
        loop would, then hand the (stolen) getter back to it."""
        if put_ev is None:
            if attempt > T:
                yield attempt - T  # remainder of the crossbar sleep
            pkt = self._make_pkt(p, coherent=False)
            try:
                ev = self.nb._send_on_port_fast(self.port, pkt)
            except LinkDownError:
                # Same contract as the per-packet dispatcher: a link that
                # died between the demotion replay and this send parks the
                # packet on the fault path (retrain wait / reroute) instead
                # of crashing the shim.
                yield from self.nb._forward_fault(pkt)
            else:
                if ev is not None:
                    yield ev
        else:
            yield put_ev
        self.nb.counters.inc("mmio_writes")
        # The per-packet dispatcher pops and samples its depth metric
        # inside the very dispatch that finished the previous packet's
        # send: resume inline, before any same-instant core fill-end entry
        # submits the next line.
        _hand_back(self.nb.posted_q, disp_wake)

    # ------------------------------------------------------------------
    # The core-side driver
    # ------------------------------------------------------------------
    def run(self):
        """Generator driven from ``CpuCore._store_wc`` via ``yield from``;
        returns the number of bytes fully handled (clean completion: all
        of them; demotion: everything up to and including the in-flight
        line, finished here exactly as the per-packet core would)."""
        self.launch()
        try:
            yield self.wake
        except Interrupt:
            self.demote(self.sim.now)
            raise
        if not self.aborted:
            return self.K * CACHELINE
        if self.resume_put is not None:
            # Line resume_fills-1 was submitted but not yet accepted;
            # wait out the acceptance like the per-packet core.
            yield self.resume_put
            return self.resume_fills * CACHELINE
        f = self.resume_fills
        if f >= self.K:
            return self.K * CACHELINE
        # Mid-fill of line f at the abort instant: finish the fill, then
        # combine and submit that one line (its fill sleep already ran).
        remaining = self.fill_done[f] - self.abort_time
        if remaining > 0:
            yield remaining
        core = self.core
        base = f * CACHELINE
        for op in core.wc.store(self.addr + base,
                                self._mv[base:base + CACHELINE]):
            ev = self.nb.submit_posted(op.addr, op.data, op.mask)
            if ev is not None:
                yield ev
        return (f + 1) * CACHELINE
