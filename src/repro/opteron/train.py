"""Adaptive-fidelity WC stores: the open-ended write-combined packet train.

The TCCluster transmit pipeline for weakly-ordered line stores is a
fixed four-stage pipeline (WC line fill -> posted queue -> dispatcher ->
link serializer) whose per-packet schedule is *closed under arithmetic*
as long as nothing else touches the queues involved: every fill, pop,
dispatch and serialization instant of packet ``i`` is determined by the
recurrence below from the earlier packets and the instant line ``i``'s
fill starts.  Simulating it packet by packet costs ~8 calendar entries
per 64-byte line; a 4 MiB store is half a million heap operations that
compute what three ``max()`` chains already know.

:func:`plan_train` checks that an aligned full-line WC store over a
quiescent single-hop TCCluster window qualifies and :class:`BulkTrain`
then carries it at *aggregate fidelity*.  The train is open-ended: the
same core's next full-line store *extends* it when its lines take the
train's own route -- out the same port, into the destination chip's
local DRAM -- whatever their address.  Each store call is a *segment*
of the train: Figure 6's loop stores one line per call, each segment
starting where the last one ended, and a rendezvous message is its
heap payload and then, after an sfence, its one-line control slot in
the ring.  Every store call appends its lines at the instant it begins
and waits once, until its last line is accepted; a multi-line store is
one append of all its lines.  A line depends only on earlier lines and
its own fill start, never on its address, so no computed instant ever
changes when the train grows.  Only an armed fault that a train does
not survive exactly keeps a train to the one store that opened it, of at
least ``MIN_TRAIN_LINES`` lines; metrics do not limit trains, since the
posted-queue depth samples of every segment are replayed exactly.

* the sender side (core fills, posted queue, dispatcher, TX queue,
  serializer) becomes pure arithmetic -- its externally visible effects
  (WC stats, ``mmio_writes``, link TX stats, posted-queue depth metric
  samples) are applied lazily: the core's WC stats when each store call
  returns, the rest when the window ends or demotes;
* the receiver side stays exact: the destination commits become one
  :class:`~repro.sim.flows.CommitSpan` on the destination memory
  controller, which folds each line's arrival into the controller's FCFS
  port arithmetic at its exact per-packet instant, so destination memory
  timing, receiver polling and doorbells are bit-identical to per-packet
  mode (this is what lets many trains run concurrently in a mesh).  The
  span is the train's only path to destination DRAM; a traced
  destination controller therefore keeps the store per-packet.  The
  window ends when the span detaches, its last line committed; a train
  whose pipeline has drained is closed by whatever touches it first.

**Schedule kernel.**  :func:`_recur` is the recurrence, line by line,
and the one definition of the schedule.  Short appends run it alone.
A long append whose serializer is its slowest stage runs it over the
transient and then speculates the steady regime for the rest with
NumPy (:func:`_speculate`): the serializer runs back to back, the TX
queue stays full and the core is either free or blocked on a full
posted queue.  Every proposed line is checked against the recurrence's
own equations with the loop's own float additions and comparisons; the
verified prefix is kept and the loop resumes at the first line that
fails.  A series in which every line satisfies its equation given the
earlier lines *is* the recurrence's unique solution, so the result
equals the loop bit for bit under any timing model.

**Demotion.**  A train is a :class:`~repro.sim.flows.MacroWindow`: the
schedule is only valid while it owns its northbridge and link direction.
Any foreign action that could perturb it -- another submit into the
same northbridge, any send on the same link direction, a link
rate/BER/state change, an interrupt thrown into the storing core --
calls :meth:`~repro.sim.flows.MacroWindow.demote`, which reconstructs the
exact per-packet state at the demotion instant ``T`` (queue contents,
blocked putters, the dispatcher's line in flight, a mid-serialization phy
hold), truncates the commit span to the lines already on the wire and
falls back to per-packet simulation for the remainder.  The
reconstruction is exact: every timestamp in the recurrence is a dyadic
rational under the default timing model, so float arithmetic reproduces
the per-packet event times bit-for-bit (non-dyadic timing would only be
ulp-close).

Known, documented divergences (DESIGN.md section 8.2):

* POSTED credits are not taken/returned mid-window (net zero; at most
  2 credits of transient difference while a packet is in flight --
  enough headroom that back-pressure never gates differently).  A
  credit theft (``CREDIT_STALL``) does see the gap, and demotion on a
  link flap or kill does not rebuild the per-packet NAK sequence;
* mid-window reads of deferred stats by *foreign* observers at the same
  timestamp as the triggering event see post-application values
  (hooks run before the foreign mutation);
* a foreign action and a train step due at the same instant are
  ordered by the strict-< cut (foreign first), not by calendar history
  as per packet, where the step goes first if its entry was pushed
  earlier.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..ht.packet import VirtualChannel, make_posted_write
from ..sim import Event, Interrupt, MacroEntry
from ..sim.flows import _FOLD_LINES, CommitSpan, MacroWindow
from ..util.units import CACHELINE
from .northbridge import RouteKind

if TYPE_CHECKING:  # pragma: no cover
    from .core import CpuCore

__all__ = ["BulkTrain", "plan_train", "MIN_TRAIN_LINES"]

#: Fewest full lines of a train that can never grow (one opened while an
#: armed fault may still act): below it the arithmetic is not worth the
#: eligibility scan.  A train that can grow opens on a single line.
MIN_TRAIN_LINES = 4

#: Lines the scalar loop runs before each speculation round (the
#: transient: under the default timing model a train settles into the
#: steady regime by line 26, when its TX queue fills).
_LOOP_LINES = 64
#: Appends shorter than this stay on the scalar loop.  Measured with
#: default timing (best of 7, 2-vCPU Xeon, CPython 3.11): loop vs loop +
#: kernel 0.027 vs 0.045 ms at 64 lines, 0.066 vs 0.071 at 128, 0.072
#: vs 0.071 at 160, 0.111 vs 0.067 at 192, 2.10 vs 0.17 at 4096.
_VECTOR_LINES = 160

_INF = float("inf")

#: A full-line posted write as the link carries it: every train line
#: has its wire footprint and serialization time.
_LINE = make_posted_write(0, bytes(CACHELINE), unitid=0, coherent=False)


def _recur(s, i0: int, i1: int, fs: float, F: float, TS: float,
           SER: float, CAPQ: int, CAPT: int) -> None:
    """The schedule recurrence, line by line: fill lines ``[i0, i1)`` of
    the five series ``s`` = (accept, fill_done, pop, putc, ss) from the
    lines before ``i0``, whose WC fill starts at ``fs`` (see
    :meth:`BulkTrain._append`).  Each later line's fill starts when the
    one before it is accepted."""
    accept, fill_done, pop, putc, ss = s
    for i in range(i0, i1):
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


def _speculate(v, j: int, F: float, TS: float, SER: float, CAPQ: int,
               CAPT: int) -> int:
    """One speculation round over NumPy views ``v`` of the five series,
    lines ``[0, j)`` known and ``j >= CAPT``: propose the steady regime
    for every later line, verify it, and return the end of the verified
    prefix (``j`` if the first line fails).

    The proposal: serialization back to back (``ss`` by repeated addition
    of ``SER``, in the loop's order), a full TX queue (``putc`` is ``ss``
    shifted by ``CAPT``), a dispatcher that pops as soon as it has put
    (``pop`` is ``putc`` shifted by one), and the core either blocked on
    a full posted queue (``accept`` is ``pop`` shifted by ``CAPQ``) or
    free (``accept`` by repeated addition of ``F``), whichever line
    ``j - 1`` was.  Line ``i`` passes when each series equals the loop's
    expression over the proposed earlier lines: each ``max`` and each
    queue-full test picks the proposed branch.  Two of the five hold by
    construction: ``fill_done`` is the loop's own addition, and the
    serializer's ``max`` picks ``ss[i - 1] + SER`` because that is at
    least ``ss[i - 1] >= ss[i - CAPT] = putc[i]``."""
    accept, fill_done, pop, putc, ss = v
    K = len(ss)
    blocked = accept[j - 1] > fill_done[j - 1]
    ss[j:] = SER
    np.add.accumulate(ss[j - 1:], out=ss[j - 1:])
    putc[j:] = ss[j - CAPT:K - CAPT]
    pop[j:] = putc[j - 1:K - 1]
    if blocked:
        accept[j:] = pop[j - CAPQ:K - CAPQ]
        np.add(accept[j - 1:K - 1], F, out=fill_done[j:])
    else:
        accept[j:] = F
        np.add.accumulate(accept[j - 1:], out=accept[j - 1:])
        fill_done[j:] = accept[j:]
    ok = accept[j:] <= putc[j - 1:K - 1]
    ok &= ss[j - CAPT:K - CAPT] >= pop[j:] + TS
    if blocked:
        ok &= accept[j:] >= fill_done[j:]
    elif CAPQ < K:
        m = max(j, CAPQ)
        ok[m - j:] &= pop[m - CAPQ:K - CAPQ] <= fill_done[m:]
    return K if ok.all() else j + int(ok.argmin())


def schedule(t0: float, K: int, F: float, TS: float, SER: float,
             CAPQ: int, CAPT: int, s=None):
    """Append ``K`` lines to the five per-line series ``s`` = (accept,
    fill_done, pop, putc, ss) of a train, the first new line's WC fill
    starting at ``t0``, and return ``s`` (five new ``array('d')`` when
    ``None``).  Every value is a Python ``float`` when read and equals
    :func:`_recur`'s bit for bit.

    The kernel proposes a wire-bound steady state, so it serves only
    appends of at least ``_VECTOR_LINES`` lines whose serializer is the
    slowest stage (``SER`` above ``F`` and ``TS``) and whose TX queue
    fills within the first loop stretch; they alternate loop and
    speculation rounds over NumPy views of the series (module
    docstring), taken here and released on return, since an exported
    ``array('d')`` cannot grow.  Every other append runs the loop."""
    if s is None:
        s = [array("d", bytes(8 * K)) for _ in range(5)]
        i0 = 0
    else:
        i0 = len(s[4])
        zeros = bytes(8 * K)
        for x in s:
            x.frombytes(zeros)
    n = i0 + K
    args = (F, TS, SER, CAPQ, CAPT)
    if K < _VECTOR_LINES or not (F < SER > TS and CAPT < _LOOP_LINES):
        _recur(s, i0, n, t0, *args)
        return s
    v = [np.frombuffer(x) for x in s]
    j = i0
    while j < n:
        stop = min(n, j + _LOOP_LINES)
        _recur(s, j, stop, t0 if j == i0 else s[0][j - 1], *args)
        if stop == n:
            break
        j = _speculate(v, stop, *args)
        if j - stop < _LOOP_LINES:
            # Not the steady regime: finish line by line.
            _recur(s, j, n, s[0][j - 1], *args)
            break
    return s


def _shifted(series, i0: int, off: float) -> array:
    """``x + off`` for every ``x`` of ``series[i0:]``, as ``array('d')``
    (``off + x``, the same float: addition commutes exactly).  Short runs
    add in Python, longer ones with one NumPy add over a view, the
    elementwise add of the commit-span fold, with its crossover."""
    n = len(series) - i0
    if n < _FOLD_LINES:
        return array("d", map(off.__add__, series[i0:]))
    out = array("d", bytes(8 * n))
    np.add(np.frombuffer(series)[i0:], off, out=np.frombuffer(out))
    return out


def _cover_limit(table, base: int) -> int:
    """End of the run from ``base`` that one route-table row covers with
    no higher-priority row shadowing any part of it (``base`` itself when
    no row covers ``base``)."""
    end = None
    for b, lim, _result, _re, _we in table:
        if b <= base < lim:
            return lim if end is None or lim < end else end
        if b > base and (end is None or b < end):
            end = b
    return base


def _rows_end(nb, dest_nb, port: int, addr: int) -> int:
    """End of the run from ``addr`` whose lines leave ``nb`` through
    ``port`` as a writable ``MMIO_LOCAL_LINK`` and land in ``dest_nb``'s
    local DRAM, one route row covering the run on each side, so that its
    lines are contiguous in that DRAM (``addr`` itself when its own line
    does not qualify: multi-hop stays per-packet)."""
    r = nb.route(addr)
    if (r.kind is not RouteKind.MMIO_LOCAL_LINK or not r.writable
            or r.dst_link != port):
        return addr
    if dest_nb.route(addr).kind is not RouteKind.DRAM_LOCAL:
        return addr
    return min(_cover_limit(nb._route_table, addr),
               _cover_limit(dest_nb._route_table, addr))


def plan_train(core: "CpuCore", addr: int, data) -> Optional["BulkTrain"]:
    """The train that carries the full lines of a WC store, or ``None``
    for the per-packet path: the train open on this core's northbridge
    when the store extends it (:meth:`BulkTrain.extends`), else a new
    one, unlaunched, if the store qualifies.  A train still open past
    its pipeline's drain is closed here, which changes nothing a
    per-packet run could observe; one still in flight is left to the
    store's own submit to demote (a store bound elsewhere: another link
    direction, a destination the next chip forwards to, or another
    core's or a waiting call's store).

    Eligibility of a new train = (a) the store is aligned and has a full
    line (at least ``MIN_TRAIN_LINES`` while an armed fault may still
    act, and then the train never grows; metrics play no part), (b) the
    whole source range routes out one local TCCluster link, (c) that link
    direction passes :meth:`~repro.sim.flows.MacroWindow.quiescent` and
    the posted queue is empty with its dispatcher parked, and (d) every
    line lands in the destination chip's ready, untraced local DRAM, one
    route row covering the range on each side (so the lines are
    contiguous there; a later segment of the train passes the same route
    test at its own address).  Anything else: per-packet.
    """
    chip = core.chip
    sim = core.sim
    if not sim.features.adaptive_fidelity:
        return None
    if addr % CACHELINE:
        return None
    nlines = len(data) // CACHELINE
    if not nlines:
        return None
    nb = chip.nb
    m = nb._macro
    if m is not None:
        if m.extends(core, addr, nlines):
            return m
        if sim._now < m.t_final:
            return None
        m.demote(sim._now)    # drained: a plain close
    growable = sim._now > sim._train_faults_until
    if not growable and nlines < MIN_TRAIN_LINES:
        return None
    size = nlines * CACHELINE
    if not nb._started:
        return None
    if not _wc_clear(core.wc, addr, size):
        return None
    r = nb.route(addr)
    if r.kind is not RouteKind.MMIO_LOCAL_LINK or not r.writable:
        return None
    binding = chip.ports.get(r.dst_link)
    if binding is None:
        return None
    link = binding.link
    d = link._dirs[binding.side]
    if not MacroWindow.quiescent(d):
        return None
    pq = nb.posted_q
    if pq._items or pq._putters or not nb.dispatcher.idle:
        return None
    dest_chip = getattr(link, "attached", {}).get(d.rx_side)
    if dest_chip is None:
        return None
    dest_nb = dest_chip.nb
    if not dest_nb._started or dest_chip.memctrl.tracer.enabled:
        return None
    ser = link.serialization_ns(_LINE)
    prop = link.propagation_ns
    # Credit headroom: at most ceil((ser+prop)/ser) per-packet credits are
    # ever in flight; with strictly more than that (+1 margin) available
    # the pump can never stall, so skipping credit traffic is invisible.
    if (d.credits[VirtualChannel.POSTED].initial
            <= math.ceil((ser + prop) / ser) + 1):
        return None
    dt = dest_chip.timing
    rxs = dt.nb_request_ns + dt.nb_iobridge_ns
    if rxs > ser:
        return None  # receive loop could fall behind the wire
    limit = _rows_end(nb, dest_nb, binding.port, addr)
    if addr + size > limit:
        return None
    if not dest_nb._dram_ready():
        return None
    return BulkTrain(core, addr, binding, d, ser, prop, rxs,
                     _LINE.wire_bytes(link.timing.ht_crc_bytes), growable,
                     limit, (nb._route_table, dest_nb._route_table))


def _wc_clear(wc, addr: int, size: int) -> bool:
    """The WC streaming fast path holds for every line of
    ``[addr, addr + size)``: no open buffer aliases one and a buffer
    slot stays free throughout."""
    if not wc._buffers:
        return True
    if len(wc._buffers) >= wc.num_buffers:
        return False
    return not any(addr <= line < addr + size for line in wc._buffers)


class BulkTrain(MacroWindow):
    """One aggregate-fidelity packet train (see module docstring).

    Built by :func:`plan_train` only; every store call it carries runs
    ``consumed = yield from train.run(addr, data)`` from the core's WC
    store path, which appends the call's lines as one segment.  The
    train records each segment's source address (for the packets a
    demotion rebuilds and a demoted call's per-packet finish); its
    commit span keeps each segment's DRAM offset as one part.
    """

    # Defaults of the state that only appends, demotions and deferred
    # effects change (class attributes: most one-line trains never touch
    # them, and the instance dict stays small).
    t_end = t_final = -_INF
    c0 = 0                  # first line of the store call in progress
    aborted = False
    _interrupted = False
    abort_time = 0.0
    resume_fills = 0
    resume_put: Optional[Event] = None
    wake: Optional[Event] = None  # set while a store call is in progress
    _span: Optional[CommitSpan] = None
    # deferred-effect cursors
    _fills_applied = 0
    _mmio_applied = 0
    _ser_applied = 0
    _depth_applied = 0
    _depths: Optional[List[tuple]] = None

    def __init__(self, core, addr, binding, direction, ser, prop, rxs,
                 wire_per_pkt, growable, limit, tables):
        super().__init__(core.sim)
        self.core = core
        self.nb = core.chip.nb
        #: Lines so far.
        self.K = 0
        self.port = binding.port
        self.dir = direction
        dest_chip = binding.link.attached[direction.rx_side]
        self.dest_nb = dest_chip.nb
        #: Source address of each segment's first line, and the instant
        #: its store call began (the first line's WC fill starts then).
        self._addrs = array("q")
        self._t_calls = array("d")
        #: Source address and DRAM offset of the next contiguous line.
        self._next = addr
        self._next_off = self.dest_nb._local_offset(addr)
        self.dest_mc = dest_chip.memctrl
        t = core.chip.timing
        self.F = t.wc_line_fill_ns
        self.TS = t.nb_request_ns + t.nb_iobridge_ns
        self.ser = ser
        #: Line i reaches the receiver's write_posted this long after its
        #: serialization starts: one serialization, the cable and the
        #: destination crossbar.
        self._arrive = ser + prop + rxs
        pq_cap = self.nb.posted_q.capacity
        self.capq = pq_cap if pq_cap is not None else sys.maxsize
        txq_cap = direction.txq[VirtualChannel.POSTED].capacity
        self.capt = txq_cap if txq_cap is not None else sys.maxsize
        self.wire_per_pkt = wire_per_pkt
        #: Whether later stores of the core may extend the train; a
        #: train opened while an armed fault may still act carries its
        #: one store only.
        self.growable = growable
        self._limit = limit            # end of the last segment's rows
        self._tables = tables          # route tables the rows come from
        self.metrics_on = self.nb._m.enabled
        # Speculative calendar entry (a demotion revokes it if it has not
        # fired): the storing core's resumption at its call's last
        # acceptance.  The window closes when its commit span detaches.
        self._complete_e = MacroEntry(self.sim)

    def extends(self, core, addr: int, nlines: int) -> bool:
        """True when a store of ``nlines`` full lines at ``addr`` by
        ``core`` continues this open train as its next segment: the same
        core, no store call of the train still in progress (another
        process of the core may store while one waits; its store goes
        per-packet and demotes the train), the route tables the train
        opened with, an untraced destination controller, the WC streaming
        fast path for every new line, and lines that take the train's
        route.  The next contiguous line within the last segment's route
        rows is the cheap first test (Figure 6's loop); any other address
        qualifies when its lines go out the train's port and land in the
        destination chip's local DRAM through one route row on each side.

        Only the same core qualifies: the schedule chains each line's WC
        fill after the one before it, and another core fills its lines in
        parallel with this one's."""
        if not (self.growable and core is self.core and self.wake is None):
            return False
        size = nlines * CACHELINE
        if not (self.nb._route_table is self._tables[0]
                and self.dest_nb._route_table is self._tables[1]
                and not self.dest_mc.tracer.enabled
                and _wc_clear(core.wc, addr, size)):
            return False
        return ((addr == self._next and addr + size <= self._limit)
                or addr + size <= _rows_end(self.nb, self.dest_nb,
                                            self.port, addr))

    # ------------------------------------------------------------------
    # The schedule recurrence (exact; see DESIGN.md "Adaptive fidelity")
    # ------------------------------------------------------------------
    def _fill_start(self, i: int) -> float:
        """Instant the core started filling line ``i`` (the per-packet run
        pushed that fill sleep then): when its store call began for a
        segment's first line, else when the line before it was accepted."""
        j, k = self._span.part_of(i)
        return self.accept[i - 1] if k else self._t_calls[j]

    def _compute_depths(self) -> List[tuple]:
        """(time, value) posted-queue depth samples the dispatcher would
        have tracked at each pop, replaying its exact tie-breaks.

        Every segment samples: a grown train replays each line's fill
        start from its own segment (:meth:`_fill_start`), so metrics do
        not limit trains.  A pop that finds the queue empty (the dispatcher
        was parked and a put woke it) samples 0.  Otherwise the sample
        counts the packets whose acceptance *dispatch entry* precedes the
        dispatcher's wake entry in the calendar: all accepts strictly
        before the pop, plus same-instant accepts whose triggering entry
        was pushed earlier than the dispatcher's (a blocked putter
        admitted inside the pop always is; a direct put ties on
        fill-entry vs wake-entry push time), minus the i+1 packets
        already consumed.
        """
        K = self.K
        accept, fill_done, pop, putc = (self.accept, self.fill_done,
                                        self.pop, self.putc)
        TS = self.TS
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
                    fill_push = self._fill_start(jb)
                    if fill_push < disp_push:
                        n += 1
                jb += 1
            depths.append((tpop, n - (i + 1)))
        return depths

    # ------------------------------------------------------------------
    # Deferred sender-side effects
    # ------------------------------------------------------------------
    def _apply_fills(self, n: int) -> None:
        """The core's WC stats for its first ``n`` line fills."""
        delta = n - self._fills_applied
        if delta > 0:
            wc = self.core.wc
            wc.fills += delta
            wc.full_flushes += delta
            self._fills_applied = n

    def _apply_effects(self, T: float, inclusive: bool) -> None:
        """Apply WC stats, mmio_writes, link TX stats and depth metric
        samples for every pipeline instant up to ``T`` (chronological per
        series, so live samples after ``T`` stay monotone)."""
        cut = bisect_right if inclusive else bisect_left
        self._apply_fills(cut(self.fill_done, T))
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
            name = self.nb._depth_series
            i = self._depth_applied
            K = self.K
            while i < K and (dep[i][0] < T or
                             (inclusive and dep[i][0] == T)):
                m.track(name, dep[i][0], dep[i][1])
                i += 1
            self._depth_applied = i

    # ------------------------------------------------------------------
    # Appending a store call / completion
    # ------------------------------------------------------------------
    def _append(self, addr: int, data) -> None:
        """Schedule the full lines of a store call at ``addr`` starting
        now as the train's next segment, open the window on the first
        call, and grow the commit span by one part.

        The per-packet pipeline instants of each line:

        accept[i]    posted queue accepts packet i (core fill i+1 starts)
        fill_done[i] WC fill of line i completes (the submit instant)
        pop[i]       dispatcher pops packet i from the posted queue
        putc[i]      packet i accepted into the link TX queue
        ss[i]        serialization of packet i starts on the wire

        All five come from :func:`schedule`: the loop in :func:`_recur`,
        plus the speculate-and-verify kernel for long appends.  A line
        depends only on earlier lines and its own fill start, so the
        lines already scheduled never change.
        """
        self.c0 = c0 = self.K
        t = self.sim._now
        n = len(data) // CACHELINE
        s = schedule(t, n, self.F, self.TS, self.ser,
                     self.capq, self.capt, self._series if c0 else None)
        if not c0:
            # the five per-line series, sized by the first call
            self._series = s
            self.accept, self.fill_done, self.pop, self.putc, self.ss = s
        ss = self.ss
        K = self.K = len(ss)
        self.t_end = self.accept[K - 1]
        self.t_final = max(self.putc[K - 1], ss[K - 1] + self.ser)
        # The segment's DRAM offset: contiguous within its route rows,
        # else through the rows of its own address (extends checked them).
        size = n * CACHELINE
        if addr == self._next and addr + size <= self._limit:
            off = self._next_off
        else:
            off = self.dest_nb._local_offset(addr)
            self._limit = _rows_end(self.nb, self.dest_nb, self.port, addr)
        self._addrs.append(addr)
        self._t_calls.append(t)
        self._next = addr + size
        self._next_off = off + size
        # The destination commits are one arithmetic span on the
        # controller instead of two calendar entries per line (see
        # repro.sim.flows.CommitSpan).
        times = _shifted(ss, c0, self._arrive)
        if c0:
            self._span.extend(times, data, off)
            return
        self._claim(self.nb, self.dir)
        self.nb.counters.inc("train_windows")
        self._span = CommitSpan(self.sim, self.dest_mc, self.dest_nb, off,
                                data, times, CACHELINE)
        self._span.on_detach = self._finalize

    def _complete(self, _=None) -> None:
        self._complete_e.fired()
        if self._closed:
            return
        # The core has filled every line of its call, so its WC stats are
        # real now; the other effects wait for the window to end.
        self._apply_fills(self.K)
        if self.K - self.c0 == 1:
            # This entry went on the calendar when the call began, as the
            # per-packet core's fill sleep did: resume the core right here.
            self.wake._succeed_inline()
        else:
            # Per packet the core's last fill sleep went on the calendar
            # near the call's end, after most of what is due now: resume
            # the core one dispatch later, behind it.
            self.wake.succeed()

    def _finalize(self) -> None:
        """The commit span detached: every line has landed."""
        if self._close():
            self._end(_INF)

    def _end(self, T: float) -> None:
        """The window ends at ``T``: apply every effect due before it and
        count the lines the train carried."""
        self._apply_effects(T, T == _INF)
        self.nb.counters.inc("train_lines", self.K)

    # ------------------------------------------------------------------
    # Demotion
    # ------------------------------------------------------------------
    def _make_pkt(self, i: int, coherent: bool):
        """Line ``i`` as the per-packet run built it: the posted write of
        its segment's source address."""
        span = self._span
        j, k = span.part_of(i)
        return self.nb._packets.posted_write(
            self._addrs[j] + k * CACHELINE, span.line_data(i),
            unitid=self.nb.nodeid, coherent=coherent)

    def _demote(self, T: float) -> None:
        """Reconstruct the exact per-packet state at virtual time ``T``
        (strict-< cut: the triggering foreign action has not yet mutated
        anything) and hand every queue back to the live processes.
        """
        if T >= self.t_final:
            # The pipeline has drained: nothing to rebuild, a plain close
            # (the commit span finishes on its own entries).
            self._end(_INF)
            return
        self.aborted = True
        self.nb.counters.inc("train_demotions")
        sim = self.sim
        accept, fill_done, pop, putc, ss = (self.accept, self.fill_done,
                                            self.pop, self.putc, self.ss)
        f = bisect_left(fill_done, T)     # WC fills done
        m = bisect_left(accept, T)        # packets in the posted queue ever
        wake = self.wake
        if self._interrupted or wake is None:
            # The interrupt's delivery entry went on the calendar at T,
            # after the core's fill sleep ending at T: per packet that
            # line was submitted first, and accepted if the queue had room.
            # A call that has returned at T did the same with its last
            # line.  (A multi-line call's wake still due at T stands for
            # that line's submission: it comes after, as at any instant.)
            f = bisect_right(fill_done, T)
            if m < f and accept[m] == fill_done[m]:
                m += 1
        if m < self.c0:
            # The call in progress began at T: the lines of the calls
            # before it are in, whatever else came first within T.
            m = self.c0
            f = max(f, m)
        npop = bisect_left(pop, T)        # packets popped by the dispatcher
        nput = bisect_left(putc, T)       # packets accepted into the TX queue
        nser = bisect_left(ss, T)         # packets whose serialization began
        # Revoke the speculative future.  Lines already on the wire still
        # arrive and commit through the span; the per-packet path carries
        # every later line.
        self._complete_e.cancel()
        self._span.truncate(nser)
        self._end(T)
        self._apply_fills(f)
        self.abort_time = T
        self.resume_fills = f

        # --- link direction: canonical per-packet state -------------------
        d = self.dir
        txq = d.txq[VirtualChannel.POSTED]
        pump = d.pumps[VirtualChannel.POSTED]
        ss_end = ss[nser - 1] + self.ser if nser else T
        if nser < nput:
            for j in range(nser, nput):
                txq._items.append(self._make_pkt(j, coherent=False))
            # The pump must take these up exactly when the per-packet
            # pump would take packet nser: at ss_end (refill nonempty
            # implies the serializer is still busy until then).
            pump.hold()

        pending_txq_put: Optional[Event] = None
        disp = self.nb.dispatcher
        if npop > nput:
            p = npop - 1
            attempt = pop[p] + self.TS
            pkt = self._make_pkt(p, coherent=False)
            if attempt < T:
                # The dispatcher's send() happened before T; its putter
                # must precede any foreign put at T (FIFO).  A send due
                # at T itself comes after the triggering action, as every
                # other pipeline step at T does in this cut.
                pending_txq_put = txq.put(pkt)
            # Dispatcher mid-flight on packet npop-1: it holds the packet
            # in its crossbar and finishes it as the per-packet loop would.
            disp.hold(pkt)

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
        # serialization end went on the calendar at ss[nser-1], the
        # dispatcher's crossbar step at pop[npop-1], and the core's
        # fill sleep when that fill started.
        entries = []
        if nser and ss_end > T:
            took = d.phy.try_acquire()
            assert took, "train invariant: phy idle during window"
            entries.append((ss[nser - 1], 0,
                            lambda: sim._push(ss_end, pump.wire_end, None)))
        else:
            pump.release()
        if npop > nput:
            entries.append((pop[npop - 1], 1,
                            lambda: sim._push(T, disp.finish_line,
                                              (self.port, attempt,
                                               pending_txq_put))))
        if wake is not None and not wake._triggered:
            entries.append((self._fill_start(f), 2, wake.succeed))
        entries.sort(key=lambda e: (e[0], e[1]))
        for _, _, push in entries:
            push()

    # ------------------------------------------------------------------
    # The core-side driver
    # ------------------------------------------------------------------
    def run(self, addr: int, data, accepts=None):
        """Generator driven from ``CpuCore._store_wc`` via ``yield from``:
        append the full lines of ``data`` (a store at ``addr`` that
        :meth:`extends` the train, or opens it) and return the number of
        bytes fully handled (clean: all of those lines, as soon as the
        last is accepted; demotion: everything up to and including the
        in-flight line, finished here exactly as the per-packet core
        would).  ``accepts``, a list, receives the accept instant of each
        line handled, in order."""
        self._append(addr, data)
        c0, K = self.c0, self.K
        self.wake = Event(self.sim, name=self.nb.name)
        self._complete_e.arm(self.t_end, self._complete, None)
        try:
            yield self.wake
        except Interrupt:
            self._interrupted = True
            self.demote(self.sim.now)
            raise
        finally:
            self.wake = None
        if not self.aborted:
            if accepts is not None:
                accepts.extend(self.accept[c0:K])
            return (K - c0) * CACHELINE
        f = self.resume_fills
        if self.resume_put is not None:
            # Line f-1 was submitted but not yet accepted; wait out the
            # acceptance like the per-packet core.
            if accepts is not None:
                accepts.extend(self.accept[c0:f - 1])
            yield self.resume_put
            if accepts is not None:
                accepts.append(self.sim._now)
            return (f - c0) * CACHELINE
        if accepts is not None:
            accepts.extend(self.accept[c0:f])
        if f >= K:
            return (K - c0) * CACHELINE
        # Mid-fill of line f at the abort instant: finish the fill, then
        # combine and submit that one line (its fill sleep already ran).
        remaining = self.fill_done[f] - self.abort_time
        if remaining > 0:
            yield remaining
        core = self.core
        base = (f - c0) * CACHELINE
        for op in core.wc.store(addr + base,
                                memoryview(data)[base:base + CACHELINE]):
            ev = self.nb.submit_posted(op.addr, op.data, op.mask)
            if ev is not None:
                yield ev
        if accepts is not None:
            accepts.append(self.sim._now)
        return (f + 1 - c0) * CACHELINE
