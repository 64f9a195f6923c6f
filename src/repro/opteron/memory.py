"""Physical memory and the DRAM controller model.

Each Opteron node owns local DRAM ("individual physical memory modules
attached to each processor").  Contents are stored sparsely (4 KiB pages
allocated on first touch) so an 8 GB node costs nothing until used, while
reads and writes move real bytes -- the message library's correctness is
verified end-to-end against these contents.

The :class:`MemoryController` adds DDR2 timing: a fixed access latency per
operation plus occupancy proportional to the burst size, with a single
command queue so that receive-side polling traffic and incoming TCCluster
writes contend for the same device -- the paper notes that UC polling
"generates additional processor-memory bus overhead".
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Tuple

from ..sim import Doorbell, Event, Simulator, Tracer, NULL_TRACER
from ..util.calibration import TimingModel, DEFAULT_TIMING

__all__ = ["Memory", "MemoryController", "MemoryError_"]

PAGE_SIZE = 4096
PAGE_SHIFT = 12

_INF = float("inf")

#: Dual-channel DDR2-800 peak transfer rate, bytes/ns.
DDR2_BYTES_PER_NS = 12.8


class MemoryError_(RuntimeError):
    """Out-of-range physical memory access (master abort)."""


#: Pages per reclaim step: a DRAM image that grows by this much
#: (1 MiB) first checks for finished simulations' DRAM (:class:`_Reclaim`).
_RECLAIM_PAGES = 256


class _Reclaim:
    """Bounds the DRAM that finished simulations hold while they wait for
    the cyclic collector (one per process, like the collector).

    A simulated system is one large reference cycle (chip <-> northbridge,
    link <-> attached chips, ...), so its DRAM pages outlive it until a
    full collection, whose timing CPython derives from object counts, not
    bytes.  Each time one memory image grows by ``_RECLAIM_PAGES``, it
    runs a full collection first if the other images allocated at least
    that many pages since the last one: in a process that builds system
    after system, the pages of finished ones are then freed before a
    growing one adds to them.  A single system triggers it only when two
    of its images grow by that much together."""

    def __init__(self) -> None:
        self.epoch = 0          # bumped at every full collection seen
        self.full = -1          # full collections the collector reported
        self.pages = 0          # pages allocated by every image this epoch

    def grew(self, mem: "Memory") -> None:
        if mem._epoch != self.epoch:
            mem._epoch, mem._fresh = self.epoch, 0
        mem._fresh += 1
        self.pages += 1
        if len(mem._pages) % _RECLAIM_PAGES:
            return
        full = gc.get_stats()[-1]["collections"]
        if full != self.full:
            self.full = full
            self._new_epoch(mem)
        if self.pages - mem._fresh >= _RECLAIM_PAGES:
            gc.collect()
            self.full = gc.get_stats()[-1]["collections"]
            self._new_epoch(mem)

    def _new_epoch(self, mem: "Memory") -> None:
        self.epoch += 1
        self.pages = 0
        mem._epoch, mem._fresh = self.epoch, 0


_reclaim = _Reclaim()


class Memory:
    """Sparse byte-addressable storage of one node's DRAM."""

    _epoch = -1
    _fresh = 0

    def __init__(self, size: int):
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"memory size must be a positive page multiple, got {size}")
        self.size = size
        self._pages: Dict[int, bytearray] = {}
        #: Payload bytes ever copied into backing pages (the data plane's
        #: one-copy accounting: on the zero-copy bulk path this is the
        #: *only* copy a payload byte experiences between the storing
        #: core's buffer and destination DRAM).
        self.bytes_copied = 0

    def _page(self, pageno: int) -> bytearray:
        page = self._pages.get(pageno)
        if page is None:
            page = self._pages[pageno] = bytearray(PAGE_SIZE)
            _reclaim.grew(self)
        return page

    def check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryError_(
                f"access [{offset:#x}, {offset + length:#x}) outside DRAM of "
                f"size {self.size:#x}"
            )

    def write(self, offset: int, data) -> None:
        self.write_span(offset, data)

    def write_span(self, offset: int, data) -> None:
        """Commit a contiguous run (bytes or memoryview) with one slice op
        per touched page.

        A straddling run is walked through a memoryview so the per-page
        chunks are spans, not copies; a run that covers a whole absent
        page adopts it in a single ``bytearray(span)`` construction (no
        zero-fill-then-overwrite).  Every byte landing in a page counts
        toward :attr:`bytes_copied`.
        """
        length = len(data)
        self.check_range(offset, length)
        pageno, inpage = divmod(offset, PAGE_SIZE)
        if inpage + length <= PAGE_SIZE:
            # Fast path: the write stays inside one page (every cache-line
            # sized transfer does).
            self._page(pageno)[inpage : inpage + length] = data
            self.bytes_copied += length
            return
        mv = data if type(data) is memoryview else memoryview(data)
        pages = self._pages
        pos = 0
        while pos < length:
            pageno, inpage = divmod(offset + pos, PAGE_SIZE)
            n = min(PAGE_SIZE - inpage, length - pos)
            chunk = mv[pos : pos + n]
            if n == PAGE_SIZE and pageno not in pages:
                pages[pageno] = bytearray(chunk)
                _reclaim.grew(self)
            else:
                self._page(pageno)[inpage : inpage + n] = chunk
            pos += n
        self.bytes_copied += length

    def write_masked(self, offset: int, data: bytes, mask: bytes) -> None:
        """Byte-enable write: only bytes with mask[i] == 1 are stored."""
        if len(mask) != len(data):
            raise ValueError("mask/data length mismatch")
        self.check_range(offset, len(data))
        run_start = None
        for i in range(len(data) + 1):
            valid = i < len(data) and mask[i]
            if valid and run_start is None:
                run_start = i
            elif not valid and run_start is not None:
                self.write(offset + run_start, data[run_start:i])
                run_start = None

    def read(self, offset: int, length: int) -> bytes:
        self.check_range(offset, length)
        pageno, inpage = divmod(offset, PAGE_SIZE)
        page = self._pages.get(pageno)
        if page is not None and inpage + length <= PAGE_SIZE:
            # Fast path: one resident page (the polling receive path).
            return bytes(page[inpage : inpage + length])
        # General path: absent pages -- fully or partially covered -- read
        # as zeros through the same zero-filled-output rule, so a read
        # straddling a resident and an absent page cannot diverge from a
        # read of the absent page alone.
        out = bytearray(length)
        pos = 0
        while pos < length:
            pageno, inpage = divmod(offset + pos, PAGE_SIZE)
            n = min(PAGE_SIZE - inpage, length - pos)
            page = self._pages.get(pageno)
            if page is not None:
                out[pos : pos + n] = page[inpage : inpage + n]
            pos += n
        return bytes(out)

    @property
    def resident_bytes(self) -> int:
        """Actually allocated backing storage (for footprint accounting)."""
        return len(self._pages) * PAGE_SIZE


class MemoryController:
    """DES-timed front end of a node's DRAM.

    The single command port is modeled arithmetically: requests are served
    FCFS in submission order, each occupying the port for the transfer
    time from ``max(now, busy_until)``, with the access latency pipelined
    behind it.  This is timing-identical to a one-slot FCFS semaphore (the
    pre-overhaul implementation) but costs one calendar entry per
    operation instead of a coroutine plus a resource handshake -- the
    controller sits on both hot paths (incoming TCCluster ring writes and
    UC polling reads).

    Data is sampled/committed at the *completion* time of the operation,
    so in-flight reads observe writes that commit before they finish --
    the same ordering the coroutine version produced.
    """

    def __init__(
        self,
        sim: Simulator,
        memory: Memory,
        timing: TimingModel = DEFAULT_TIMING,
        name: str = "mc",
    ):
        self.sim = sim
        self.memory = memory
        self.timing = timing
        self.name = name
        self._wr_name = f"{name}.write"
        self._rd_name = f"{name}.read"
        self.tracer: Tracer = NULL_TRACER
        self._busy_until = 0.0
        #: (lo, hi, doorbell) ranges rung when a write commits inside them
        #: (the poll-parking notification hook; see msglib.endpoint).
        self._watches: List[Tuple[int, int, Doorbell]] = []
        #: Active arithmetic commit spans (flow-level fidelity; see
        #: :class:`repro.sim.flows.CommitSpan`).  Every foreign port
        #: claim folds in the span arrivals due by now first, so FCFS
        #: ordering against span traffic is exact; content and write
        #: accounting flush lazily at observation points.
        self._spans: List = []
        #: ``(commit instant, claim instant)`` of every read still to
        #: commit, in claim order (see :meth:`read_claim_at`).
        self._reads_due: List[Tuple[float, float]] = []
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _occupancy_ns(self, nbytes: int) -> float:
        return max(nbytes / DDR2_BYTES_PER_NS, 2.0)

    def read_latency_ns(self, length: int, uncached: bool = True) -> float:
        """Uncontended service time of a read (occupancy + access latency).

        Poll parking uses this to reconstruct the virtual poll grid."""
        base = self.timing.dram_read_uc_ns if uncached else self.timing.dram_read_ns
        return self._occupancy_ns(length) + base

    # -- write-commit notification ----------------------------------------
    def watch(self, lo: int, hi: int, doorbell: Doorbell) -> None:
        """Ring ``doorbell`` whenever a write commits into ``[lo, hi)``."""
        if hi <= lo:
            raise ValueError(f"empty watch range [{lo:#x}, {hi:#x})")
        self._watches.append((lo, hi, doorbell))
        if self._spans:
            now = self.sim._now
            for s in list(self._spans):
                s.add_watch(lo, hi, doorbell, now)

    def unwatch(self, doorbell: Doorbell) -> None:
        self._watches = [w for w in self._watches if w[2] is not doorbell]
        for s in list(self._spans):
            s.remove_watch(doorbell)

    def _claim_port(self, nbytes: int) -> float:
        """Reserve the command port FCFS; returns the transfer-end time."""
        now = self.sim._now
        if self._spans:
            self._sync_spans(now)
        start = self._busy_until if self._busy_until > now else now
        self._busy_until = end = start + self._occupancy_ns(nbytes)
        return end

    # -- commit-span support (flow-level fidelity) -------------------------
    def _sync_spans(self, now: float) -> None:
        """Apply all span arrivals due by ``now`` in global time order,
        equal instants to the span registered first.  The only way span
        arrivals reach the port: each round folds the earliest span up to
        the next arrival of any other span in one
        :meth:`~repro.sim.flows.CommitSpan.sync_to` call."""
        spans = self._spans
        if len(spans) == 1:
            spans[0].sync_to(now)
            return
        while True:
            best = None
            ba = _INF
            for s in spans:
                a = s.next_arrival()
                if a < ba:
                    best, ba = s, a
            if ba > now:
                return
            lim, strict, before = now, False, True
            for s in spans:
                if s is best:
                    before = False
                    continue
                a = s.next_arrival()
                if a < lim or (a == lim and before):
                    lim, strict = a, before
            best.sync_to(lim, strict)

    def flush_spans(self, now: float, claimed: float = _INF) -> None:
        """Make span DRAM content and write accounting real up to ``now``
        (called before any content observation; a read passes the instant
        it claimed the port, see
        :meth:`~repro.sim.flows.CommitSpan.flush_until`)."""
        if not self._spans:
            return
        for s in list(self._spans):
            s.flush_until(now, claimed)

    def read_claim_at(self, t: float) -> float:
        """Claim instant of the earliest-claimed read still to commit at
        ``t`` (infinity if none).  A span entry firing at ``t`` flushes
        with it: per packet, that read's commit entry went on the
        calendar at its claim, before the commit entry of any line that
        arrived later."""
        for c, claimed in self._reads_due:
            if c == t:
                return claimed
        return _INF

    def sample(self, offset: int, length: int) -> bytes:
        """Zero-time DRAM sample with span content made real first (the
        quantized park-wake read path; see msglib.endpoint)."""
        self.flush_spans(self.sim._now)
        return self.memory.read(offset, length)

    def write(self, offset: int, data, mask: Optional[bytes] = None) -> Event:
        """Timed write; the returned event fires when the data is in DRAM.

        ``mask`` selects byte enables (HT sized-byte writes).  ``data`` is
        held *by reference* until the commit instant -- the caller must
        not mutate it in the meantime (packet payloads and memoryview
        spans into immutable source buffers satisfy this by construction;
        see DESIGN.md "Data-plane memory model").
        """
        done = self.sim.event(name=self._wr_name)
        # The port is held only for the transfer (bandwidth sharing); the
        # access latency is pipelined behind it, as in a real controller.
        complete = self._claim_port(len(data)) + self.timing.dram_write_ns
        self.sim._push(complete, self._commit_write,
                       (offset, data, mask, done))
        return done

    def write_posted(self, offset: int, data,
                     mask: Optional[bytes] = None) -> None:
        """Fire-and-forget timed write: commit timing and semantics are
        identical to :meth:`write`, but no completion event is allocated
        (the hot posted-write paths never wait on one, and a triggered
        event with no callbacks still costs a calendar dispatch).  The
        same hold-by-reference contract as :meth:`write` applies."""
        complete = self._claim_port(len(data)) + self.timing.dram_write_ns
        self.sim._push(complete, self._commit_write,
                       (offset, data, mask, None))

    def _commit_write(self, offset: int, data, mask: Optional[bytes],
                      done: Optional[Event]) -> None:
        if self._spans:
            self.flush_spans(self.sim._now)
        if mask is None:
            self.memory.write_span(offset, data)
        else:
            self.memory.write_masked(offset, data, mask)
        self.writes += 1
        self.bytes_written += len(data)
        if self.tracer.enabled:
            self.tracer.emit(self.sim._now, self.name, "write_done",
                             (offset, len(data)))
        if done is not None:
            done.succeed()
        if self._watches:
            end = offset + len(data)
            for lo, hi, db in self._watches:
                if lo < end and offset < hi:
                    db.ring()

    def read(self, offset: int, length: int, uncached: bool = True) -> Event:
        """Timed read; event value is the bytes.

        ``uncached`` selects the UC latency (cache-bypassing polling path)
        versus the ordinary cache-miss fill latency.
        """
        sim = self.sim
        done = sim.event(name=self._rd_name)
        base = self.timing.dram_read_uc_ns if uncached else self.timing.dram_read_ns
        complete = self._claim_port(length) + base
        claimed = sim._now
        self._reads_due.append((complete, claimed))
        sim._push(complete, self._commit_read,
                  (offset, length, done, claimed))
        return done

    def _commit_read(self, offset: int, length: int, done: Event,
                     claimed: float) -> None:
        now = self.sim._now
        self._reads_due.remove((now, claimed))
        if self._spans:
            self.flush_spans(now, claimed)
        data = self.memory.read(offset, length)
        self.reads += 1
        self.bytes_read += length
        done.succeed(data)
