"""CPU core model: the store/load path that feeds the TCCluster link.

A core executes stores and loads against the chip's address space.  The
behaviour per MTRR memory type is what makes TCCluster work:

* **WC stores** fill write-combining buffers; full 64-byte lines drain as
  single posted writes (the efficient transmit path),
* **UC stores** each become their own small posted write (strongly
  ordered, no combining -- the ablation path),
* **UC loads** bypass the caches and read DRAM through the northbridge
  (the polling receive path),
* **WB accesses** use the cache hierarchy; crucially, a WB load can
  return a *stale* cached line after a remote TCCluster write updated
  DRAM, because incoming TCC writes generate no invalidations.

All methods are generators meant to be driven from a simulation process
(``data = yield from core.load(addr, 8)``).

``sfence()`` implements the ordering instruction the paper leans on:
"Sfence performs a serializing operation on all store instructions that
were issued prior the Sfence instruction".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..sim import Event
from ..util.units import CACHELINE
from .mtrr import MemoryType
from .northbridge import RouteKind
from .train import plan_train
from .wc import WriteCombiner

if TYPE_CHECKING:  # pragma: no cover
    from .chip import OpteronChip

__all__ = ["CpuCore", "CoreFault"]


class CoreFault(RuntimeError):
    """Machine-check-style fault (unsupported access for the memory type)."""


class CpuCore:
    """One of the chip's cores (Shanghai has four)."""

    def __init__(self, chip: "OpteronChip", core_id: int):
        self.chip = chip
        self.sim = chip.sim
        self.core_id = core_id
        self.name = f"{chip.name}.core{core_id}"
        self.wc = WriteCombiner(chip.timing.wc_buffers)
        self.stores = 0
        self.loads = 0

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def store(self, addr: int, data: bytes, mtype=None):
        """Execute a store of arbitrary length (split per line / chunk).

        ``mtype`` overrides the MTRR lookup -- the PAT mechanism: a page
        mapping's memory type takes precedence for user-space accesses."""
        if not data:
            raise ValueError("empty store")
        if mtype is None:
            mtype = self.chip.mtrr.type_for_range(addr, len(data))
        self.stores += 1
        if mtype is MemoryType.WC:
            yield from self._store_wc(addr, data)
        elif mtype is MemoryType.UC:
            yield from self._store_uc(addr, data)
        else:
            yield from self._store_wb(addr, data)

    def _store_wc(self, addr: int, data: bytes, accepts=None):
        """WC store path; ``accepts`` as in ``UserProcess.store``."""
        t = self.chip.timing
        fill_ns = t.wc_line_fill_ns
        nb = self.chip.nb
        wc = self.wc
        pos = 0
        size = len(data)
        if (size >= CACHELINE and addr % CACHELINE == 0
                and self.sim.features.adaptive_fidelity):
            # Aligned full lines over a quiescent TCCluster window: they
            # open a packet train in closed-form arithmetic, or extend the
            # one this core's previous store left open
            # (repro.opteron.train); per-packet again on demotion.
            train = plan_train(self, addr, data)
            if train is not None:
                pos = yield from train.run(addr, data, accepts)
                if pos == size:
                    return
        # Zero-copy: per-line chunks are memoryview spans into the caller's
        # (immutable) source buffer; full-line spans ride each packet all
        # the way to the destination page commit without being copied.
        mv = memoryview(data)
        while pos < size:
            line = (addr + pos) & ~(CACHELINE - 1)
            offset = (addr + pos) - line
            n = min(CACHELINE - offset, size - pos)
            # Core-side cost of pushing these bytes through the store queue
            # into the WC buffer.
            if n == CACHELINE:
                yield fill_ns
                if wc.store_line_stream(line):
                    # Streaming fast path: the line span goes straight to
                    # the SRQ as one posted write, skipping the FlushOp.
                    ev = nb.submit_posted(line, mv[pos : pos + CACHELINE])
                    if ev is not None:
                        yield ev
                    if accepts is not None:
                        accepts.append(self.sim._now)
                    pos += CACHELINE
                    continue
            else:
                yield fill_ns * n / CACHELINE
            for op in wc.store(addr + pos, mv[pos : pos + n]):
                ev = nb.submit_posted(op.addr, op.data, op.mask)
                if ev is not None:
                    yield ev  # posted buffer full: wait for acceptance
            if accepts is not None:
                accepts.append(self.sim._now)
            pos += n

    def _store_uc(self, addr: int, data: bytes):
        """Uncacheable stores: one posted write per <=8-byte chunk, each
        waiting for acceptance before the next issues (strong ordering).
        Sub-dword edges travel as HT sized-byte (masked) writes."""
        t = self.chip.timing
        pos = 0
        while pos < len(data):
            a = addr + pos
            # Natural x86 store granule: up to the next 8-byte boundary.
            n = min(len(data) - pos, 8 - (a % 8))
            chunk = data[pos : pos + n]
            yield t.uc_store_ns
            lo = (a // 4) * 4
            hi = ((a + n + 3) // 4) * 4
            if lo == a and hi == a + n:
                ev = self.chip.nb.submit_posted(a, chunk)
            else:
                container = bytearray(hi - lo)
                mask = bytearray(hi - lo)
                container[a - lo : a - lo + n] = chunk
                for i in range(a - lo, a - lo + n):
                    mask[i] = 1
                ev = self.chip.nb.submit_posted(lo, bytes(container), bytes(mask))
            if ev is not None:
                yield ev
            pos += n

    def _store_wb(self, addr: int, data: bytes):
        """Write-back stores: must target local DRAM; write-through to
        memory with cache update (sufficient for the behaviours TCCluster
        exercises -- dirty-writeback timing is not on any measured path)."""
        t = self.chip.timing
        r = self.chip.nb.route(addr)
        if r.kind is not RouteKind.DRAM_LOCAL:
            raise CoreFault(
                f"{self.name}: WB store to {addr:#x} which is not local DRAM "
                f"(route={r.kind.value}); remote memory must be mapped UC/WC"
            )
        yield t.wb_store_ns
        caches = self.chip.caches
        pos = 0
        while pos < len(data):
            a = addr + pos
            line = caches.line_of(a)
            offset = a - line
            n = min(CACHELINE - offset, len(data) - pos)
            chunk = data[pos : pos + n]
            if not caches.write_line_if_present(line, offset, chunk):
                # Write-allocate: compose the full line from memory.
                base_off = self.chip.nb._local_offset(line)
                current = bytearray(self.chip.memctrl.sample(base_off, CACHELINE))
                current[offset : offset + n] = chunk
                caches.fill_line(line, bytes(current))
            pos += n
        # Write-through to DRAM (timed at the controller, not awaited).
        self.chip.memctrl.write_posted(self.chip.nb._local_offset(addr), data)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def load(self, addr: int, length: int, mtype=None):
        """Execute a load; returns the bytes (via generator return).

        ``mtype`` overrides the MTRR lookup (PAT, see :meth:`store`)."""
        if length <= 0:
            raise ValueError("empty load")
        if mtype is None:
            mtype = self.chip.mtrr.type_for_range(addr, length)
        self.loads += 1
        if mtype is MemoryType.WB:
            data = yield from self._load_wb(addr, length)
        else:
            # UC and WC loads both bypass the cache.
            data = yield self.chip.nb.cpu_read(addr, length, uncached=True)
        return data

    def _load_wb(self, addr: int, length: int):
        caches = self.chip.caches
        out = bytearray()
        pos = 0
        while pos < length:
            a = addr + pos
            line = caches.line_of(a)
            offset = a - line
            n = min(CACHELINE - offset, length - pos)
            cached, latency = caches.read_line(line)
            if cached is not None:
                yield latency
                out += cached[offset : offset + n]
            else:
                data = yield self.chip.nb.cpu_read(line, CACHELINE, uncached=False)
                caches.fill_line(line, data)
                out += data[offset : offset + n]
            pos += n
        return bytes(out)

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def sfence(self):
        """Drain WC buffers and serialize prior stores."""
        if self.wc._buffers:
            for op in self.wc.flush():
                ev = self.chip.nb.submit_posted(op.addr, op.data, op.mask)
                if ev is not None:
                    yield ev
        yield self.chip.timing.sfence_drain_ns
