"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **A-wc** -- write combining on/off: the paper's transmit path depends on
  "intensive use of the write combining capability to generate maximum
  sized HyperTransport packets which reduce the command overhead"; the
  ablation maps the window UC instead of WC, turning every 8-byte store
  into its own posted write.
* **A-ord** -- the sfence-frequency trade-off between the paper's two
  send mechanisms: fence every k lines, k = 1 is the strictly-ordered
  curve, k = infinity the weakly-ordered one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..opteron.mtrr import MemoryType
from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import CACHELINE, KiB, bandwidth_mbps
from .microbench import _RawWindow, _drain, _stream, make_prototype

__all__ = ["WcAblationPoint", "OrderingPoint", "BerPoint", "run_wc_ablation",
           "run_ordering_ablation", "run_ber_sweep"]


@dataclass(frozen=True)
class WcAblationPoint:
    mapping: str          # "WC" or "UC"
    size: int
    mbps: float
    packets: int          # link packets used (shows the combining effect)


@dataclass(frozen=True)
class OrderingPoint:
    fence_interval: Optional[int]   # lines per sfence; None = never
    mbps: float


def run_wc_ablation(size: int = 256 * KiB,
                    timing: TimingModel = DEFAULT_TIMING) -> List[WcAblationPoint]:
    """Stream the same bytes through a WC and a UC mapping."""
    points: List[WcAblationPoint] = []
    for mapping, mtype in (("WC", MemoryType.WC), ("UC", MemoryType.UC)):
        sys_ = make_prototype(timing)
        cluster = sys_.cluster
        a = cluster.rank_of(0, 1)
        b = cluster.rank_of(1, 1)
        win = _RawWindow(cluster, a, b)
        if mtype is MemoryType.UC:
            # Remap the window UC: replace the page-table mapping.
            pt = win.proc.pagetable
            m = pt.lookup(win.tx_base)
            pt.unmap(m)
            pt.map(win.tx_base, m.size, MemoryType.UC,
                   readable=False, writable=True, tag="bench-win-uc")
        link = cluster.tcc_links[0]
        before = link.stats("A").packets
        start = cluster.sim.now
        done = cluster.sim.process(_stream(win, size, "weak"))
        end = cluster.sim.run_until_event(done)
        f = cluster.sim.process(win.proc.sfence())
        cluster.sim.run_until_event(f)
        _drain(cluster)
        points.append(
            WcAblationPoint(
                mapping, size, bandwidth_mbps(size, end - start),
                link.stats("A").packets - before,
            )
        )
    return points


@dataclass(frozen=True)
class BerPoint:
    """Throughput/latency under injected link errors (HT3 retry)."""

    error_rate: float
    size: int
    mbps: float
    retries: int
    delivered_ok: bool


def run_ber_sweep(
    error_rates: Sequence[float] = (0.0, 0.01, 0.05, 0.2),
    size: int = 1 << 20,  # past the posted buffer, so the drain rate shows
    timing: TimingModel = DEFAULT_TIMING,
) -> List[BerPoint]:
    """Stream through a lossy HTX cable; HT3 per-packet retry keeps the
    fabric lossless while throughput degrades gracefully ("defines fault
    tolerance mechanisms on the link level", paper Section III)."""
    from repro.core import TCClusterSystem

    points: List[BerPoint] = []
    for ber in error_rates:
        sys_ = TCClusterSystem.two_board_prototype(timing=timing)
        for link in sys_.cluster.tcc_links:
            link.ber = ber
        sys_.boot()
        cluster = sys_.cluster
        a = cluster.rank_of(0, 1)
        b = cluster.rank_of(1, 1)
        win = _RawWindow(cluster, a, b)
        link = cluster.tcc_links[0]
        start = cluster.sim.now
        done = cluster.sim.process(_stream(win, size, "weak"))
        end = cluster.sim.run_until_event(done)
        f = cluster.sim.process(win.proc.sfence())
        cluster.sim.run_until_event(f)
        _drain(cluster)
        # Verify every byte landed despite the errors.
        expected = bytes(range(64)) * (size // 64)
        rinfo = cluster.ranks[b]
        got = rinfo.chip.memory.read(32 * 1024 * 1024, min(size, 8 * MiB_))
        ok = got == expected[: len(got)]
        points.append(
            BerPoint(ber, size, bandwidth_mbps(size, end - start),
                     link.stats("A").retries, ok)
        )
    return points


MiB_ = 1 << 20


def run_ordering_ablation(
    intervals: Sequence[Optional[int]] = (1, 2, 4, 8, 16, 64, None),
    size: int = 256 * KiB,
    timing: TimingModel = DEFAULT_TIMING,
) -> List[OrderingPoint]:
    """Bandwidth as a function of sfence frequency."""
    sys_ = make_prototype(timing)
    cluster = sys_.cluster
    a = cluster.rank_of(0, 1)
    b = cluster.rank_of(1, 1)
    win = _RawWindow(cluster, a, b)
    points: List[OrderingPoint] = []
    for k in intervals:
        start = cluster.sim.now
        done = cluster.sim.process(_stream(win, size, "weak", fence_interval=k))
        end = cluster.sim.run_until_event(done)
        f = cluster.sim.process(win.proc.sfence())
        cluster.sim.run_until_event(f)
        _drain(cluster)
        points.append(OrderingPoint(k, bandwidth_mbps(size, end - start)))
    return points
