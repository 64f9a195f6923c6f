"""The paper's microbenchmarks (Section VI), reproduced on the simulator.

Both benchmarks work at the same level as the paper's: raw remote stores
into a mapped window (the message library sits *above* this and is
characterized separately).

* :func:`run_bandwidth_sweep` -- Figure 6: stream S bytes of cache-line
  stores into the remote window, weakly ordered (WC buffers drain on
  overflow) or strictly ordered ("after each cache line sized store
  operation an Sfence instruction is triggered").  Reported bandwidth is
  S / (time for the store stream to retire), which is what a store-side
  benchmark measures and what produces the buffering peak the paper notes
  at 256 KB.

* :func:`run_latency_sweep` -- Figure 7: ping-pong, "the receive node
  polls a specific memory location and sends back a response as soon as
  the first message arrives"; we report the half round trip.

* :func:`run_multihop` -- the in-text claim "each hop increases the
  end-to-end latency by less then 50 ns", measured by numactl-binding the
  processes to different sockets, exactly as in the paper.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster import TCCluster
from ..core import TCClusterSystem
from ..kernel import UserProcess
from ..sim.parallel import SweepPoint, run_sweep, sweep_values
from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import CACHELINE, KiB, MiB, bandwidth_mbps

__all__ = [
    "BandwidthPoint",
    "LatencyPoint",
    "HopPoint",
    "run_bandwidth_sweep",
    "run_latency_sweep",
    "run_multihop",
    "fig6_point",
    "multihop_point",
    "DEFAULT_BW_SIZES",
    "DEFAULT_LAT_SIZES",
    "make_prototype",
]

#: Figure 6's x axis: 64 B .. 4 MB in powers of two.
DEFAULT_BW_SIZES: Tuple[int, ...] = tuple(
    64 << i for i in range(0, 17)
)  # 64 B .. 4 MiB
#: Figure 7's x axis: small messages, 64 B .. 4 KB.
DEFAULT_LAT_SIZES: Tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096)

_WINDOW = 8 * MiB          # streaming window inside the peer's memory
_WINDOW_OFF = 32 * MiB     # away from the OS/message regions
_MAILBOX_OFF = 48 * MiB


@dataclass(frozen=True)
class BandwidthPoint:
    size: int
    mode: str
    elapsed_ns: float
    mbps: float


@dataclass(frozen=True)
class LatencyPoint:
    size: int
    iters: int
    hrt_ns: float          # half round trip, mean


@dataclass(frozen=True)
class HopPoint:
    extra_hops: int
    hrt_ns: float


def make_prototype(timing: TimingModel = DEFAULT_TIMING) -> TCClusterSystem:
    """The booted two-board prototype all microbenchmarks run on."""
    return TCClusterSystem.two_board_prototype(timing=timing).boot()


class _RawWindow:
    """A raw mapped remote window + local mailbox for one rank."""

    def __init__(self, cluster: TCCluster, rank: int, peer: int):
        self.cluster = cluster
        self.rank = rank
        self.peer = peer
        info = cluster.ranks[rank]
        pinfo = cluster.ranks[peer]
        self.proc: UserProcess = cluster.spawn_process(rank, name=f"bench-r{rank}")
        driver = cluster.kernels[info.supernode].driver_for(info.chip_index)
        self.tx_base = pinfo.base + _WINDOW_OFF
        driver.mmap_remote(self.proc.pagetable, self.tx_base, _WINDOW, tag="bench-win")
        self.tx_mailbox = pinfo.base + _MAILBOX_OFF
        driver.mmap_remote(self.proc.pagetable, self.tx_mailbox, 64 * KiB,
                           tag="bench-mbox-tx")
        self.rx_mailbox = info.base + _MAILBOX_OFF
        driver.mmap_local_export(self.proc.pagetable, self.rx_mailbox, 64 * KiB,
                                 tag="bench-mbox-rx")


def _drain(cluster: TCCluster) -> None:
    """Let all in-flight traffic land (no pollers are running)."""
    cluster.sim.run()


# ---------------------------------------------------------------------------
# Figure 6: bandwidth
# ---------------------------------------------------------------------------

def _stream(win: _RawWindow, size: int, mode: str,
            fence_interval: Optional[int] = None):
    """Store ``size`` bytes of cache lines into the window (wrapping).

    ``fence_interval`` (lines between sfences) generalizes the two paper
    modes for the ordering ablation; ``mode`` maps to 1 (strict) / None
    (weak) when it is not given explicitly.
    """
    proc = win.proc
    if fence_interval is None and mode == "strict":
        fence_interval = 1
    # Per-message entry cost (function call, loop setup, pointer math) --
    # this is what bends the curve down at small message sizes.
    yield proc.sim.timeout(proc.core.chip.timing.send_overhead_ns)
    line = bytes(range(64))
    pos = 0
    nline = 0
    while pos < size:
        addr = win.tx_base + (pos % _WINDOW)
        yield from proc.store(addr, line)
        nline += 1
        if fence_interval and nline % fence_interval == 0:
            yield from proc.sfence()
        pos += CACHELINE
    return proc.sim.now


def run_bandwidth_sweep(
    sizes: Sequence[int] = DEFAULT_BW_SIZES,
    modes: Sequence[str] = ("weak", "strict"),
    timing: TimingModel = DEFAULT_TIMING,
    system: Optional[TCClusterSystem] = None,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> List[BandwidthPoint]:
    """Reproduce Figure 6.  Measures store-retire bandwidth per size/mode.

    With ``system``, every point is measured on that booted system in
    order, draining the fabric between points.  Without it, each point
    boots its own prototype (:func:`fig6_point`) through
    :func:`~repro.sim.parallel.run_sweep`, fanned out over ``jobs``
    workers (``TCC_PARALLEL``, else serial).  A fresh prototype is in the
    same drained quiescent state a shared one returns to between points,
    so both modes give bit-identical points.
    """
    for size in sizes:
        if size % CACHELINE:
            raise ValueError(f"size {size} not line aligned")
    if system is None:
        sweep = [SweepPoint(key=f"fig6:{mode}:{size}", fn=fig6_point,
                            args=(size, mode, timing))
                 for mode in modes for size in sizes]
        return sweep_values(sweep, cost=lambda p: p.args[0], jobs=jobs,
                            timeout=timeout)
    cluster = system.cluster
    a = cluster.rank_of(0, 1)   # board0 node1 (owns the HTX port)
    b = cluster.rank_of(1, 1)
    win = _RawWindow(cluster, a, b)
    points: List[BandwidthPoint] = []
    for mode in modes:
        for size in sizes:
            start = cluster.sim.now
            done = cluster.sim.process(_stream(win, size, mode))
            end = cluster.sim.run_until_event(done)
            elapsed = end - start
            points.append(
                BandwidthPoint(size, mode, elapsed, bandwidth_mbps(size, elapsed))
            )
            # Flush WC tails and let the fabric drain outside the window.
            f = cluster.sim.process(win.proc.sfence())
            cluster.sim.run_until_event(f)
            _drain(cluster)
    return points


def fig6_point(size: int, mode: str,
               timing: TimingModel = DEFAULT_TIMING) -> BandwidthPoint:
    """One Figure 6 point on a fresh booted prototype (a sweep point)."""
    return run_bandwidth_sweep((size,), (mode,),
                               system=make_prototype(timing))[0]


# ---------------------------------------------------------------------------
# Figure 7: latency (ping-pong)
# ---------------------------------------------------------------------------

_TOKEN = struct.Struct("<Q")


def _write_message(proc: UserProcess, base: int, size: int, token: int):
    """Write a message of ``size`` bytes whose every line carries the
    iteration token (the receiver syncs on the last line)."""
    body = _TOKEN.pack(token) * 8  # one 64B line of repeated token
    nlines = size // CACHELINE
    for i in range(nlines):
        yield from proc.store(base + i * CACHELINE, body)
    yield from proc.sfence()


def _poll_for(proc: UserProcess, addr: int, token: int):
    want = _TOKEN.pack(token)
    t = proc.core.chip.timing
    while True:
        raw = yield from proc.load(addr, 8)
        if raw == want:
            return
        yield proc.sim.timeout(t.poll_iteration_ns)


def _pingpong(win_a: _RawWindow, win_b: _RawWindow, size: int, iters: int,
              out: Dict):
    """Rank A side drives the measurement; B echoes."""
    proc = win_a.proc
    sim = proc.sim
    last_line = (size // CACHELINE - 1) * CACHELINE
    start = sim.now
    for i in range(1, iters + 1):
        yield from _write_message(proc, win_a.tx_mailbox, size, i)
        yield from _poll_for(proc, win_a.rx_mailbox + last_line, i)
    out["elapsed"] = sim.now - start


def _echo(win_b: _RawWindow, size: int, iters: int):
    proc = win_b.proc
    last_line = (size // CACHELINE - 1) * CACHELINE
    for i in range(1, iters + 1):
        yield from _poll_for(proc, win_b.rx_mailbox + last_line, i)
        yield from _write_message(proc, win_b.tx_mailbox, size, i)


def run_latency_sweep(
    sizes: Sequence[int] = DEFAULT_LAT_SIZES,
    iters: int = 40,
    timing: TimingModel = DEFAULT_TIMING,
    system: Optional[TCClusterSystem] = None,
    bind: Tuple[int, int] = (1, 1),
) -> List[LatencyPoint]:
    """Reproduce Figure 7.  ``bind`` selects the socket (chip index) each
    side's process runs on -- numactl in the paper's words."""
    sys_ = system or make_prototype(timing)
    cluster = sys_.cluster
    a = cluster.rank_of(0, 1)
    b = cluster.rank_of(1, 1)
    win_a = _RawWindow(cluster, a, b)
    win_b = _RawWindow(cluster, b, a)
    win_a.proc.bind_to(bind[0])
    win_b.proc.bind_to(bind[1])
    points: List[LatencyPoint] = []
    for size in sizes:
        if size % CACHELINE:
            raise ValueError(f"size {size} not line aligned")
        out: Dict = {}
        cluster.sim.process(_echo(win_b, size, iters))
        done = cluster.sim.process(_pingpong(win_a, win_b, size, iters, out))
        cluster.sim.run_until_event(done)
        _drain(cluster)
        hrt = out["elapsed"] / (2 * iters)
        points.append(LatencyPoint(size, iters, hrt))
    return points


# ---------------------------------------------------------------------------
# Multi-hop latency (in-text claim)
# ---------------------------------------------------------------------------

#: Socket (chip index) bindings per extra-hop count.
_HOP_BINDINGS: Tuple[Tuple[int, int], ...] = ((1, 1), (0, 1), (0, 0))


def multihop_point(extra_hops: int, iters: int = 40, size: int = 64,
                   timing: TimingModel = DEFAULT_TIMING) -> HopPoint:
    """Ping-pong across ``extra_hops`` coherent hops on a fresh prototype."""
    chip_a, chip_b = _HOP_BINDINGS[extra_hops]
    cluster = make_prototype(timing).cluster
    a = cluster.rank_of(0, chip_a)
    b = cluster.rank_of(1, chip_b)
    win_a = _RawWindow(cluster, a, b)
    win_b = _RawWindow(cluster, b, a)
    out: Dict = {}
    cluster.sim.process(_echo(win_b, size, iters))
    done = cluster.sim.process(_pingpong(win_a, win_b, size, iters, out))
    cluster.sim.run_until_event(done)
    return HopPoint(extra_hops, out["elapsed"] / (2 * iters))


def run_multihop(
    iters: int = 40,
    size: int = 64,
    timing: TimingModel = DEFAULT_TIMING,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> List[HopPoint]:
    """Ping-pong with processes bound to different sockets.

    The two-board prototype offers 0, 1 or 2 *extra* coherent hops on top
    of the TCC link, selected purely with numactl-style binding and
    mailbox placement, exactly like the paper's measurement:

    * 0: node1 <-> node1 (both own the HTX-adjacent socket),
    * 1: node0 -> (coherent hop) -> node1 -> TCC -> node1,
    * 2: node0 -> coherent -> TCC -> coherent -> node0.

    Each binding is one :func:`multihop_point` on its own prototype, run
    through :func:`~repro.sim.parallel.run_sweep` over ``jobs`` workers.
    """
    points = [SweepPoint(key=f"hops:{extra}", fn=multihop_point,
                         args=(extra, iters, size, timing))
              for extra in range(len(_HOP_BINDINGS))]
    return run_sweep(points, jobs=jobs, timeout=timeout).values()
