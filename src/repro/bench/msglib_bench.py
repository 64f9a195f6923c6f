"""Message-library benchmarks: Figure 7 (software-to-software latency)
and the endpoint-scaling claim (T-ring).

Paper Section VI measures latency through "a rudimentary message library
which can be used to send and receive messages"; the 227 ns half round
trip for 64-byte packets is software-to-software.  The library's unit of
transfer is one 64-byte ring slot (= one HT posted write); we sweep the
number of slots and report wire bytes.

The endpoint claim (Section IV.A): per-endpoint 4 KB rings mean no shared
receive state, so endpoints scale to "hundreds"; the footprint table is
exact arithmetic from the region layout, and the live fan-in run shows
independent rings converging on one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster import TCCluster
from ..core import TCClusterSystem
from ..msglib import MsgConfig, SLOT_BYTES, SLOT_PAYLOAD
from ..msglib.config import REGION_OFFSET
from ..topology import chain
from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import KiB, MiB, bandwidth_mbps
from .microbench import make_prototype

__all__ = [
    "MsglibLatencyPoint",
    "EagerThresholdPoint",
    "run_eager_threshold_sweep",
    "EndpointFootprint",
    "FanInPoint",
    "run_msglib_latency",
    "endpoint_footprint_table",
    "run_fan_in",
]


@dataclass(frozen=True)
class MsglibLatencyPoint:
    slots: int
    wire_bytes: int        # slots * 64 (what travels on the link)
    payload_bytes: int     # slots * 56 (application bytes)
    hrt_ns: float


@dataclass(frozen=True)
class EndpointFootprint:
    endpoints: int
    ring_bytes: int
    feedback_bytes: int
    heap_bytes: int
    total_bytes: int


@dataclass(frozen=True)
class FanInPoint:
    senders: int
    messages: int
    aggregate_mbps: float


def run_msglib_latency(
    slot_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    iters: int = 40,
    timing: TimingModel = DEFAULT_TIMING,
    system: Optional[TCClusterSystem] = None,
) -> List[MsglibLatencyPoint]:
    """Figure 7: ping-pong through the message library."""
    sys_ = system or make_prototype(timing)
    cluster = sys_.cluster
    a = cluster.rank_of(0, 1)
    b = cluster.rank_of(1, 1)
    ep_ab, ep_ba = sys_.connect(a, b)
    sim = sys_.sim

    # Exactly one echo process per system: a second one stealing receives
    # from the same ring would corrupt the sequence tracking.
    if not getattr(sys_, "_msglib_pong_running", False):
        def pong():
            while True:
                data = yield from ep_ba.recv()
                yield from ep_ba.send(data)
                yield from ep_ba.flush()

        sim.process(pong(), name="pong")
        sys_._msglib_pong_running = True
    points: List[MsglibLatencyPoint] = []
    for slots in slot_counts:
        payload = slots * SLOT_PAYLOAD
        msg = bytes(payload)
        out: Dict = {}

        def ping(msg=msg, out=out):
            start = sim.now
            for _ in range(iters):
                yield from ep_ab.send(msg)
                yield from ep_ab.flush()
                yield from ep_ab.recv()
            out["elapsed"] = sim.now - start

        done = sim.process(ping(), name="ping")
        sim.run_until_event(done)
        points.append(
            MsglibLatencyPoint(
                slots, slots * SLOT_BYTES, payload,
                out["elapsed"] / (2 * iters),
            )
        )
    return points


def endpoint_footprint_table(
    endpoint_counts: Sequence[int] = (2, 8, 32, 128, 256, 512),
    cfg: Optional[MsgConfig] = None,
) -> List[EndpointFootprint]:
    """Exact per-node memory cost of N endpoints (paper: 4 KB ring each,
    'sufficient to support hundreds of endpoints')."""
    cfg = cfg or MsgConfig(heap_bytes=64 * KiB)  # heap scaled for many peers
    out: List[EndpointFootprint] = []
    for n in endpoint_counts:
        lo = cfg.layout(max(2, n))
        ring_off, ring_sz = lo.ring_region()
        fb_off, fb_sz = lo.fb_region()
        heap_off, heap_sz = lo.heap_region()
        out.append(
            EndpointFootprint(n, ring_sz, fb_sz, heap_sz,
                              lo.required_bytes() - REGION_OFFSET)
        )
    return out


@dataclass(frozen=True)
class EagerThresholdPoint:
    eager_max: int
    payload: int
    protocol: str          # which path the message actually took
    hrt_ns: float


def run_eager_threshold_sweep(
    payload: int = 1960,                      # 35 slots eagerly, else rdzv
    eager_maxes: Sequence[int] = (512, 1024, 2044),
    iters: int = 25,
    timing: TimingModel = DEFAULT_TIMING,
) -> List[EagerThresholdPoint]:
    """Latency of one payload under different eager/rendezvous cutoffs --
    the protocol-selection trade-off every message library tunes: eager
    pays per-slot header+poll costs, rendezvous pays a fixed sfence +
    control-slot round."""
    points: List[EagerThresholdPoint] = []
    for emax in eager_maxes:
        cfg = MsgConfig(ring_bytes=8 * 1024, eager_max=emax)
        sys_ = TCClusterSystem.two_board_prototype(timing=timing,
                                                   msg_cfg=cfg).boot()
        cluster = sys_.cluster
        a, b = cluster.rank_of(0, 1), cluster.rank_of(1, 1)
        ep_ab, ep_ba = sys_.connect(a, b)
        sim = sys_.sim
        msg = bytes(payload)

        def pong():
            while True:
                data = yield from ep_ba.recv()
                yield from ep_ba.send(data)
                yield from ep_ba.flush()

        out = {}

        def ping():
            start = sim.now
            for _ in range(iters):
                yield from ep_ab.send(msg)
                yield from ep_ab.flush()
                yield from ep_ab.recv()
            out["t"] = (sim.now - start) / (2 * iters)

        sim.process(pong())
        done = sim.process(ping())
        sim.run_until_event(done)
        proto = "eager" if payload <= emax else "rendezvous"
        points.append(EagerThresholdPoint(emax, payload, proto, out["t"]))
    return points


def run_fan_in(
    sender_counts: Sequence[int] = (1, 2, 4, 7),
    messages: int = 64,
    msg_bytes: int = 512,
    timing: TimingModel = DEFAULT_TIMING,
) -> List[FanInPoint]:
    """Many ranks send to rank 0 concurrently over independent rings."""
    points: List[FanInPoint] = []
    nboards = max(sender_counts) + 1
    for senders in sender_counts:
        sys_ = TCClusterSystem(chain(nboards),
                               msg_cfg=MsgConfig(heap_bytes=64 * KiB),
                               timing=timing).boot()
        cluster = sys_.cluster
        sim = sys_.sim
        hub = cluster.library(0)
        done_count = {"n": 0}

        def sender_proc(rank):
            ep = cluster.library(rank).connect(0)
            payload = bytes([rank]) * msg_bytes
            for _ in range(messages):
                yield from ep.send(payload)
            yield from ep.flush()

        def hub_proc(rank, expect):
            ep = hub.connect(rank)
            for _ in range(expect):
                data = yield from ep.recv()
                assert data == bytes([rank]) * msg_bytes
            done_count["n"] += 1

        start = sim.now
        procs = []
        for r in range(1, senders + 1):
            procs.append(sim.process(hub_proc(r, messages)))
            procs.append(sim.process(sender_proc(r)))
        sim.run_until_event(sim.all_of(procs))
        elapsed = sim.now - start
        total = senders * messages * msg_bytes
        points.append(FanInPoint(senders, senders * messages,
                                 bandwidth_mbps(total, elapsed)))
    return points
