"""Design-space exploration harness.

A DSE run evaluates a declarative grid of hardware configurations --
link width, per-lane rate, write-combining buffer count, message-ring
depth, topology -- and reports the Pareto front over the three axes the
paper trades against each other: bulk bandwidth, small-message latency,
and recovery stall under a link flap.

Each grid point cold-boots two systems of its configuration: a clean one
for the bandwidth and latency runs, and one for the paired fault run.
The recovery-stall metric is a paired measurement: a cold boot is
deterministic, so both systems start bit-identical and the difference of
their transfer times is exactly the stall the LINK_FLAP added (down time
+ retrain + pipeline refill).

Shape checks (Figure 6/7-style goldens): along the link-width axis with
all other axes fixed, bandwidth must be monotone non-decreasing and
latency monotone non-increasing (wider links serialize strictly faster);
violations fail the run.
"""

from __future__ import annotations

import argparse
import json
import re
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ht.linkinit import EndpointPersona
from ..sim import Doorbell
from ..sim.parallel import SweepPoint, sweep_values
from ..util.calibration import DEFAULT_TIMING
from ..util.units import CACHELINE, KiB
from .microbench import _RawWindow

__all__ = [
    "DseConfig",
    "DsePoint",
    "DseReport",
    "dse_point",
    "run_dse",
    "pareto_front",
    "shape_violations",
    "SMOKE_CONFIG",
    "main",
]

#: Link widths HT silicon supports (paper Section III).
LEGAL_WIDTHS = (2, 4, 8, 16, 32)


@dataclass(frozen=True)
class DseConfig:
    """A declarative sweep grid (cartesian product of the axes)."""

    topologies: Tuple[str, ...] = ("proto2",)
    link_width_bits: Tuple[int, ...] = (8, 16)
    link_gbit_per_lane: Tuple[float, ...] = (1.6,)
    wc_buffers: Tuple[int, ...] = (8,)
    ring_bytes: Tuple[int, ...] = (4 * KiB,)
    #: Bulk-store transfer size for the bandwidth/recovery runs.
    bw_size: int = 256 * KiB
    #: Ping-pong payload and iteration count for the latency run.
    lat_size: int = 64
    lat_iters: int = 20
    #: Paired LINK_FLAP run (set False to skip the second cold boot).
    measure_recovery: bool = True
    flap_at_ns: float = 4_000.0
    flap_duration_ns: float = 3_000.0

    def specs(self) -> List[Tuple[str, int, float, int, int]]:
        cap = EndpointPersona.max_width_bits
        for w in self.link_width_bits:
            if w not in LEGAL_WIDTHS:
                raise ValueError(f"link width {w} not in {LEGAL_WIDTHS}")
            if w > cap:
                raise ValueError(f"link width {w} exceeds the {cap}-bit "
                                 "link capability")
        return list(product(self.topologies, self.link_width_bits,
                            self.link_gbit_per_lane, self.wc_buffers,
                            self.ring_bytes))


#: The CI smoke grid: two axes, four points, one tiny topology.
SMOKE_CONFIG = DseConfig(
    topologies=("proto2",),
    link_width_bits=(8, 16),
    ring_bytes=(4 * KiB, 8 * KiB),
    bw_size=64 * KiB,
    lat_iters=5,
)


@dataclass
class DsePoint:
    """One evaluated configuration (picklable sweep payload)."""

    topology: str
    link_width_bits: int
    link_gbit_per_lane: float
    wc_buffers: int
    ring_bytes: int
    bandwidth_mbps: float      # bulk weak-ordered store stream
    latency_ns: float          # msglib half round trip
    recovery_stall_ns: float   # faulted minus clean transfer time


def _topology_of(name: str):
    """Resolve a topology axis value to ``(topology, nodes_per_supernode)``.

    ``proto2`` is the two-board prototype signature; otherwise the name
    is a factory call like ``mesh2d(4,4)`` / ``torus3d(2,2,2)`` /
    ``chain(4)``.
    """
    from ..topology import chain, mesh2d, torus2d, torus3d

    if name == "proto2":
        return chain(2, node=1, left_port=2, right_port=2), 2
    m = re.fullmatch(r"(chain|mesh2d|torus2d|torus3d)\(([\d,\s]+)\)", name)
    if not m:
        raise ValueError(f"unknown topology spec {name!r}")
    factory = {"chain": chain, "mesh2d": mesh2d,
               "torus2d": torus2d, "torus3d": torus3d}[m.group(1)]
    args = tuple(int(x) for x in m.group(2).split(","))
    return factory(*args), 1


def _endpoint_ranks(cl) -> Tuple[int, int]:
    """The measurement pair: supernode 0 to the last supernode."""
    return cl.rank_of(0), cl.rank_of(cl.topology.num_supernodes - 1)


def _bulk_stream_ns(cl, size: int, flap_at_ns: Optional[float] = None,
                    flap_duration_ns: float = 0.0) -> float:
    """Stream ``size`` bytes between the endpoint ranks; returns the
    transfer time, up to the commit of the last line at the destination
    (optionally with a LINK_FLAP of the route's first TCC link armed
    mid-transfer)."""
    sim = cl.sim
    a, b = _endpoint_ranks(cl)
    win = _RawWindow(cl, a, b)
    data = bytes(range(256)) * (size // 256)
    mc = cl.ranks[b].chip.memctrl
    off = win.tx_base - cl.ranks[b].base
    # Not the drained calendar: a fault path can leave a timeout queued
    # long after the last line has landed.
    landed = Doorbell(sim, name="dse.last_line")
    mc.watch(off + size - CACHELINE, off + size, landed)
    ends: List[float] = []
    landed.wait(0).add_callback(lambda _ev: ends.append(sim.now))

    def xfer():
        yield from win.proc.store(win.tx_base, data)
        yield from win.proc.core.sfence()

    if flap_at_ns is not None:
        from ..faults import FaultInjector, FaultKind, FaultPlan

        topo = cl.topology
        link = topo.edges.index(
            topo.dimension_next_hop(0, topo.num_supernodes - 1))
        plan = FaultPlan().add(flap_at_ns, FaultKind.LINK_FLAP, link,
                               duration_ns=flap_duration_ns)
        FaultInjector(cl, plan).arm()
    t0 = sim.now
    done = sim.process(xfer())
    sim.run_until_event(done)
    sim.run()
    mc.unwatch(landed)
    # Delivery oracle: the flap must stall, never drop, posted writes.
    if mc.memory.read(off, size) != data:
        raise AssertionError("DSE bulk stream corrupted")
    return ends[0] - t0


def _msglib_latency_ns(cl, size: int, iters: int) -> float:
    """Message-library ping-pong half round trip (exercises the ring)."""
    sim = cl.sim
    a, b = _endpoint_ranks(cl)
    ea = cl.library(a).connect(b)
    eb = cl.library(b).connect(a)
    out: Dict[str, float] = {}

    def echo():
        for _ in range(iters):
            msg = yield from eb.recv()
            yield from eb.send(msg)

    def ping():
        payload = bytes(size)
        t0 = sim.now
        for _ in range(iters):
            yield from ea.send(payload)
            yield from ea.recv()
        out["elapsed"] = sim.now - t0

    sim.process(echo(), name="dse-echo")
    done = sim.process(ping(), name="dse-ping")
    sim.run_until_event(done)
    sim.run()
    return out["elapsed"] / (2 * iters)


def dse_point(topology: str, width: int, gbit: float, wc: int, ring: int,
              bw_size: int = 256 * KiB, lat_size: int = 64,
              lat_iters: int = 20, measure_recovery: bool = True,
              flap_at_ns: float = 4_000.0,
              flap_duration_ns: float = 3_000.0) -> DsePoint:
    """Evaluate one grid point: cold-boot a system, run the clean
    bandwidth+latency pair, then cold-boot another for the paired fault
    run."""
    from ..cluster import TCCluster
    from ..msglib import MsgConfig

    topo, nps = _topology_of(topology)
    timing = DEFAULT_TIMING.scaled(link_width_bits=width,
                                   link_gbit_per_lane=gbit,
                                   wc_buffers=wc)

    def boot():
        return TCCluster(topo, nodes_per_supernode=nps, timing=timing,
                         msg_cfg=MsgConfig(ring_bytes=ring)).boot()

    clean = boot()
    bw_ns = _bulk_stream_ns(clean, bw_size)
    lat_ns = _msglib_latency_ns(clean, lat_size, lat_iters)

    stall = 0.0
    if measure_recovery:
        faulted = boot()
        faulted_ns = _bulk_stream_ns(faulted, bw_size,
                                     flap_at_ns=flap_at_ns,
                                     flap_duration_ns=flap_duration_ns)
        stall = max(0.0, faulted_ns - bw_ns)

    return DsePoint(
        topology, width, gbit, wc, ring,
        round(bw_size / (bw_ns / 1e9) / 1e6, 1),
        round(lat_ns, 2), round(stall, 1),
    )


# ---------------------------------------------------------------------------
# Pareto front + golden shape checks
# ---------------------------------------------------------------------------

def _dominates(p: DsePoint, q: DsePoint) -> bool:
    """p dominates q: no worse on every objective, better on one."""
    ge = (p.bandwidth_mbps >= q.bandwidth_mbps
          and p.latency_ns <= q.latency_ns
          and p.recovery_stall_ns <= q.recovery_stall_ns)
    gt = (p.bandwidth_mbps > q.bandwidth_mbps
          or p.latency_ns < q.latency_ns
          or p.recovery_stall_ns < q.recovery_stall_ns)
    return ge and gt


def pareto_front(points: Sequence[DsePoint]) -> List[DsePoint]:
    """Non-dominated set over (max bandwidth, min latency, min stall)."""
    return [p for p in points
            if not any(_dominates(q, p) for q in points if q is not p)]


def shape_violations(points: Sequence[DsePoint],
                     tolerance: float = 0.01) -> List[str]:
    """Figure 6/7-style golden shape checks along the link-width axis.

    Groups points by every other axis and walks widths in order:
    bandwidth must not drop and latency must not rise by more than
    ``tolerance`` (relative) from one width to the next.
    """
    groups: Dict[Tuple, List[DsePoint]] = {}
    for p in points:
        groups.setdefault(
            (p.topology, p.link_gbit_per_lane, p.wc_buffers, p.ring_bytes),
            []).append(p)
    bad: List[str] = []
    for key, grp in groups.items():
        grp = sorted(grp, key=lambda p: p.link_width_bits)
        for prev, cur in zip(grp, grp[1:]):
            if cur.bandwidth_mbps < prev.bandwidth_mbps * (1 - tolerance):
                bad.append(
                    f"{key}: bandwidth fell {prev.bandwidth_mbps} -> "
                    f"{cur.bandwidth_mbps} MB/s going "
                    f"{prev.link_width_bits} -> {cur.link_width_bits} bits")
            if cur.latency_ns > prev.latency_ns * (1 + tolerance):
                bad.append(
                    f"{key}: latency rose {prev.latency_ns} -> "
                    f"{cur.latency_ns} ns going "
                    f"{prev.link_width_bits} -> {cur.link_width_bits} bits")
    return bad


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------

@dataclass
class DseReport:
    """Everything one DSE run produced."""

    points: List[DsePoint] = field(default_factory=list)
    pareto: List[DsePoint] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "points": [asdict(p) for p in self.points],
            "pareto": [asdict(p) for p in self.pareto],
            "violations": list(self.violations),
        }


def run_dse(config: DseConfig = DseConfig(),
            jobs: Optional[Any] = None,
            timeout: Optional[float] = None) -> DseReport:
    """Evaluate every grid point via :mod:`repro.sim.parallel`, then
    take the Pareto front and the shape checks."""
    specs = config.specs()
    kwargs = {"bw_size": config.bw_size, "lat_size": config.lat_size,
              "lat_iters": config.lat_iters,
              "measure_recovery": config.measure_recovery,
              "flap_at_ns": config.flap_at_ns,
              "flap_duration_ns": config.flap_duration_ns}
    points = [SweepPoint(key=f"dse:{t}:w{w}:g{g}:wc{wc}:r{ring}",
                         fn=dse_point, args=(t, w, g, wc, ring),
                         kwargs=kwargs)
              for t, w, g, wc, ring in specs]
    # Widest links stream fastest but flap recovery dominates; schedule
    # big topologies first so they do not straggle.
    out = sweep_values(
        points, cost=lambda p: _topology_of(p.args[0])[0].num_supernodes,
        jobs=jobs, timeout=timeout)
    return DseReport(
        points=out,
        pareto=pareto_front(out),
        violations=shape_violations(out),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="TCCluster design-space exploration")
    parser.add_argument("--jobs", default=None,
                        help="worker processes (default: TCC_PARALLEL)")
    parser.add_argument("--out", default=None,
                        help="write the full report as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny 2-axis grid (the CI configuration)")
    parser.add_argument("--widths", default=None,
                        help="comma-separated link widths (e.g. 8,16)")
    parser.add_argument("--topology", action="append", default=None,
                        help="topology spec (repeatable); e.g. proto2, "
                             "torus3d(2,2,2)")
    args = parser.parse_args(argv)

    config = SMOKE_CONFIG if args.smoke else DseConfig()
    overrides = {}
    if args.widths:
        overrides["link_width_bits"] = tuple(
            int(w) for w in args.widths.split(","))
    if args.topology:
        overrides["topologies"] = tuple(args.topology)
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)

    report = run_dse(config, jobs=args.jobs)
    for p in report.points:
        print(f"  {p.topology:>14s} w={p.link_width_bits:<2d} "
              f"ring={p.ring_bytes:<6d} bw={p.bandwidth_mbps:>8.1f} MB/s "
              f"lat={p.latency_ns:>8.2f} ns stall={p.recovery_stall_ns:>8.1f} ns")
    print(f"pareto front: {len(report.pareto)}/{len(report.points)} points")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    if report.violations:
        for v in report.violations:
            print(f"SHAPE VIOLATION: {v}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
