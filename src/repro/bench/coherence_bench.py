"""Coherence-scalability benchmark (the paper's motivation, Sections I/III).

Sweeps node count for a write-sharing workload under

* broadcast MESI (Opteron-style: probe everyone, wait for the last
  response) -- the paper's reason SMPs stop at 8 sockets,
* directory MESI (Horus/3-Leaf style, "moderately increase the
  scalability to 32 nodes"),
* TCCluster message passing, whose per-operation cost has *no*
  N-proportional probe term, only the topology's hop growth.

The output is the table behind the claim that abandoning coherence is
what lets TCCluster scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..coherence import CoherentSystem
from ..sim import Simulator
from ..sim.parallel import SweepPoint, sweep_values
from ..util.calibration import TimingModel, DEFAULT_TIMING

__all__ = [
    "CoherenceScalePoint",
    "coherence_point",
    "run_coherence_scaling",
    "tcc_op_latency_ns",
]


@dataclass(frozen=True)
class CoherenceScalePoint:
    nodes: int
    protocol: str
    ops: int
    avg_op_ns: float
    probes_per_op: float
    total_ns: float


def tcc_op_latency_ns(nodes: int, timing: TimingModel = DEFAULT_TIMING,
                      base_hrt_ns: float = 234.0, per_hop_ns: float = 41.5) -> float:
    """TCCluster's equivalent communication cost per operation: the
    measured 64-byte half round trip plus mesh hop growth (~(2/3)sqrt(N)
    average hops, each under 50 ns).  No term grows with N beyond
    topology distance -- the point of the architecture."""
    avg_hops = max(0.0, (2 / 3) * math.sqrt(nodes) - 1)
    return base_hrt_ns + avg_hops * per_hop_ns


def coherence_point(
    protocol: str,
    nodes: int,
    ops_per_node: int = 60,
    shared_lines: int = 16,
    write_fraction: float = 0.3,
    seed: int = 1234,
    timing: TimingModel = DEFAULT_TIMING,
) -> CoherenceScalePoint:
    """One (protocol, node count) point on its own Simulator: each node
    performs a mixed read/write stream over a hot shared working set
    plus private lines."""
    sim = Simulator()
    system = CoherentSystem(sim, nodes, protocol=protocol, timing=timing)
    rng = random.Random(seed)
    total_ops = nodes * ops_per_node

    def node_workload(node, rng_seed):
        local_rng = random.Random(rng_seed)
        for _ in range(ops_per_node):
            if local_rng.random() < 0.5:
                addr = 64 * local_rng.randrange(shared_lines)
            else:
                addr = 64 * (1000 + node.node_id * 64
                             + local_rng.randrange(8))
            if local_rng.random() < write_fraction:
                yield from node.write(addr, local_rng.randrange(1 << 30))
            else:
                yield from node.read(addr)

    procs = [
        sim.process(node_workload(node, rng.randrange(1 << 30)))
        for node in system.nodes
    ]
    sim.run_until_event(sim.all_of(procs))
    system.check_all_invariants()
    probes = sum(nd.stats.probes_sent for nd in system.nodes)
    # Nodes run concurrently, each issuing ops_per_node sequential
    # operations; the mean per-op latency is the makespan divided by the
    # per-node stream length.
    return CoherenceScalePoint(
        nodes=nodes,
        protocol=protocol,
        ops=total_ops,
        avg_op_ns=sim.now / ops_per_node,
        probes_per_op=probes / total_ops,
        total_ns=sim.now,
    )


def run_coherence_scaling(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32, 64),
    protocols: Sequence[str] = ("broadcast", "directory"),
    ops_per_node: int = 60,
    shared_lines: int = 16,
    write_fraction: float = 0.3,
    seed: int = 1234,
    timing: TimingModel = DEFAULT_TIMING,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> List[CoherenceScalePoint]:
    """Mean per-operation latency for every (protocol, node count), then
    the analytical TCCluster rows.  The simulated points are
    :func:`coherence_point` calls through
    :func:`~repro.sim.parallel.run_sweep` over ``jobs`` workers."""
    points = [
        SweepPoint(key=f"coh:{protocol}:{n}", fn=coherence_point,
                   args=(protocol, n, ops_per_node, shared_lines,
                         write_fraction, seed, timing))
        for protocol in protocols
        for n in node_counts
    ]
    # Biggest node counts dominate runtime; submit them first.
    out = sweep_values(points, cost=lambda p: p.args[1], jobs=jobs,
                       timeout=timeout)
    for n in node_counts:
        lat = tcc_op_latency_ns(n, timing)
        out.append(
            CoherenceScalePoint(n, "tccluster", n * ops_per_node, lat, 0.0,
                                lat * ops_per_node)
        )
    return out
