"""Torus- and collective-scale sweeps: picklable points and their runners.

Each point function builds a **fresh** deterministic cluster, runs
exactly one evaluation point, and returns a picklable dataclass -- the
unit of work :func:`repro.sim.parallel.run_sweep` runs in-process or
fans out across worker processes.  Each runner takes ``jobs`` (explicit,
else ``TCC_PARALLEL``, else serial) and returns its points in spec
order; no point shares a system or virtual clock with another, so the
results do not depend on ``jobs``.  The Figure 6, multi-hop, coherence
and recovery sweeps follow the same pattern next to their experiments
(:mod:`repro.bench.microbench`, :mod:`repro.bench.coherence_bench`,
:mod:`repro.bench.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.parallel import SweepPoint, sweep_values
from ..util.units import KiB
from .microbench import _RawWindow

__all__ = [
    "torus_point",
    "TorusPoint",
    "collective_point",
    "nic_collective_point",
    "CollectivePoint",
    "run_torus_sweep",
    "run_collectives_sweep",
]


# ---------------------------------------------------------------------------
# Torus-scale points (64..512 supernodes on the folded interval maps)
# ---------------------------------------------------------------------------

@dataclass
class TorusPoint:
    """One torus-scale evaluation point (picklable sweep payload)."""

    shape: Tuple[int, int, int]
    workload: str          # "corner" | "halo" | "chaos"
    size: int              # bytes per transfer
    pairs: int             # concurrent transfers
    mbps: float            # aggregate goodput over the transfer window
    boot_ns: float         # virtual time spent booting
    transfer_ns: float     # virtual time of the transfer window
    events: int            # calendar entries executed by the transfer


def torus_point(shape: Tuple[int, int, int], size: int = 256 * KiB,
                workload: str = "corner") -> TorusPoint:
    """One fig6-style bulk transfer on a fresh booted 3D-torus cluster.

    * ``corner`` -- a single stream between antipodal corners (worst-case
      hop count through the folded interval maps);
    * ``halo``   -- every supernode streams to its +x neighbour at once
      (each x-link carries exactly one transfer: the scale-out pattern);
    * ``chaos``  -- the halo workload with one link killed mid-transfer,
      exercising route-around at scale; delivery is still verified.
    """
    from ..core.api import TCClusterSystem
    from ..topology import torus3d

    sys_ = TCClusterSystem(torus3d(*shape))
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    boot_ns = sim.now
    topo = cl.topology
    n = topo.num_supernodes
    if workload == "corner":
        pairs = [(cl.rank_of(0), cl.rank_of(n - 1))]
    elif workload in ("halo", "chaos"):
        pairs = []
        for s in range(n):
            c = list(topo.coords_of(s))
            c[0] = (c[0] + 1) % shape[0]
            pairs.append((cl.rank_of(s), cl.rank_of(topo.supernode_at(tuple(c)))))
    else:
        raise ValueError(f"unknown torus workload {workload!r}")
    wins = [_RawWindow(cl, a, b) for a, b in pairs]
    data = bytes(range(256)) * (size // 256)

    def xfer(win):
        yield from win.proc.store(win.tx_base, data)
        yield from win.proc.core.sfence()

    if workload == "chaos":
        from ..faults import FaultInjector, FaultKind, FaultPlan

        plan = FaultPlan().add(10_000.0, FaultKind.LINK_KILL, 0)
        FaultInjector(cl, plan).arm()
    e0 = sim.event_count
    t0 = sim.now
    procs = [sim.process(xfer(w)) for w in wins]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    elapsed = sim.now - t0
    # Delivery check: every destination window holds the streamed bytes
    # (also the chaos oracle -- route-around must not eat posted writes).
    for (a, b), win in zip(pairs, wins):
        off = win.tx_base - cl.ranks[b].base
        got = cl.ranks[b].chip.memctrl.memory.read(off, size)
        if got != data:
            raise AssertionError(f"torus transfer rank {a}->{b} corrupted")
    total = size * len(pairs)
    return TorusPoint(tuple(shape), workload, size, len(pairs),
                      round(total / (elapsed / 1e9) / 1e6, 1),
                      round(boot_ns, 1), round(elapsed, 1),
                      sim.event_count - e0)


# ---------------------------------------------------------------------------
# Collective-algorithm points (torus-embedded MPI vs the NIC baselines)
# ---------------------------------------------------------------------------

@dataclass
class CollectivePoint:
    """One collective-operation evaluation point (picklable payload)."""

    op: str                # "allreduce" | "bcast" | "alltoall"
    algorithm: str         # forced algorithm (see middleware.collectives)
    fabric: str            # "torus2d(8,8)" | baseline name ("ConnectX IB")
    nranks: int
    size: int              # payload bytes per rank (alltoall: per block)
    elapsed_ns: float      # virtual time of the collective
    mbps: float            # size / elapsed -- the effective per-rank rate
    events: int            # calendar entries executed by the collective
    slot_windows: int      # slot spans engaged (0 = per-packet)
    slot_slots: int        # ring slots carried by those spans
    ring_single_hop: bool  # embedding proof: every ring hop crosses <=1 link


def _collective_drivers(op: str, comms, size: int):
    """Per-rank generator drivers plus a correctness check.

    Inputs are deterministic per rank; the check asserts the simulated
    result against the NumPy oracle (``allclose`` -- tree and ring
    combine in different float orders) and, for allreduce, bitwise
    equality *across* ranks (every rank must hold the same bytes).
    """
    import numpy as np

    n = len(comms)
    results: Dict[int, Any] = {}
    if op == "allreduce":
        nel = max(1, size // 8)
        inputs = [np.arange(nel, dtype=np.float64) * 0.5 + r
                  for r in range(n)]

        def driver(c, algorithm):
            results[c.rank] = yield from c.allreduce(
                inputs[c.rank], op="sum", algorithm=algorithm)

        def check():
            oracle = np.sum(inputs, axis=0)
            assert np.allclose(results[0], oracle)
            ref = results[0].tobytes()
            assert all(results[r].tobytes() == ref for r in range(n))
    elif op == "bcast":
        payload = bytes(range(256)) * (max(size, 256) // 256)
        payload = payload[:size]

        def driver(c, algorithm):
            data = payload if c.rank == 0 else None
            results[c.rank] = yield from c.bcast(data, root=0,
                                                 algorithm=algorithm)

        def check():
            assert all(results[r] == payload for r in range(n))
    elif op == "alltoall":

        def block(src, dst):
            seed = (src * 31 + dst * 7) & 0xFF
            pattern = bytes((seed + i) & 0xFF for i in range(256))
            return (pattern * (size // 256 + 1))[:size]

        def driver(c, algorithm):
            blocks = [block(c.rank, d) for d in range(n)]
            results[c.rank] = yield from c.alltoall(blocks,
                                                    algorithm=algorithm)

        def check():
            for dst in range(n):
                for src in range(n):
                    assert results[dst][src] == block(src, dst)
    else:
        raise ValueError(f"unknown collective op {op!r}")
    return driver, check


def _drive_collective(sim, comms, op: str, algorithm: str, size: int):
    """Run one collective across all ranks; returns (elapsed, events)."""
    driver, check = _collective_drivers(op, comms, size)
    t0 = sim.now
    e0 = sim.event_count
    procs = [sim.process(driver(c, algorithm),
                         name=f"{op}[{c.rank}]") for c in comms]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    check()
    return sim.now - t0, sim.event_count - e0


def collective_point(op: str, algorithm: str, size: int,
                     shape: Tuple[int, int] = (8, 8)) -> CollectivePoint:
    """One forced-algorithm collective on a fresh booted 2D-torus cluster.

    ``shape=(8, 8)`` is the 64-rank acceptance configuration: one rank
    per supernode, ring collectives embedded on the Hamiltonian
    supernode ring (single-hop by construction on even grids).  The
    message-library window is widened so bandwidth-bound chunks stay on
    the eager ring path, where the default macro plane coalesces them
    into slot spans (reported via ``slot_windows``/``slot_slots``).
    """
    from ..core.api import TCClusterSystem
    from ..middleware import Communicator
    from ..msglib import MsgConfig
    from ..obs.metrics import flow_counters
    from ..topology import torus2d

    cfg = MsgConfig(ring_bytes=64 * KiB, eager_max=24576,
                    fb_interval_slots=128,
                    heap_bytes=max(512 * KiB, 2 * size))
    sys_ = TCClusterSystem(torus2d(*shape), msg_cfg=cfg)
    sys_.boot()
    sim = sys_.sim
    cl = sys_.cluster
    comms = [Communicator.for_cluster(cl, r) for r in range(cl.nranks)]
    elapsed, events = _drive_collective(sim, comms, op, algorithm, size)
    fl = flow_counters(sim)
    return CollectivePoint(
        op, algorithm, f"torus2d({shape[0]},{shape[1]})", cl.nranks, size,
        round(elapsed, 2), round(size / (elapsed / 1e9) / 1e6, 1),
        events, fl.slot_windows, fl.slot_slots,
        comms[0].ring_single_hop)


def nic_collective_point(op: str, algorithm: str, size: int,
                         nranks: int = 64,
                         baseline: str = "connectx") -> CollectivePoint:
    """The same forced-algorithm collective over a NIC full-mesh fabric
    (idealized non-blocking switch -- contention-free, which only favours
    the baseline; see :mod:`repro.baselines.fabric`)."""
    from ..baselines import CONNECTX_IB, TEN_GBE, NicFabric
    from ..middleware import Communicator
    from ..sim import Simulator

    params = {"connectx": CONNECTX_IB, "10gbe": TEN_GBE}[baseline]
    sim = Simulator()
    fabric = NicFabric(sim, nranks, params)
    comms = [Communicator(fabric.comm_provider(r)) for r in range(nranks)]
    elapsed, events = _drive_collective(sim, comms, op, algorithm, size)
    return CollectivePoint(
        op, algorithm, params.name, nranks, size,
        round(elapsed, 2), round(size / (elapsed / 1e9) / 1e6, 1),
        events, 0, 0, False)


# ---------------------------------------------------------------------------
# Sweep runners (spec-order outputs, largest points submitted first)
# ---------------------------------------------------------------------------

def run_torus_sweep(
    shapes: Sequence[Tuple[int, int, int]] = ((4, 4, 4),),
    workloads: Sequence[str] = ("corner", "halo"),
    size: int = 256 * KiB,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> List[TorusPoint]:
    """Torus-scale sweep (64..512 supernodes), one :func:`torus_point`
    per (shape, workload); the largest shapes are submitted first so
    they do not straggle at the tail of the pool."""
    points = [
        SweepPoint(key=f"torus:{x}x{y}x{z}:{w}", fn=torus_point,
                   args=((x, y, z),), kwargs={"size": size, "workload": w})
        for (x, y, z) in shapes
        for w in workloads
    ]
    return sweep_values(
        points, cost=lambda p: p.args[0][0] * p.args[0][1] * p.args[0][2],
        jobs=jobs, timeout=timeout)


def run_collectives_sweep(
    specs: Sequence[Tuple[str, str, int]],
    shape: Tuple[int, int] = (8, 8),
    baselines: Sequence[str] = (),
    nic_nranks: int = 64,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> List[CollectivePoint]:
    """Collective sweep, one fresh cluster or fabric per point.

    ``specs`` is a list of ``(op, algorithm, size)`` triples run on the
    torus cluster (:func:`collective_point`); each entry of ``baselines``
    ("connectx" / "10gbe") additionally runs every spec over that NIC
    fabric (:func:`nic_collective_point`).  Output order: all torus
    points in spec order, then each baseline's points.
    """
    points = [
        SweepPoint(key=f"coll:{op}:{algo}:{size}", fn=collective_point,
                   args=(op, algo, size), kwargs={"shape": tuple(shape)})
        for op, algo, size in specs
    ]
    for b in baselines:
        points.extend(
            SweepPoint(key=f"coll:{b}:{op}:{algo}:{size}",
                       fn=nic_collective_point, args=(op, algo, size),
                       kwargs={"nranks": nic_nranks, "baseline": b})
            for op, algo, size in specs
        )
    return sweep_values(points, cost=lambda p: p.args[2], jobs=jobs,
                        timeout=timeout)
