"""Public facade: the TCCluster system as a library.

This is the entry point a downstream user works with:

>>> from repro import TCClusterSystem
>>> sys_ = TCClusterSystem.two_board_prototype()   # paper Figure 5
>>> _ = sys_.boot()
>>> a, b = sys_.compute_ranks()[:2]
>>> tx, rx = sys_.connect(a, b)
>>> def sender():
...     yield from tx.send(b"hi")
...     yield from tx.flush()
>>> def receiver(out):
...     data = yield from rx.recv()
...     out.append(data)
>>> out = []
>>> _ = sys_.process(sender)
>>> done = sys_.process(receiver, out)
>>> sys_.run_until(done)
>>> out
[b'hi']

Everything underneath -- coreboot-style firmware, link training, the
force-non-coherent warm reset, address maps, the custom kernel, ring
buffers -- runs inside the simulator; see DESIGN.md for the full map.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..cluster import TCCluster
from ..msglib import ClusterBarrier, Endpoint, MessageLibrary, MsgConfig
from ..sim import Event, Process, Simulator
from ..topology import ClusterTopology, chain, mesh2d
from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import MiB

__all__ = ["TCClusterSystem"]


class TCClusterSystem:
    """High-level handle over a booted (or bootable) TCCluster."""

    def __init__(
        self,
        topology: Optional[ClusterTopology] = None,
        *,
        num_supernodes: int = 2,
        nodes_per_supernode: int = 1,
        memory_bytes: int = 256 * MiB,
        timing: TimingModel = DEFAULT_TIMING,
        msg_cfg: Optional[MsgConfig] = None,
        link_ber: float = 0.0,
    ):
        if topology is None:
            topology = chain(num_supernodes)
        self.cluster = TCCluster(
            topology,
            memory_bytes=memory_bytes,
            nodes_per_supernode=nodes_per_supernode,
            timing=timing,
            msg_cfg=msg_cfg,
            link_ber=link_ber,
        )

    # -- canned configurations -------------------------------------------------
    @classmethod
    def two_board_prototype(cls, timing: TimingModel = DEFAULT_TIMING,
                            memory_bytes: int = 256 * MiB,
                            msg_cfg: Optional[MsgConfig] = None) -> "TCClusterSystem":
        """The paper's second prototype (Figure 5): two Tyan S2912E boards,
        two Shanghai Opterons each, interconnected by the HTX cable from
        node 1 to node 1, links at HT800 x 16."""
        topo = chain(2, node=1, left_port=2, right_port=2)
        return cls(topo, nodes_per_supernode=2, timing=timing,
                   memory_bytes=memory_bytes, msg_cfg=msg_cfg)

    @classmethod
    def blade_mesh(cls, rows: int, cols: int,
                   timing: TimingModel = DEFAULT_TIMING,
                   memory_bytes: int = 256 * MiB,
                   msg_cfg: Optional[MsgConfig] = None) -> "TCClusterSystem":
        """The paper's scale-out vision (Section IV.F): an n x n mesh of
        single-processor blades on a backplane."""
        return cls(mesh2d(rows, cols), nodes_per_supernode=1, timing=timing,
                   memory_bytes=memory_bytes, msg_cfg=msg_cfg)

    # -- lifecycle ----------------------------------------------------------------
    def boot(self) -> "TCClusterSystem":
        self.cluster.boot()
        return self

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def nranks(self) -> int:
        return self.cluster.nranks

    def compute_ranks(self) -> List[int]:
        """All ranks (one per processor) in global order."""
        return [r.rank for r in self.cluster.ranks]

    # -- messaging ---------------------------------------------------------------
    def library(self, rank: int) -> MessageLibrary:
        return self.cluster.library(rank)

    def connect(self, a: int, b: int) -> Tuple[Endpoint, Endpoint]:
        """Open the endpoint pair between ranks ``a`` and ``b``;
        returns (a's endpoint toward b, b's endpoint toward a)."""
        return self.library(a).connect(b), self.library(b).connect(a)

    def barrier(self, rank: int) -> ClusterBarrier:
        return ClusterBarrier(self.library(rank))

    # -- observability ------------------------------------------------------------
    def enable_metrics(self):
        """Turn on the metrics registry (latency histograms, occupancy);
        see :meth:`repro.cluster.system.TCCluster.enable_metrics`."""
        return self.cluster.enable_metrics()

    def metrics(self) -> dict:
        """Whole-cluster snapshot: per-link utilization, per-endpoint
        message counts, end-to-end latency histogram, NB/WC counters."""
        return self.cluster.metrics()

    def metrics_report(self, fmt: str = "text") -> str:
        return self.cluster.metrics_report(fmt=fmt)

    # -- execution ----------------------------------------------------------------
    def process(self, fn: Callable, *args, name: str = "") -> Process:
        """Start ``fn(*args)`` (a generator function) as a simulation
        process; returns the Process (an Event carrying the return value)."""
        return self.sim.process(fn(*args), name=name or getattr(fn, "__name__", "user"))

    def run_until(self, ev: Event, limit: Optional[float] = None):
        return self.sim.run_until_event(ev, limit=limit)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)
