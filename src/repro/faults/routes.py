"""Interval-routing recovery: reprogram the cluster around dead links.

Paper Section IV.D ties packet flow to the MMIO base/limit pairs: every
supernode's view of the remote address space is a handful of contiguous
intervals, each steered out of one exit port.  When a TCC link dies
permanently, this module recomputes those intervals from the surviving
topology (dimension-ordered next hops where the walk stays clean, BFS
around the dead edges elsewhere -- see ``ClusterTopology.
shortest_next_hops``) and rewrites
every chip's MMIO pairs -- the same registers firmware programmed at
boot, so the data path picks the new routes up through the normal
register-write invalidation hooks.

Destinations with no surviving path get the coherent-fabric treatment a
real Opteron gives an unrecoverable fabric error: a sync-flood-style
broadcast interrupt on every supernode that lost reachability, plus a
``fatal_broadcasts`` counter the chaos harness asserts on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..ht.link import Link, LinkSide
from ..obs.metrics import fault_counters
from ..opteron.registers import NUM_MMIO_ENTRIES
from ..topology.address_assignment import MmioDirective, exit_intervals
from ..topology.graph import TccEdge

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.system import TCCluster

__all__ = ["RouteManager", "RouteError"]

#: Vector broadcast on loss of reachability (sync-flood analogue).
FATAL_ROUTE_VECTOR = 0x7C


class RouteError(RuntimeError):
    """Recovery routing was asked of an unbooted cluster or of a link that
    is not one of its TCC links."""


class RouteManager:
    """Recomputes and reprograms cluster routing around dead TCC links.

    Requires a **booted** cluster (the enumeration reports map chips to
    fabric NodeIDs).  One instance accumulates dead edges across multiple
    :meth:`route_around` calls, so successive kills compose.
    """

    def __init__(self, cluster: "TCCluster"):
        self.cluster = cluster
        self.sim = cluster.sim
        #: Edges removed from routing so far (parallel to killed links).
        self.dead_edges: List[TccEdge] = []
        #: (src, dst) supernode pairs with no surviving path.
        self.unreachable: List[Tuple[int, int]] = []
        #: Supernodes whose post-fault map exceeded the 16 MMIO pairs and
        #: were degraded to the sync-flood path (windows disabled, fatal
        #: vector broadcast), so a mid-recovery overflow cannot wedge a
        #: run half-programmed.
        self.pressure_flooded: List[int] = []

    # ------------------------------------------------------------------
    def _edge_of(self, link: Link) -> TccEdge:
        """``cluster.tcc_links`` is index-parallel to ``topology.edges``
        (both come from the same construction loop)."""
        for i, l in enumerate(self.cluster.tcc_links):
            if l is link:
                return self.cluster.topology.edges[i]
        raise RouteError(f"{link.name} is not a TCC link of this cluster")

    def route_around(self, link: Link) -> List[Tuple[int, int]]:
        """Declare ``link`` permanently dead and steer traffic around it.

        Brings the link down (NAK'ing in-flight packets), marks it dead
        (retrains refused), salvages posted packets stranded in its TX
        queues back into their owning chip's posted queue (they re-route
        through the reprogrammed maps), rewrites every supernode's MMIO
        interval windows from the surviving graph, and broadcasts a
        fatal interrupt on supernodes that lost reachability entirely.
        Returns the newly unreachable (src, dst) supernode pairs.
        """
        cluster = self.cluster
        if not cluster.reports:
            raise RouteError("route_around needs a booted cluster")
        fc = fault_counters(self.sim)
        edge = self._edge_of(link)
        link.bring_down()
        link.dead = True
        if all(e is not edge for e in self.dead_edges):
            self.dead_edges.append(edge)
        self._reprogram()
        self._salvage(link)
        fresh = self._find_unreachable()
        if fresh:
            for s in sorted({src for src, _ in fresh}):
                cluster.boards[s].bsp.send_interrupt(FATAL_ROUTE_VECTOR)
                fc.fatal_broadcasts += 1
        return fresh

    # ------------------------------------------------------------------
    def _reprogram(self) -> None:
        """Recompute every supernode's exit intervals and rewrite the
        MMIO pairs of all its chips (DRAM pairs are board-internal and
        unaffected by TCC link death)."""
        cluster = self.cluster
        topo = cluster.topology
        ranges = cluster.amap.supernode_ranges
        fc = fault_counters(self.sim)
        for s in range(topo.num_supernodes):
            # Same folded-interval construction as boot-time assignment
            # (address_assignment.exit_intervals), so the post-fault map
            # respects the folded ranges; unreachable destinations are
            # absent and leave their windows unmapped.
            mmio: List[MmioDirective] = []
            for (exit_node, exit_port), rs in exit_intervals(
                    topo, ranges, s, exclude=self.dead_edges).items():
                for b, l in rs:
                    mmio.append(MmioDirective(b, l, exit_node, exit_port))
            board = cluster.boards[s]
            if len(mmio) > NUM_MMIO_ENTRIES:
                # Register pressure: the post-fault map cannot be
                # expressed in 16 pairs.  A half-programmed window set
                # would silently misroute, so degrade the whole
                # supernode deterministically: every window disabled
                # (outbound TCC traffic fails typed via the unmapped
                # route) and the fatal vector broadcast once -- the
                # sync-flood a real fabric raises on an unrecoverable
                # routing fault.
                for chip in board.chips:
                    for i in range(NUM_MMIO_ENTRIES):
                        chip.mmio_pair(i).disable()
                if s not in self.pressure_flooded:
                    self.pressure_flooded.append(s)
                    board.bsp.send_interrupt(FATAL_ROUTE_VECTOR)
                    fc.fatal_broadcasts += 1
                    fc.pressure_floods += 1
                continue
            enum = cluster.reports[s].enumeration
            for chip in board.chips:
                for i in range(NUM_MMIO_ENTRIES):
                    chip.mmio_pair(i).disable()
                for i, m in enumerate(mmio):
                    dst_nid = enum.nodeid_of(board.chips[m.exit_node])
                    chip.mmio_pair(i).program(
                        m.base, m.limit, dst_node=dst_nid, dst_link=m.exit_port
                    )
                # NOTE: the register-write hook already invalidated the
                # northbridge's route cache; no explicit flush needed.
            fc.reroutes += 1

    def _salvage(self, link: Link) -> None:
        """Hand every packet stranded in the dead link's TX queues back to
        its owning chip (:meth:`Link.salvage`); the dispatcher re-routes
        the posted ones through the just-reprogrammed maps.  A packet the
        link's pump holds at the kill is handed back when the pump NAKs
        it."""
        for side in (LinkSide.A, LinkSide.B):
            for q in link._dirs[side].txq.values():
                while True:
                    ok, pkt = q.try_get()
                    if not ok:
                        break
                    link.salvage(side, pkt)

    def _find_unreachable(self) -> List[Tuple[int, int]]:
        """Newly unreachable ordered supernode pairs (accumulated into
        :attr:`unreachable`)."""
        topo = self.cluster.topology
        seen = {(a, b) for a, b in self.unreachable}
        fresh: List[Tuple[int, int]] = []
        for s in range(topo.num_supernodes):
            reach = topo.shortest_next_hops(s, exclude=self.dead_edges)
            for dst in range(topo.num_supernodes):
                if dst == s or dst in reach:
                    continue
                if (s, dst) not in seen:
                    fresh.append((s, dst))
        self.unreachable.extend(fresh)
        return fresh
