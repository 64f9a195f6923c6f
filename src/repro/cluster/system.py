"""Cluster assembly: boards + TCC links + firmware + OS, booted end to end.

:class:`TCCluster` is the builder the examples and benchmarks use:

1. compute the global address map for the requested topology
   (:mod:`repro.topology.address_assignment`),
2. instantiate one :class:`~repro.firmware.board.Board` per supernode and
   wire the TCC links between the (node, port) endpoints the topology
   names,
3. run every board's :class:`~repro.firmware.boot.TCClusterFirmware`
   concurrently, synchronized on the shared reset rail,
4. boot a custom-kernel :class:`~repro.kernel.linux.Kernel` per board and
   instantiate the tccluster driver on every chip,
5. hand out :class:`~repro.msglib.library.MessageLibrary` instances per
   *rank* (global chip index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..firmware import (
    Board,
    BoardLayout,
    BoardPlan,
    BootReport,
    TCClusterFirmware,
    TYAN_S2912E,
    single_chip_layout,
)
from ..kernel import Kernel, UserProcess
from ..msglib import MessageLibrary, MsgConfig
from ..ht.link import LinkState
from ..obs.metrics import (MetricsRegistry, collective_counters,
                           enable_metrics, fault_counters, metrics_for)
from ..obs.report import format_report
from ..opteron import OpteronChip, wire_link
from ..sim import Barrier, Simulator
from ..topology import ClusterTopology, GlobalAddressMap, NodeSpec, SupernodeSpec, assign_addresses
from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import MiB

__all__ = ["TCCluster", "ClusterError", "default_layout", "auto_layout"]


class ClusterError(RuntimeError):
    """Cluster construction or boot failure."""


def default_layout(nodes_per_supernode: int) -> BoardLayout:
    """Board layout for n chips: the Tyan board for 2, headless single
    blade for 1, a coherent chain otherwise."""
    if nodes_per_supernode == 1:
        return single_chip_layout(None)
    if nodes_per_supernode == 2:
        return TYAN_S2912E
    edges = tuple(
        (i, 2, i + 1, 3) for i in range(nodes_per_supernode - 1)
    )
    return BoardLayout(nodes_per_supernode, edges, sb_attach=(0, 0))


def _tcc_ports(topology: ClusterTopology) -> set:
    """Every (chip, port) any supernode's TCC links claim (the layout is
    shared by all boards, so the union is what must stay free)."""
    return {(ep.node, ep.port) for e in topology.edges for ep in (e.a, e.b)}


def _layout_conflicts(layout: BoardLayout, topology: ClusterTopology) -> bool:
    used = _tcc_ports(topology)
    for (ca, pa, cb, pb) in layout.coherent_edges:
        if (ca, pa) in used or (cb, pb) in used:
            return True
    return layout.sb_attach is not None and tuple(layout.sb_attach) in used


def auto_layout(topology: ClusterTopology,
                nodes_per_supernode: int) -> BoardLayout:
    """A board layout that leaves the topology's TCC ports free.

    Keeps a coherent chain between the chips on whatever ports remain,
    and attaches a southbridge only if chip 0 still has a port to spare
    -- torus3d eats six of a 2-chip board's eight ports, so those boards
    come out headless with the coherent link on the two leftover ports.
    """
    from ..opteron.registers import NUM_LINKS

    used = _tcc_ports(topology)
    free = {c: [p for p in range(NUM_LINKS) if (c, p) not in used]
            for c in range(nodes_per_supernode)}
    edges = []
    for i in range(nodes_per_supernode - 1):
        if not free[i] or not free[i + 1]:
            raise ClusterError(
                f"chips {i}/{i + 1} have no free port left for the "
                "coherent board link after TCC port assignment"
            )
        edges.append((i, free[i].pop(), i + 1, free[i + 1].pop(0)))
    sb = (0, free[0].pop(0)) if free[0] else None
    return BoardLayout(nodes_per_supernode, tuple(edges), sb)


@dataclass
class RankInfo:
    rank: int
    supernode: int
    chip_index: int
    chip: OpteronChip
    base: int
    limit: int


class TCCluster:
    """A full TCCluster instance inside one simulator."""

    def __init__(
        self,
        topology: ClusterTopology,
        memory_bytes: int = 256 * MiB,
        nodes_per_supernode: int = 1,
        timing: TimingModel = DEFAULT_TIMING,
        msg_cfg: Optional[MsgConfig] = None,
        layout: Optional[BoardLayout] = None,
        link_ber: float = 0.0,
        skew_tolerance_ns: float = 100.0,
    ):
        self.sim = Simulator()
        self.topology = topology
        self.timing = timing
        self.msg_cfg = msg_cfg or MsgConfig()
        if layout is None:
            # Grow the board to fit topologies whose port plan spans
            # several chips (torus3d needs six TCC ports = two chips),
            # and swap the stock layout for a fitted one when its
            # coherent/southbridge ports collide with TCC ports.
            max_node = max((ep.node for e in topology.edges
                            for ep in (e.a, e.b)), default=0)
            nodes_per_supernode = max(nodes_per_supernode, max_node + 1)
            layout = default_layout(nodes_per_supernode)
            if _layout_conflicts(layout, topology):
                layout = auto_layout(topology, nodes_per_supernode)
        if layout.num_chips != nodes_per_supernode:
            raise ClusterError("layout chip count mismatch")

        spec = SupernodeSpec(tuple(NodeSpec(memory_bytes)
                                   for _ in range(nodes_per_supernode)))
        self.amap: GlobalAddressMap = assign_addresses(
            topology, [spec] * topology.num_supernodes)

        # Boards.
        self.boards: List[Board] = [
            Board(self.sim, f"b{s}", layout=layout, memory_bytes=memory_bytes,
                  timing=timing, skew_tolerance_ns=skew_tolerance_ns)
            for s in range(topology.num_supernodes)
        ]

        # TCC links between boards.
        self.tcc_links = []
        for e in topology.edges:
            la = self.boards[e.a.supernode].chips[e.a.node]
            lb = self.boards[e.b.supernode].chips[e.b.node]
            link = wire_link(
                self.sim, la, e.a.port, lb, e.b.port,
                name=f"tcc{e.a.supernode}.{e.a.node}p{e.a.port}--"
                     f"{e.b.supernode}.{e.b.node}p{e.b.port}",
                timing=timing, ber=link_ber,
                skew_tolerance_ns=skew_tolerance_ns,
            )
            self.tcc_links.append(link)

        # Firmware plans.
        self.reset_rail = Barrier(self.sim, parties=len(self.boards),
                                  name="reset-rail")
        self.firmwares: List[TCClusterFirmware] = []
        for s, board in enumerate(self.boards):
            tcc_ports = [
                (e.end_at(s).node, e.end_at(s).port)
                for e in topology.edges
                if s in (e.a.supernode, e.b.supernode)
            ]
            plan = BoardPlan(
                rank=s,
                node_plans=[self.amap.plan_for(s, ci)
                            for ci in range(len(board.chips))],
                tcc_ports=tcc_ports,
                link_width=timing.link_width_bits,
                gbit_per_lane=timing.link_gbit_per_lane,
            )
            self.firmwares.append(TCClusterFirmware(board, plan, self.reset_rail))

        # Ranks: one per chip, in (supernode, chip) order.
        self.ranks: List[RankInfo] = []
        for s, board in enumerate(self.boards):
            for ci, chip in enumerate(board.chips):
                base, limit = self.amap.node_range(s, ci)
                self.ranks.append(
                    RankInfo(len(self.ranks), s, ci, chip, base, limit)
                )

        self.reports: List[BootReport] = []
        self.kernels: List[Kernel] = []
        self._libs: Dict[int, MessageLibrary] = {}
        self.ready = False

    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self.ranks)

    def rank_of(self, supernode: int, chip_index: int = 0) -> int:
        for r in self.ranks:
            if r.supernode == supernode and r.chip_index == chip_index:
                return r.rank
        raise ClusterError(f"no rank for supernode {supernode} chip {chip_index}")

    def rank_ranges(self) -> List[Tuple[int, int]]:
        return [(r.base, r.limit) for r in self.ranks]

    # ------------------------------------------------------------------
    def boot(self) -> "TCCluster":
        """Run firmware + OS boot to completion (advances the simulator)."""
        if self.ready:
            return self
        fw_procs = [self.sim.process(fw.boot(), name=f"fw{b}")
                    for b, fw in enumerate(self.firmwares)]
        self.sim.run_until_event(self.sim.all_of(fw_procs))
        self.reports = [p.value for p in fw_procs]

        gb, gl = self.amap.base, self.amap.limit
        k_procs = []
        for s, board in enumerate(self.boards):
            kernel = Kernel(board, self.reports[s], custom=True)
            node_ranges = {
                ci: self.amap.node_range(s, ci)
                for ci in range(len(board.chips))
            }
            self.kernels.append(kernel)
            k_procs.append(
                self.sim.process(kernel.boot(gb, gl, node_ranges), name=f"os{s}")
            )
        self.sim.run_until_event(self.sim.all_of(k_procs))
        self.ready = True
        return self

    # ------------------------------------------------------------------
    def spawn_process(self, rank: int, name: Optional[str] = None,
                      core_index: int = 0) -> UserProcess:
        self._require_ready()
        info = self.ranks[rank]
        kernel = self.kernels[info.supernode]
        return kernel.spawn(name or f"proc-r{rank}",
                            chip_index=info.chip_index, core_index=core_index)

    def library(self, rank: int, proc: Optional[UserProcess] = None,
                core_index: int = 0) -> MessageLibrary:
        """The message library of ``rank`` (created on first use)."""
        self._require_ready()
        lib = self._libs.get(rank)
        if lib is not None:
            return lib
        info = self.ranks[rank]
        proc = proc or self.spawn_process(rank, core_index=core_index)
        driver = self.kernels[info.supernode].driver_for(info.chip_index)
        lib = MessageLibrary(proc, driver, rank, self.rank_ranges(), self.msg_cfg)
        self._libs[rank] = lib
        return lib

    def _require_ready(self) -> None:
        if not self.ready:
            raise ClusterError("call boot() first")

    # ------------------------------------------------------------------
    # Fault orchestration (see repro.faults)
    # ------------------------------------------------------------------
    def crash_node(self, rank: int) -> None:
        """Hard-stop ``rank``'s chip: every HT port (coherent, TCC and
        southbridge alike) drops at once, NAK'ing in-flight packets back
        to their senders, and all volatile on-chip state is lost --
        cached line copies, open write-combining buffers, queued posted
        writes and the message library's unacknowledged retransmit
        images (DESIGN.md section 14's lost-state model).  Local DRAM,
        and with it the msglib rings and feedback lines, survives.  The
        node stays down until :meth:`rejoin_node` warm-resets it back
        in; reliable endpoints then resynchronize through the in-band
        session handshake on their next send."""
        self._require_ready()
        info = self.ranks[rank]
        for binding in info.chip.ports.values():
            if binding.link.state != LinkState.DOWN:
                binding.link.bring_down()
        fc = fault_counters(self.sim)
        lines, wc_bytes, posted = info.chip.discard_volatile_state()
        fc.crash_lines_discarded += lines
        fc.crash_wc_bytes_discarded += wc_bytes
        fc.crash_packets_discarded += posted
        lib = self._libs.get(rank)
        if lib is not None:
            for ep in lib.endpoints():
                fc.crash_slots_discarded += ep.crash_discard()
        fc.node_crashes += 1

    def rejoin_node(self, rank: int):
        """Warm-reset rejoin of a crashed ``rank`` (a sim process).

        Re-runs the firmware link bring-up for the chip's ports through
        the same warm-reset path cold boot used, restoring the
        registered width/frequency personas.  Permanently dead TCC links
        are skipped -- they stay routed-around."""
        self._require_ready()
        info = self.ranks[rank]
        yield from self.firmwares[info.supernode].warm_rejoin(info.chip_index)
        fault_counters(self.sim).node_rejoins += 1

    def run(self, *args, **kwargs):
        return self.sim.run(*args, **kwargs)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        return metrics_for(self.sim)

    def enable_metrics(self) -> MetricsRegistry:
        """Turn on metrics collection for everything in this simulator.

        Cheap per-link/per-endpoint counters (packets, bytes, busy time,
        stalls) are always maintained; enabling adds the registry-backed
        series -- latency histograms, occupancy accumulators -- that cost
        a little per event.  Raises ``SimulationError`` while a macro
        window is open (see :func:`repro.obs.metrics.enable_metrics`)."""
        return enable_metrics(self.sim)

    def _all_links(self):
        """Every Link in the cluster (TCC cables + board-internal
        coherent links), deduplicated, in a stable order."""
        seen = {}
        for board in self.boards:
            for chip in board.chips:
                for binding in chip.ports.values():
                    link = binding.link
                    if id(link) not in seen:
                        seen[id(link)] = link
        return sorted(seen.values(), key=lambda l: l.name)

    def metrics(self) -> Dict:
        """One JSON-ready snapshot of the whole cluster.

        Always includes per-link counters/utilization, per-endpoint
        message counts and northbridge/write-combining counters; the
        latency histogram and occupancy averages carry data only for the
        portion of the run executed after :meth:`enable_metrics`."""
        now = self.sim.now
        reg = self.registry
        endpoints: Dict[str, Dict] = {}
        for lib in self._libs.values():
            endpoints.update(lib.metrics())
        wc: Dict[str, Dict[str, int]] = {}
        nb: Dict[str, Dict[str, int]] = {}
        for board in self.boards:
            for chip in board.chips:
                nb[chip.name] = chip.nb.counters.as_dict()
                wc[chip.name] = {
                    "fills": sum(c.wc.fills for c in chip.cores),
                    "full_flushes": sum(c.wc.full_flushes for c in chip.cores),
                    "partial_flushes": sum(c.wc.partial_flushes
                                           for c in chip.cores),
                    "evictions": sum(c.wc.evictions for c in chip.cores),
                }
        latency = reg.histograms.get("msglib.message_latency_ns")
        return {
            "time_ns": now,
            "links": {l.name: l.metrics(now) for l in self._all_links()},
            "tcc_links": [l.name for l in self.tcc_links],
            "endpoints": endpoints,
            "northbridges": nb,
            "write_combining": wc,
            "message_latency_ns": (latency.to_dict() if latency is not None
                                   else {"count": 0}),
            "faults": fault_counters(self.sim).as_dict(),
            "collectives": collective_counters(self.sim).as_dict(),
            "registry": reg.snapshot(now),
        }

    def metrics_report(self, fmt: str = "text") -> str:
        """Human-readable (or JSON) rendition of :meth:`metrics`."""
        return format_report(self.metrics(), fmt=fmt)
