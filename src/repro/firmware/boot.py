"""The TCCluster boot sequence -- the paper's Section V, step by step.

:class:`TCClusterFirmware` drives one board (supernode) through the
modified-coreboot sequence:

  Cold Reset -> Coherent Enumeration -> Force Non-Coherent -> Warm Reset
  -> Northbridge Init -> CPU MSR Init -> Memory Init -> EXIT CAR
  -> Non-Coherent Enumeration -> Post Initialization -> (Load OS)

Steps are stage-checked: invoking them out of order raises
:class:`FirmwareError`, and the sequence *verifies* its own effects (e.g.
after the warm reset every designated TCC link must actually be
non-coherent) so that omitting a step fails like it would on hardware.

Execution cost: until EXIT CAR the firmware runs in cache-as-RAM mode and
every step is charged ROM-fetch time ("the performance is limited by the
read bandwidth of the ROM"); afterwards steps run at DRAM speed.

Cross-board synchronization: the paper's prototype short-circuits reset
lines ("power them up simultaneously").  We model that rail as a
:class:`repro.sim.Barrier` shared by all boards: cold and warm resets are
issued only when every firmware instance has arrived, keeping link
training within the skew window regardless of per-board plan differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..opteron import MemoryType, OpteronChip
from ..opteron.mtrr import MTRRError
from ..opteron.registers import NUM_MAP_ENTRIES, NUM_MMIO_ENTRIES
from ..sim import AllOf, Barrier, Simulator
from ..topology.address_assignment import NodeMapPlan, _merge_ranges
from .board import Board
from .enumeration import EnumerationResult, coherent_enumeration
from .southbridge import Southbridge

__all__ = [
    "FirmwareError",
    "FirmwareContext",
    "BoardPlan",
    "BootReport",
    "TCClusterFirmware",
    "mtrr_cover",
]

#: Firmware "instructions" per step unit fetched from ROM in CAR mode.
CAR_STEP_BYTES = 64
RAM_STEP_NS = 2.0
#: On-board coherent links run HT3 speed after link optimization
#: (16 lanes x 2.6 Gbit/s = 5.2 bytes/ns).
INTERNAL_CHT_GBIT = 2.6


class FirmwareError(RuntimeError):
    """Boot sequence violation or failed verification."""


class FirmwareContext:
    """Execution-cost model: CAR (ROM-bound) vs RAM mode."""

    def __init__(self, sim: Simulator, southbridge: Optional[Southbridge]):
        self.sim = sim
        self.southbridge = southbridge
        self.mode = "car"
        self.steps_executed = 0

    def step(self, n: int = 1):
        """Charge ``n`` firmware step units (generator to yield from)."""
        self.steps_executed += n
        if self.mode == "car" and self.southbridge is not None:
            cost = n * self.southbridge.rom_read_ns(CAR_STEP_BYTES)
        else:
            cost = n * RAM_STEP_NS
        yield self.sim.timeout(cost)

    def exit_car(self) -> None:
        self.mode = "ram"


@dataclass
class BoardPlan:
    """What one board's firmware needs to know: its rank in the topology
    ("each BSP needs a topology description and its rank within that
    topology"), the per-node register programme, and the designated TCC
    ports with their target link rate."""

    rank: int
    node_plans: List[NodeMapPlan]
    #: (chip_index, port) pairs that are TCCluster links.
    tcc_ports: List[Tuple[int, int]] = field(default_factory=list)
    link_width: int = 16
    gbit_per_lane: float = 1.6
    #: where to shadow the firmware image after EXIT CAR (offset into the
    #: BSP's local DRAM).
    rom_shadow_offset: int = 0x10000


@dataclass
class BootReport:
    """Everything the OS loader learns from firmware."""

    board: Board
    enumeration: EnumerationResult
    stage_times: Dict[str, float] = field(default_factory=dict)
    nc_devices: List[object] = field(default_factory=list)
    tcc_links_verified: int = 0
    rom_shadow_addr: Optional[int] = None


def mtrr_cover(base: int, limit: int) -> List[Tuple[int, int]]:
    """Greedy decomposition of [base, limit) into MTRR-legal (base, size)
    power-of-two, size-aligned chunks."""
    if base < 0 or limit <= base:
        raise ValueError(f"bad range [{base:#x}, {limit:#x})")
    out: List[Tuple[int, int]] = []
    cur = base
    while cur < limit:
        max_fit = limit - cur
        size = 1 << (max_fit.bit_length() - 1)  # largest pow2 <= max_fit
        if cur:
            size = min(size, cur & -cur)  # must stay size-aligned
        out.append((cur, size))
        cur += size
    return out


_STAGES = [
    "cold_reset",
    "coherent_enumeration",
    "force_noncoherent",
    "warm_reset",
    "northbridge_init",
    "cpu_msr_init",
    "memory_init",
    "exit_car",
    "noncoherent_enumeration",
    "post_init",
]


class TCClusterFirmware:
    """One board's modified-coreboot instance."""

    def __init__(self, board: Board, plan: BoardPlan, reset_rail: Barrier):
        self.board = board
        self.plan = plan
        self.reset_rail = reset_rail
        self.sim = board.sim
        self.ctx = FirmwareContext(self.sim, board.southbridge)
        self.report = BootReport(board, EnumerationResult())
        self._stage = 0
        if len(plan.node_plans) != len(board.chips):
            raise FirmwareError(
                f"{board.name}: plan has {len(plan.node_plans)} node plans "
                f"for {len(board.chips)} chips"
            )
        for (ci, port) in plan.tcc_ports:
            if ci >= len(board.chips):
                raise FirmwareError(f"TCC port on missing chip {ci}")

    # -- stage bookkeeping ---------------------------------------------------
    def _enter(self, stage: str) -> None:
        expected = _STAGES[self._stage]
        if stage != expected:
            raise FirmwareError(
                f"{self.board.name}: boot step {stage!r} out of order "
                f"(expected {expected!r})"
            )
        self._stage += 1

    def _mark(self, stage: str) -> None:
        self.report.stage_times[stage] = self.sim.now

    def _tcc_bindings(self):
        for (ci, port) in self.plan.tcc_ports:
            chip = self.board.chips[ci]
            binding = chip.ports.get(port)
            if binding is None:
                raise FirmwareError(
                    f"{chip.name}: designated TCC port {port} has no link"
                )
            yield chip, binding

    # -- the boot sequence ------------------------------------------------------
    def boot(self):
        """Run the full sequence; returns the :class:`BootReport`."""
        yield from self.cold_reset()
        yield from self.do_coherent_enumeration()
        yield from self.force_noncoherent()
        yield from self.warm_reset()
        yield from self.northbridge_init()
        yield from self.cpu_msr_init()
        yield from self.memory_init()
        yield from self.do_exit_car()
        yield from self.noncoherent_enumeration()
        yield from self.post_init()
        return self.report

    def cold_reset(self):
        self._enter("cold_reset")
        self.board.start()
        yield self.reset_rail.arrive()  # synchronized power-up
        events = self.board.assert_cold_reset()
        if events:
            yield AllOf(self.sim, events)
        yield from self.ctx.step(8)  # low-level init / fetch reset vector
        self._mark("cold_reset")

    def do_coherent_enumeration(self):
        self._enter("coherent_enumeration")
        skip = {(self.board.chips[ci], port) for (ci, port) in self.plan.tcc_ports}
        result = yield from coherent_enumeration(
            self.ctx, self.board.bsp, skip_ports=skip,
            board_chips=self.board.chips,
        )
        if len(result.nodes) != len(self.board.chips):
            raise FirmwareError(
                f"{self.board.name}: enumerated {len(result.nodes)} nodes, "
                f"expected {len(self.board.chips)} -- coherent fabric broken?"
            )
        self.report.enumeration = result
        self._mark("coherent_enumeration")
        return result

    def force_noncoherent(self):
        """Write the debug register on our side of every TCC link and
        program link rates ("the link speed is increased"): TCC links to
        the plan rate, internal coherent links to full HT3 speed."""
        self._enter("force_noncoherent")
        tcc = {(ci, p) for (ci, p) in self.plan.tcc_ports}
        for chip, binding in self._tcc_bindings():
            ctl = chip.link_control(binding.port)
            ctl.force_noncoherent = True
            ctl.tcc_designated = True
            freq = chip.link_freq(binding.port)
            freq.width_bits = self.plan.link_width
            freq.gbit_per_lane = self.plan.gbit_per_lane
            yield from self.ctx.step(3)
        for ci, chip in enumerate(self.board.chips):
            for port, binding in chip.ports.items():
                if (ci, port) in tcc:
                    continue
                if binding.link.link_type != "coherent":
                    continue  # leave the southbridge link at its pace
                freq = chip.link_freq(port)
                freq.width_bits = 16
                freq.gbit_per_lane = INTERNAL_CHT_GBIT
                yield from self.ctx.step(1)
        self._mark("force_noncoherent")

    def warm_reset(self):
        self._enter("warm_reset")
        yield self.reset_rail.arrive()  # synchronized warm reset rail
        events = self.board.assert_warm_reset()
        if events:
            yield AllOf(self.sim, events)
        yield from self.ctx.step(4)
        # Verification: every designated TCC link must now be non-coherent,
        # every internal link must still be coherent.
        for chip, binding in self._tcc_bindings():
            if binding.link.link_type != "noncoherent":
                raise FirmwareError(
                    f"{chip.name} port {binding.port}: TCC link trained "
                    f"{binding.link.link_type!r} after warm reset -- was the "
                    "force-non-coherent debug register written?"
                )
            self.report.tcc_links_verified += 1
        tcc_ids = {(id(c), p) for (c, p) in
                   ((self.board.chips[ci], port) for (ci, port) in self.plan.tcc_ports)}
        for chip in self.board.chips:
            for port, binding in chip.ports.items():
                peer = getattr(binding.link, "attached", {}).get(
                    "B" if binding.side == "A" else "A"
                )
                if (id(chip), port) in tcc_ids:
                    continue
                if isinstance(peer, OpteronChip) and peer in self.board.chips:
                    if binding.link.link_type != "coherent":
                        raise FirmwareError(
                            f"{chip.name} port {port}: intra-board link lost "
                            "coherence at warm reset"
                        )
        self._mark("warm_reset")

    # -- fault recovery (outside the staged cold-boot sequence) --------------
    def warm_rejoin(self, chip_index: int):
        """Bring a crashed chip's links back through the warm-reset path.

        Used by :meth:`repro.cluster.system.TCCluster.rejoin_node`: the
        chip's registers survived (warm reset preserves state), so we
        re-apply each port's registered link persona and co-assert a
        warm retrain -- the same handshake the synchronized reset rail
        performed at boot, but scoped to one chip and *not* part of the
        ``_STAGES`` sequence (no ``_enter``).  Permanently dead TCC
        links are skipped; they stay routed-around.
        """
        chip = self.board.chips[chip_index]
        # Crash-consistency: write-combining buffers are not preserved
        # across a reset, so any residue is dropped before the links come
        # back -- pre-crash bytes leaking through a warm rejoin is
        # exactly the hole the lost-state model closes.  Normally a no-op
        # because ``crash_node`` already discarded the chip's volatile
        # state when the node went down.
        for core in chip.cores:
            core.wc.discard()
        events = []
        for binding in chip.ports.values():
            link = binding.link
            if getattr(link, "dead", False):
                continue
            ctl = chip.link_control(binding.port)
            freq = chip.link_freq(binding.port)
            fsm = binding.fsm
            fsm.set_force_noncoherent(binding.side, ctl.force_noncoherent)
            if freq.width_bits:
                fsm.program_rate(binding.side, freq.width_bits,
                                 freq.gbit_per_lane)
            # retrain() co-asserts both sides (short-circuited reset
            # lines), so the remote peer needs no firmware action.
            ev = fsm.retrain("warm")
            ev.add_callback(chip._make_status_updater(binding))
            events.append(ev)
        if events:
            yield AllOf(self.sim, events)
        yield from self.ctx.step(4)

    def northbridge_init(self):
        """Program DRAM/MMIO base-limit pairs per the address plan."""
        self._enter("northbridge_init")
        enum = self.report.enumeration
        for ci, chip in enumerate(self.board.chips):
            plan = self.plan.node_plans[ci]
            for i in range(NUM_MAP_ENTRIES):
                chip.dram_pair(i).disable()
            for i in range(NUM_MMIO_ENTRIES):
                chip.mmio_pair(i).disable()
            for i, d in enumerate(plan.dram):
                dst = enum.nodeid_of(self.board.chips[d.dst_node])
                chip.dram_pair(i).program(d.base, d.limit, dst_node=dst)
                yield from self.ctx.step(1)
            for i, m in enumerate(plan.mmio):
                dst = enum.nodeid_of(self.board.chips[m.exit_node])
                chip.mmio_pair(i).program(
                    m.base, m.limit, dst_node=dst, dst_link=m.exit_port
                )
                yield from self.ctx.step(1)
            chip.nb.validate()
        self._mark("northbridge_init")

    def cpu_msr_init(self):
        """MTRRs: map the TCC MMIO windows for combining transmit.

        The WC map only needs the *union* of the node's MMIO windows:
        the global space is contiguous and the local supernode slab is
        contiguous, so that union is at most two runs no matter how many
        folded exit windows the interval routing fragments into.
        """
        self._enter("cpu_msr_init")
        for ci, chip in enumerate(self.board.chips):
            plan = self.plan.node_plans[ci]
            chip.mtrr.clear()
            runs = _merge_ranges([(m.base, m.limit) for m in plan.mmio])
            blocks = [blk for b, l in runs for blk in mtrr_cover(b, l)]
            if len(blocks) + 4 > chip.mtrr.num_variable:
                # Fam 10h ships eight variable MTRRs; a torus-scale run
                # decomposes into more power-of-two blocks than that.
                # The custom kernel the paper mandates (Section VI) maps
                # these windows write-combining through the PAT instead,
                # which has no range-count limit -- modeled as lifted
                # headroom (+4 spare for the kernel's own UC windows).
                chip.mtrr.num_variable = len(blocks) + 4
            for base, size in blocks:
                try:
                    chip.mtrr.add(base, size, MemoryType.WC)
                except MTRRError as exc:
                    raise FirmwareError(
                        f"{chip.name}: TCC window [{base:#x},"
                        f"{base + size:#x}) does not fit the MTRRs: {exc}"
                    ) from exc
            for _ in runs:
                yield from self.ctx.step(1)
        self._mark("cpu_msr_init")

    def memory_init(self):
        self._enter("memory_init")
        for chip in self.board.chips:
            chip.dram_config().program(chip.memory.size)
            yield from self.ctx.step(6)  # DRAM training is slow
        self._mark("memory_init")

    def do_exit_car(self):
        """Shadow the ROM into the BSP's DRAM and switch execution there."""
        self._enter("exit_car")
        bsp = self.board.bsp
        sb = self.board.southbridge
        image = sb.rom if sb is not None else b"\x00" * 4096
        if sb is not None:
            # Fetch the image over the ROM interface one last time.
            yield self.sim.timeout(sb.rom_read_ns(len(image)))
        yield bsp.memctrl.write(self.plan.rom_shadow_offset, image)
        self.report.rom_shadow_addr = (
            self.plan.node_plans[0].local_dram_base() + self.plan.rom_shadow_offset
        )
        self.ctx.exit_car()
        yield from self.ctx.step(4)
        self._mark("exit_car")

    def noncoherent_enumeration(self):
        """Enumerate I/O devices on non-coherent links -- but *not* on the
        TCC links ("This needs to be disabled for each TCCluster link")."""
        self._enter("noncoherent_enumeration")
        tcc = {(id(self.board.chips[ci]), p) for (ci, p) in self.plan.tcc_ports}
        for chip in self.board.chips:
            for port, binding in sorted(chip.ports.items()):
                link = binding.link
                if link.state != "active" or link.link_type != "noncoherent":
                    continue
                if (id(chip), port) in tcc:
                    chip.nb.counters.inc("nc_enum_skipped_tcc")
                    continue
                peer = getattr(link, "attached", {}).get(
                    "B" if binding.side == "A" else "A"
                )
                if isinstance(peer, Southbridge):
                    self.report.nc_devices.append(peer)
                yield from self.ctx.step(2)
        self._mark("noncoherent_enumeration")

    def post_init(self):
        self._enter("post_init")
        yield from self.ctx.step(8)
        self._mark("post_init")
        return self.report
