"""A board (*Supernode*): 1..8 Opterons, internal coherent links, one
southbridge on the boot-strap processor.

Paper Section IV.E: "A Supernode consists of four or eight processors
which are interconnected through coherent HyperTransport links and form a
shared memory system ... Each Supernode contains a southbridge connected
to the BSP which configures the other application processors."

The prototype board (Tyan S2912E, Section V) is the two-chip instance:
node0 -- node1 coherent link, southbridge on node0, HTX (the TCC port) on
node1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ht.link import Link
from ..opteron import OpteronChip, wire_link
from ..sim import Event, Simulator
from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import MiB
from .southbridge import Southbridge

__all__ = ["Board", "BoardError", "TYAN_S2912E"]


class BoardError(RuntimeError):
    """Board construction / reset sequencing error."""


@dataclass(frozen=True)
class BoardLayout:
    """Port plan of a board model."""

    num_chips: int
    #: internal coherent edges: (chip_a, port_a, chip_b, port_b)
    coherent_edges: Tuple[Tuple[int, int, int, int], ...]
    #: southbridge attach point: (chip, port), or None for headless boards
    sb_attach: Optional[Tuple[int, int]]


#: The prototype's board: two sockets, one coherent link between them (the
#: second inter-socket link is left for the single-board TCC experiment),
#: southbridge on node0 port 0, HTX slot reachable from node1.
TYAN_S2912E = BoardLayout(
    num_chips=2,
    coherent_edges=((0, 3, 1, 3),),
    sb_attach=(0, 0),
)


def single_chip_layout(sb_port: Optional[int] = None) -> BoardLayout:
    """One-processor supernode; ``sb_port=None`` models a headless blade
    whose ROM hangs off a shared management path (frees all 4 HT ports for
    TCC links, needed by interior mesh positions)."""
    return BoardLayout(
        num_chips=1,
        coherent_edges=(),
        sb_attach=(0, sb_port) if sb_port is not None else None,
    )


class Board:
    """The physical supernode: chips + internal links + southbridge."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        layout: BoardLayout = TYAN_S2912E,
        memory_bytes: int = 256 * MiB,
        timing: TimingModel = DEFAULT_TIMING,
        skew_tolerance_ns: float = 100.0,
    ):
        self.sim = sim
        self.name = name
        self.layout = layout
        self.timing = timing
        self.chips: List[OpteronChip] = [
            OpteronChip(sim, f"{name}.n{i}", memory_bytes=memory_bytes, timing=timing)
            for i in range(layout.num_chips)
        ]
        self.internal_links: List[Link] = []
        for (ca, pa, cb, pb) in layout.coherent_edges:
            link = wire_link(
                sim, self.chips[ca], pa, self.chips[cb], pb,
                name=f"{name}.cht{ca}-{cb}", timing=timing,
                skew_tolerance_ns=skew_tolerance_ns,
            )
            self.internal_links.append(link)
        self.southbridge: Optional[Southbridge] = None
        if layout.sb_attach is not None:
            chip_idx, port = layout.sb_attach
            self.southbridge = Southbridge(sim, name=f"{name}.sb")
            wire_link(
                sim, self.chips[chip_idx], port, self.southbridge, 0,
                name=f"{name}.sblink", timing=timing,
                skew_tolerance_ns=skew_tolerance_ns,
            )

    @property
    def bsp(self) -> OpteronChip:
        """The boot-strap processor (always chip 0 in this model)."""
        return self.chips[0]

    def assert_cold_reset(self) -> List[Event]:
        """Power-on: every device asserts cold reset on every attached
        link; returns the per-link training events."""
        events: List[Event] = []
        for chip in self.chips:
            chip.regs.reset(cold=True)
            chip.caches.flush_all()
            chip.mtrr.clear()
            for binding in chip.ports.values():
                ev = binding.fsm.assert_reset(binding.side, "cold")
                ev.add_callback(chip._make_status_updater(binding))
                events.append(ev)
        if self.southbridge is not None:
            events.append(self.southbridge.assert_reset("cold"))
        return events

    def assert_warm_reset(self) -> List[Event]:
        """The platform warm-reset rail: every chip applies pending link
        config and retrains; the southbridge participates too."""
        events: List[Event] = []
        for chip in self.chips:
            events.extend(chip._issue_warm_reset())
        if self.southbridge is not None:
            events.append(self.southbridge.assert_reset("warm"))
        return events

    def start(self) -> None:
        for chip in self.chips:
            chip.start()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Board {self.name} chips={len(self.chips)}>"
