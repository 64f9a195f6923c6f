"""Shared fixtures/helpers: a hand-configured two-node TCCluster.

The firmware package automates this configuration later; these helpers
program the registers directly so the datapath can be tested in isolation.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from unittest import mock

from repro.opteron import MemoryType, OpteronChip, wire_link
from repro.opteron.registers import GRANULARITY
from repro.sim import Simulator
from repro.util.calibration import DEFAULT_TIMING
from repro.util.units import MiB

NODE_MEM = 256 * MiB
assert NODE_MEM % GRANULARITY == 0


@dataclass
class TccPair:
    sim: Simulator
    chip0: OpteronChip
    chip1: OpteronChip
    link: object

    @property
    def chips(self):
        return (self.chip0, self.chip1)


def make_tcc_pair(timing=DEFAULT_TIMING, activate: bool = True, **link_kw) -> TccPair:
    """Two chips, one TCC link on port 0 of each, registers programmed by
    hand exactly as the firmware's Northbridge-Init step would:

    * global address space: node0 DRAM [0, 256M), node1 DRAM [256M, 512M),
    * each node: NodeID 0, own range as DRAM entry, other range as MMIO
      entry with DstNode=0 (self) and DstLink=0 (the TCC port),
    * MTRRs: remote window WC (transmit), local window left WB by default
      (tests set UC where polling correctness matters).
    """
    sim = Simulator()
    chip0 = OpteronChip(sim, "node0", memory_bytes=NODE_MEM, timing=timing)
    chip1 = OpteronChip(sim, "node1", memory_bytes=NODE_MEM, timing=timing)
    link = wire_link(sim, chip0, 0, chip1, 0, name="tcc", timing=timing, **link_kw)

    for chip, base in ((chip0, 0), (chip1, NODE_MEM)):
        chip.node_id_reg().nodeid = 0
        chip.dram_pair(0).program(base, base + NODE_MEM, dst_node=0)
        remote_base = NODE_MEM - base  # the other node's range
        chip.mmio_pair(0).program(remote_base, remote_base + NODE_MEM,
                                  dst_node=0, dst_link=0)
        chip.dram_config().program(NODE_MEM)
        # Transmit path: remote window is write-combining.
        chip.mtrr.add(remote_base, NODE_MEM, MemoryType.WC)
        chip.nb.validate()

    if activate:
        link.set_rate(timing.link_width_bits, timing.link_gbit_per_lane)
        link.activate("noncoherent")
    chip0.start()
    chip1.start()
    return TccPair(sim, chip0, chip1, link)


def system_chips(system):
    """Every chip of a booted system: a ``TCClusterSystem``, a
    ``TCCluster``, a single-board prototype, a :class:`TccPair` or a
    list of the chips of one simulator."""
    if isinstance(system, list):
        return system
    if isinstance(system, TccPair):
        return list(system.chips)
    cluster = getattr(system, "cluster", system)
    boards = cluster.boards if hasattr(cluster, "boards") else [system.board]
    return [chip for board in boards for chip in board.chips]


def system_links(system):
    """Every link attached to a chip of ``system``, by name."""
    links = {}
    for chip in system_chips(system):
        for binding in chip.ports.values():
            links.setdefault(binding.link.name, binding.link)
    return [links[name] for name in sorted(links)]


def assert_drained(system) -> None:
    """Conservation audit after ``sim.run()`` has drained the calendar:
    every credit is home, no TX queue, rx store or posted queue holds a
    packet, no serializer is held, and no cancelled entry or macro
    window is left behind."""
    chips = system_chips(system)
    sim = chips[0].sim
    for link in system_links(system):
        for side, d in link._dirs.items():
            where = f"{link.name}.{side}"
            for vc, pool in d.credits.items():
                assert pool.credits == pool.initial, (
                    f"{where}: {vc.name} credits {pool.credits} of "
                    f"{pool.initial}")
            for vc, q in d.txq.items():
                assert not len(q) and not q._putters, (
                    f"{where}: {vc.name} TX queue holds {len(q)}")
            assert not len(d.rx), f"{where}: rx store holds {len(d.rx)}"
            assert not d.phy.in_use, f"{where}: serializer held"
    for chip in chips:
        q = chip.nb.posted_q
        assert not len(q) and not q._putters, (
            f"{chip.name}: posted queue holds {len(q)}")
    assert not sim._cancelled, f"cancelled entries left: {sim._cancelled}"
    assert not sim._windows, f"macro windows left open: {list(sim._windows)}"


@contextlib.contextmanager
def count_span_lines():
    """Count the lines committed through commit spans while the block
    runs: each span's final ``K`` when it detaches.  Yields a one-item
    list holding the count (see :func:`assert_conserved`)."""
    from repro.sim.flows import CommitSpan

    lines = [0]
    orig = CommitSpan.detach

    def detach(span):
        if not span._detached:
            lines[0] += span.K
        orig(span)

    with mock.patch.object(CommitSpan, "detach", detach):
        yield lines


def assert_conserved(slow, fast) -> None:
    """Every line is built as a packet once, unless a commit span carries
    it to DRAM (:func:`count_span_lines`): a demotion that builds a line
    twice, or drops one, breaks the count.  ``slow`` and ``fast`` hold
    the ``packets_alloc`` and ``span_lines`` of a per-packet and a
    fast run."""
    assert slow["span_lines"] == 0
    assert slow["packets_alloc"] == fast["packets_alloc"] + fast["span_lines"], (
        f"packets built: {slow['packets_alloc']} per packet, "
        f"{fast['packets_alloc']} + {fast['span_lines']} span lines fast")
