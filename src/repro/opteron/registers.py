"""BKDG-style configuration register file of one Opteron node.

Firmware configures a Fam 10h processor exclusively through PCI-config-space
registers grouped into *functions* of device 24+NodeID (the AMD "BIOS and
Kernel Developer's Guide" the paper cites as reference [17]):

* **F0** -- HT configuration: NodeID, routing tables, link control,
  HT init control (warm reset),
* **F1** -- address maps: DRAM base/limit pairs, MMIO base/limit pairs,
* **F2** -- DRAM controller,
* **F3** -- miscellaneous control (interrupt/system-management gating).

Our layouts are 32-bit and BKDG-shaped, with two documented deviations for
clarity (see DESIGN.md): base/limit registers carry address bits [47:24]
(16 MiB granularity) in bits [31:8] so that 48-bit physical addressing fits
a single register, and the *force non-coherent* debug bit the paper
exploits is modeled as bit 4 of each Link Control register.

The register file is the **single source of truth**: the northbridge
decodes its routing behaviour from these values, and the simulated chips
apply side effects (link retraining, warm reset) through write hooks --
exactly the contract real firmware programs against.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Tuple

from ..util.bitfield import get_bits, set_bits

__all__ = [
    "Function",
    "RegisterFile",
    "NodeIDAccessor",
    "RoutingTableAccessor",
    "LinkControlAccessor",
    "DramPairAccessor",
    "MmioPairAccessor",
    "DramConfigAccessor",
    "MiscControlAccessor",
    "HtInitControlAccessor",
    "GRANULARITY",
    "NUM_LINKS",
    "NUM_MAP_ENTRIES",
    "NUM_MMIO_ENTRIES",
    "RESET_NODEID",
]

#: Address-map granularity: bases/limits are multiples of 16 MiB.
GRANULARITY = 1 << 24
#: Opteron K10: "up to four outgoing HyperTransport links" (paper Sec. III).
NUM_LINKS = 4
#: Eight DRAM base/limit pairs (BKDG F1).
NUM_MAP_ENTRIES = 8
#: MMIO base/limit pairs.  The BKDG ships eight; we model a 16-entry file
#: (F1 offsets 0x80..0xFC, clear of the DRAM pairs at 0x40..0x7C) because
#: dimension-ordered interval routing on a 3D torus can need up to nine
#: folded intervals per node (three runs per dimension) -- see DESIGN.md
#: "Scaling the address map".
NUM_MMIO_ENTRIES = 16
#: Paper Section IV.E: "After system reset each NodeID register in each AP
#: is initially set to seven."
RESET_NODEID = 7


class Function(enum.IntEnum):
    HT_CONFIG = 0
    ADDRESS_MAP = 1
    DRAM_CTRL = 2
    MISC = 3


# F0 offsets
F0_ROUTING_BASE = 0x40       # + 4*i, i in 0..7
F0_NODEID = 0x60
F0_HT_INIT_CONTROL = 0x6C
F0_LINK_CONTROL_BASE = 0x84  # + 0x20*k
F0_LINK_FREQ_BASE = 0x88     # + 0x20*k

# F1 offsets
F1_DRAM_BASE = 0x40          # + 8*i
F1_DRAM_LIMIT = 0x44         # + 8*i
F1_MMIO_BASE = 0x80          # + 8*i
F1_MMIO_LIMIT = 0x84         # + 8*i

# F2 offsets
F2_DRAM_CONFIG = 0x80

# F3 offsets
F3_MISC_CONTROL = 0x70


class RegisterFile:
    """Sparse (function, offset) -> 32-bit value store with write hooks."""

    def __init__(self) -> None:
        self._regs: Dict[Tuple[int, int], int] = {}
        self._hooks: List[Callable[[int, int, int], None]] = []
        self._apply_reset_values()

    def _apply_reset_values(self) -> None:
        # NodeID starts at 7 (unvisited AP sentinel).
        self._regs[(Function.HT_CONFIG, F0_NODEID)] = RESET_NODEID
        # Routing tables: all destinations route to self (bit 0 of each
        # 5-bit route field: request, response, broadcast).
        for i in range(NUM_MAP_ENTRIES):
            self._regs[(Function.HT_CONFIG, F0_ROUTING_BASE + 4 * i)] = 0x00010101
        # Links enabled, not yet trained coherent.
        for k in range(NUM_LINKS):
            self._regs[(Function.HT_CONFIG, F0_LINK_CONTROL_BASE + 0x20 * k)] = 0x1

    def reset(self, cold: bool = True) -> None:
        """Cold reset restores power-on values; warm reset preserves them
        (that asymmetry is what the TCCluster boot sequence exploits)."""
        if cold:
            self._regs.clear()
            self._apply_reset_values()

    def read(self, func: int, offset: int) -> int:
        return self._regs.get((int(func), int(offset)), 0)

    def write(self, func: int, offset: int, value: int) -> None:
        if not 0 <= value < (1 << 32):
            raise ValueError(f"register value {value:#x} exceeds 32 bits")
        self._regs[(int(func), int(offset))] = value
        for hook in self._hooks:
            hook(int(func), int(offset), value)

    def rmw(self, func: int, offset: int, lo: int, width: int, field: int) -> None:
        """Read-modify-write one field."""
        self.write(func, offset, set_bits(self.read(func, offset), lo, width, field))

    def field(self, func: int, offset: int, lo: int, width: int) -> int:
        return get_bits(self.read(func, offset), lo, width)

    def add_write_hook(self, fn: Callable[[int, int, int], None]) -> None:
        self._hooks.append(fn)


# ---------------------------------------------------------------------------
# Typed accessors: each wraps one architectural register (group).
# ---------------------------------------------------------------------------

def _addr_to_field(addr: int, what: str) -> int:
    if addr % GRANULARITY:
        raise ValueError(
            f"{what} {addr:#x} not aligned to the 16 MiB address-map granularity"
        )
    if addr < 0 or addr >= (1 << 48):
        raise ValueError(f"{what} {addr:#x} outside the 48-bit physical space")
    return addr >> 24


class NodeIDAccessor:
    """F0x60: NodeId [2:0], NodeCnt [6:4] (nodes in the coherent fabric -1)."""

    def __init__(self, regs: RegisterFile):
        self.regs = regs

    @property
    def nodeid(self) -> int:
        return self.regs.field(Function.HT_CONFIG, F0_NODEID, 0, 3)

    @nodeid.setter
    def nodeid(self, v: int) -> None:
        if not 0 <= v < 8:
            raise ValueError(f"NodeID {v} out of 0..7")
        self.regs.rmw(Function.HT_CONFIG, F0_NODEID, 0, 3, v)

    @property
    def nodecnt(self) -> int:
        return self.regs.field(Function.HT_CONFIG, F0_NODEID, 4, 3)

    @nodecnt.setter
    def nodecnt(self, v: int) -> None:
        if not 0 <= v < 8:
            raise ValueError(f"NodeCnt {v} out of 0..7")
        self.regs.rmw(Function.HT_CONFIG, F0_NODEID, 4, 3, v)


class RoutingTableAccessor:
    """F0x40+4i: per-destination-NodeID route masks.

    Each 5-bit mask: bit 0 = deliver to self, bit 1+k = forward on link k.
    Fields: request [4:0], response [12:8], broadcast [20:16].
    """

    def __init__(self, regs: RegisterFile, dest_node: int):
        if not 0 <= dest_node < NUM_MAP_ENTRIES:
            raise ValueError(f"routing entry {dest_node} out of range")
        self.regs = regs
        self.offset = F0_ROUTING_BASE + 4 * dest_node

    def _get(self, lo: int) -> int:
        return self.regs.field(Function.HT_CONFIG, self.offset, lo, 5)

    def _set(self, lo: int, v: int) -> None:
        if not 0 <= v < 32:
            raise ValueError(f"route mask {v:#x} out of 5-bit range")
        self.regs.rmw(Function.HT_CONFIG, self.offset, lo, 5, v)

    request = property(lambda s: s._get(0), lambda s, v: s._set(0, v))
    response = property(lambda s: s._get(8), lambda s, v: s._set(8, v))
    broadcast = property(lambda s: s._get(16), lambda s, v: s._set(16, v))

    @staticmethod
    def to_self() -> int:
        return 0b00001

    @staticmethod
    def to_link(k: int) -> int:
        if not 0 <= k < NUM_LINKS:
            raise ValueError(f"link index {k} out of range")
        return 1 << (k + 1)


class LinkControlAccessor:
    """F0x84+0x20k: bit0 enabled, bit1 trained-coherent (RO status),
    bit2 end-of-chain, bit4 **force non-coherent** (the debug bit the paper
    exploits), bit5 TCC-designated (firmware bookkeeping)."""

    def __init__(self, regs: RegisterFile, link: int):
        if not 0 <= link < NUM_LINKS:
            raise ValueError(f"link index {link} out of range")
        self.regs = regs
        self.link = link
        self.offset = F0_LINK_CONTROL_BASE + 0x20 * link

    def _bit(self, bit: int) -> bool:
        return bool(self.regs.field(Function.HT_CONFIG, self.offset, bit, 1))

    def _set_bit(self, bit: int, v: bool) -> None:
        self.regs.rmw(Function.HT_CONFIG, self.offset, bit, 1, int(v))

    enabled = property(lambda s: s._bit(0), lambda s, v: s._set_bit(0, v))
    coherent = property(lambda s: s._bit(1), lambda s, v: s._set_bit(1, v))
    end_of_chain = property(lambda s: s._bit(2), lambda s, v: s._set_bit(2, v))
    force_noncoherent = property(lambda s: s._bit(4), lambda s, v: s._set_bit(4, v))
    tcc_designated = property(lambda s: s._bit(5), lambda s, v: s._set_bit(5, v))


class LinkFreqAccessor:
    """F0x88+0x20k: width [5:0] bits, frequency [15:8] in 100 Mbit/s/lane
    units (pending values, applied at the next warm reset)."""

    def __init__(self, regs: RegisterFile, link: int):
        self.regs = regs
        self.offset = F0_LINK_FREQ_BASE + 0x20 * link

    @property
    def width_bits(self) -> int:
        return self.regs.field(Function.HT_CONFIG, self.offset, 0, 6)

    @width_bits.setter
    def width_bits(self, v: int) -> None:
        self.regs.rmw(Function.HT_CONFIG, self.offset, 0, 6, v)

    @property
    def gbit_per_lane(self) -> float:
        return self.regs.field(Function.HT_CONFIG, self.offset, 8, 8) / 10.0

    @gbit_per_lane.setter
    def gbit_per_lane(self, v: float) -> None:
        self.regs.rmw(Function.HT_CONFIG, self.offset, 8, 8, round(v * 10))


class HtInitControlAccessor:
    """F0x6C: bit0 warm-reset request (self-clearing, side effect via the
    chip's write hook), bit4 ColdResetDet, bit5 BiosRstDet."""

    def __init__(self, regs: RegisterFile):
        self.regs = regs

    def request_warm_reset(self) -> None:
        self.regs.rmw(Function.HT_CONFIG, F0_HT_INIT_CONTROL, 0, 1, 1)

    @property
    def warm_reset_pending(self) -> bool:
        return bool(self.regs.field(Function.HT_CONFIG, F0_HT_INIT_CONTROL, 0, 1))

    def clear_warm_reset(self) -> None:
        self.regs.rmw(Function.HT_CONFIG, F0_HT_INIT_CONTROL, 0, 1, 0)


class DramPairAccessor:
    """F1x40/F1x44 + 8i: one DRAM range.

    Base: bit0 RE, bit1 WE, [31:8] base[47:24].
    Limit: [2:0] DstNode, [31:8] limit[47:24] (limit is *inclusive* of the
    16 MiB block it names, BKDG-style).
    """

    def __init__(self, regs: RegisterFile, index: int):
        if not 0 <= index < NUM_MAP_ENTRIES:
            raise ValueError(f"DRAM map entry {index} out of range")
        self.regs = regs
        self.base_off = F1_DRAM_BASE + 8 * index
        self.limit_off = F1_DRAM_LIMIT + 8 * index

    def program(self, base: int, limit: int, dst_node: int,
                re: bool = True, we: bool = True) -> None:
        """Map [base, limit) to DRAM homed at ``dst_node``.

        ``limit`` is exclusive at 16 MiB granularity (we convert to the
        inclusive encoding internally).
        """
        if limit <= base:
            raise ValueError(f"empty DRAM range [{base:#x}, {limit:#x})")
        b = _addr_to_field(base, "DRAM base")
        l = _addr_to_field(limit, "DRAM limit") - 1
        if not 0 <= dst_node < 8:
            raise ValueError(f"DstNode {dst_node} out of 0..7")
        base_val = (b << 8) | (int(we) << 1) | int(re)
        limit_val = (l << 8) | dst_node
        self.regs.write(Function.ADDRESS_MAP, self.base_off, base_val)
        self.regs.write(Function.ADDRESS_MAP, self.limit_off, limit_val)

    def disable(self) -> None:
        self.regs.write(Function.ADDRESS_MAP, self.base_off, 0)
        self.regs.write(Function.ADDRESS_MAP, self.limit_off, 0)

    @property
    def enabled(self) -> bool:
        return bool(self.regs.field(Function.ADDRESS_MAP, self.base_off, 0, 2))

    @property
    def base(self) -> int:
        return self.regs.field(Function.ADDRESS_MAP, self.base_off, 8, 24) << 24

    @property
    def limit(self) -> int:
        """Exclusive limit."""
        return (self.regs.field(Function.ADDRESS_MAP, self.limit_off, 8, 24) + 1) << 24

    @property
    def dst_node(self) -> int:
        return self.regs.field(Function.ADDRESS_MAP, self.limit_off, 0, 3)


class MmioPairAccessor:
    """F1x80/F1x84 + 8i: one MMIO range.

    Base: bit0 RE, bit1 WE, bit2 NP (non-posted allowed), [31:8] base[47:24].
    Limit: [2:0] DstNode, [6:4] DstLink, [31:8] limit[47:24] inclusive.

    The TCCluster trick (paper Section IV.C): program DstNode = 0 = own
    NodeID so the northbridge believes it is the home node and forwards
    straight out of DstLink.
    """

    def __init__(self, regs: RegisterFile, index: int):
        if not 0 <= index < NUM_MMIO_ENTRIES:
            raise ValueError(f"MMIO map entry {index} out of range")
        self.regs = regs
        self.base_off = F1_MMIO_BASE + 8 * index
        self.limit_off = F1_MMIO_LIMIT + 8 * index

    def program(self, base: int, limit: int, dst_node: int, dst_link: int,
                re: bool = True, we: bool = True, nonposted: bool = False) -> None:
        if limit <= base:
            raise ValueError(f"empty MMIO range [{base:#x}, {limit:#x})")
        b = _addr_to_field(base, "MMIO base")
        l = _addr_to_field(limit, "MMIO limit") - 1
        if not 0 <= dst_node < 8:
            raise ValueError(f"DstNode {dst_node} out of 0..7")
        if not 0 <= dst_link < NUM_LINKS:
            raise ValueError(f"DstLink {dst_link} out of range")
        base_val = (b << 8) | (int(nonposted) << 2) | (int(we) << 1) | int(re)
        limit_val = (l << 8) | (dst_link << 4) | dst_node
        self.regs.write(Function.ADDRESS_MAP, self.base_off, base_val)
        self.regs.write(Function.ADDRESS_MAP, self.limit_off, limit_val)

    def disable(self) -> None:
        self.regs.write(Function.ADDRESS_MAP, self.base_off, 0)
        self.regs.write(Function.ADDRESS_MAP, self.limit_off, 0)

    @property
    def enabled(self) -> bool:
        return bool(self.regs.field(Function.ADDRESS_MAP, self.base_off, 0, 2))

    @property
    def nonposted_allowed(self) -> bool:
        return bool(self.regs.field(Function.ADDRESS_MAP, self.base_off, 2, 1))

    @property
    def base(self) -> int:
        return self.regs.field(Function.ADDRESS_MAP, self.base_off, 8, 24) << 24

    @property
    def limit(self) -> int:
        return (self.regs.field(Function.ADDRESS_MAP, self.limit_off, 8, 24) + 1) << 24

    @property
    def dst_node(self) -> int:
        return self.regs.field(Function.ADDRESS_MAP, self.limit_off, 0, 3)

    @property
    def dst_link(self) -> int:
        return self.regs.field(Function.ADDRESS_MAP, self.limit_off, 4, 3)


class DramConfigAccessor:
    """F2x80: bit0 initialized, [16:1] size in 16 MiB units."""

    def __init__(self, regs: RegisterFile):
        self.regs = regs

    @property
    def initialized(self) -> bool:
        return bool(self.regs.field(Function.DRAM_CTRL, F2_DRAM_CONFIG, 0, 1))

    @property
    def size(self) -> int:
        return self.regs.field(Function.DRAM_CTRL, F2_DRAM_CONFIG, 1, 16) << 24

    def program(self, size: int) -> None:
        if size % GRANULARITY:
            raise ValueError(f"DRAM size {size:#x} not a 16 MiB multiple")
        self.regs.write(
            Function.DRAM_CTRL, F2_DRAM_CONFIG, ((size >> 24) << 1) | 1
        )


class MiscControlAccessor:
    """F3x70: bit0 SMC/interrupt-broadcast generation enabled (reset 1).

    The custom kernel's job (paper Section VI): "all system management
    calls (SMC) need to be disabled which can be only achieved with a
    custom kernel."
    """

    def __init__(self, regs: RegisterFile):
        self.regs = regs

    @property
    def smc_enabled(self) -> bool:
        val = self.regs.read(Function.MISC, F3_MISC_CONTROL)
        if not self.regs.field(Function.MISC, F3_MISC_CONTROL, 8, 1):
            # Register never written: reset default is enabled.  Bit 8 is a
            # written-marker we keep internally.
            return True
        return bool(val & 1)

    @smc_enabled.setter
    def smc_enabled(self, v: bool) -> None:
        self.regs.write(Function.MISC, F3_MISC_CONTROL, (1 << 8) | int(v))
