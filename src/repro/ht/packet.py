"""HyperTransport packet model: commands, the fields the fabric reads,
and each packet's wire footprint.

The footprint is spec-inspired (HT I/O Link Specification rev 3.10, the
revision the paper cites): an 8-byte request header carrying
``Addr[39:2]``, an optional 4-byte address-extension doubleword for
addresses at or above 2^40 (HT3 64-bit addressing), dword-granular sized
writes of 1..16 dwords, and a per-packet CRC in retry mode.  No wire
image is built: serialization time needs only the byte count
(:meth:`Packet.wire_bytes`), and routing, tag matching and DRAM commit
read the fields directly.

Three packet classes matter for TCCluster (paper Section IV.A):

* **posted writes** -- the only transaction type a TCC link can carry,
* **non-posted reads** -- allocate a SrcTag in the response-matching table;
  *cannot* cross a TCC link because the matching table binds tags to
  NodeIDs (modeled in :mod:`repro.ht.tags`),
* **responses** -- routed by SrcTag, not by address.

Interrupts/system-management messages are HT ``Broadcast`` packets; the
custom kernel must keep them off TCC links (paper Section VI), which is why
they are modeled here too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Command",
    "VirtualChannel",
    "Packet",
    "PacketError",
    "PacketFactory",
    "factory_for",
    "make_posted_write",
    "make_read",
    "make_read_response",
    "make_broadcast",
    "ADDR_EXTENSION_THRESHOLD",
]

#: Addresses at or above this need the 4-byte extension doubleword.
ADDR_EXTENSION_THRESHOLD = 1 << 40
#: Maximum physical address width of current Opterons (paper Section IV.D:
#: "Current Opteron processors support a physical address space of 48 bits").
PHYS_ADDR_BITS = 48
MAX_PAYLOAD_DWORDS = 16


class PacketError(ValueError):
    """Malformed packet construction."""


class Command(enum.IntEnum):
    """The HT command codes (6 bits) the modelled fabric carries.  Values
    follow the spec groupings: 01xxxx sized read, 101xxx posted sized
    write, 110000 read response, 111010 broadcast."""

    READ = 0x11                   # sized read (dword)
    WRITE_POSTED = 0x29           # sized write (dword), posted
    WRITE_POSTED_BYTE = 0x2D      # sized write (byte-masked), posted
    READ_RESPONSE = 0x30
    BROADCAST = 0x3A              # interrupt / system management broadcast

    # Classification runs several times per packet per hop; frozenset
    # membership on the raw code beats chained enum comparisons.
    @property
    def is_response(self) -> bool:
        return self._value_ in _RESPONSE_CODES

    @property
    def is_byte_write(self) -> bool:
        return self._value_ in _BYTE_WRITE_CODES

    @property
    def carries_address(self) -> bool:
        return self._value_ not in _RESPONSE_CODES


_RESPONSE_CODES = frozenset((Command.READ_RESPONSE,))
_BYTE_WRITE_CODES = frozenset((Command.WRITE_POSTED_BYTE,))


class VirtualChannel(enum.IntEnum):
    """The three HT base virtual channels (deadlock avoidance)."""

    POSTED = 0
    NONPOSTED = 1
    RESPONSE = 2


#: Command -> VC resolution table (classification is static per command).
_VC_FOR = {
    Command.READ: VirtualChannel.NONPOSTED,
    Command.WRITE_POSTED: VirtualChannel.POSTED,
    Command.WRITE_POSTED_BYTE: VirtualChannel.POSTED,
    Command.READ_RESPONSE: VirtualChannel.RESPONSE,
    Command.BROADCAST: VirtualChannel.POSTED,
}


@dataclass(slots=True)
class Packet:
    """One HyperTransport packet.

    ``data`` is the dword-aligned payload (empty for reads, may be empty
    for broadcasts).  On the flyweight posted-write path it may be a
    read-only :class:`memoryview` span into the storing core's source
    buffer (the zero-copy data plane); every consumer treats it as
    immutable bytes-like.  ``coherent`` marks packets travelling inside a
    coherent fabric; the IO bridge flips it when converting (Section III:
    "an I/O bridge that converts between coherent and non-coherent
    HyperTransport packets").

    The wire footprint is cached in ``_wire_len`` on first demand, so the
    fields behind it (``cmd``, ``addr``, ``data``, ``mask``) must not be
    mutated after the first :meth:`wire_bytes` call (the fabric only
    flips ``coherent``, which the footprint does not read).
    """

    cmd: Command
    addr: int = 0
    data: bytes = b""
    unitid: int = 0
    srctag: int = 0
    coherent: bool = False
    #: Byte-enable mask for HT *sized-byte* writes (one 0/1 byte per data
    #: byte; None = all bytes valid, the sized-dword form).  Byte writes
    #: carry their enables in an extra doubleword pair on the wire.
    mask: Optional[bytes] = None
    #: Cached CRC-less wire footprint (header+ext+mask+payload bytes); the
    #: serializer asks two to three times per packet per hop and the
    #: fields backing it are frozen (see the class docstring).
    _wire_len: Optional[int] = field(default=None, init=False, compare=False,
                                     repr=False)

    def __post_init__(self) -> None:
        if self.addr < 0 or self.addr >= (1 << 64):
            raise PacketError(f"address {self.addr:#x} out of range")
        if self.cmd.carries_address and self.addr >= (1 << PHYS_ADDR_BITS):
            raise PacketError(
                f"address {self.addr:#x} exceeds the {PHYS_ADDR_BITS}-bit "
                "physical address space"
            )
        if len(self.data) % 4 != 0:
            raise PacketError(
                f"payload must be dword-granular, got {len(self.data)} bytes"
            )
        if len(self.data) > 4 * MAX_PAYLOAD_DWORDS:
            raise PacketError(
                f"payload {len(self.data)} exceeds max "
                f"{4 * MAX_PAYLOAD_DWORDS} bytes"
            )
        if self.cmd.carries_address and self.addr % 4 != 0:
            raise PacketError(f"address {self.addr:#x} not dword aligned")
        if not 0 <= self.srctag < 32:
            raise PacketError(f"srctag {self.srctag} out of 5-bit range")
        if not 0 <= self.unitid < 32:
            raise PacketError(f"unitid {self.unitid} out of 5-bit range")
        if self.cmd.is_byte_write:
            if self.mask is None:
                raise PacketError("byte-write command requires a mask")
            if len(self.mask) != len(self.data):
                raise PacketError(
                    f"mask length {len(self.mask)} != data length {len(self.data)}"
                )
            if any(b not in (0, 1) for b in self.mask):
                raise PacketError("mask bytes must be 0 or 1")
        elif self.mask is not None:
            raise PacketError(
                f"{self.cmd.name} does not carry a byte-enable mask"
            )

    # -- classification ----------------------------------------------------
    @property
    def vc(self) -> VirtualChannel:
        return _VC_FOR[self.cmd]

    @property
    def dword_count(self) -> int:
        """Payload dwords for writes/responses; requested dwords for reads."""
        if self.cmd is Command.READ:
            return self._read_count
        return len(self.data) // 4

    @property
    def needs_extension(self) -> bool:
        return self.cmd.carries_address and self.addr >= ADDR_EXTENSION_THRESHOLD

    # reads carry the count in the header, stash it privately
    _read_count: int = 1

    # -- wire size ---------------------------------------------------------
    def header_bytes(self) -> int:
        return 8 + (4 if self.needs_extension else 0)

    def wire_bytes(self, crc_bytes: int = 4) -> int:
        """Total link footprint including per-packet retry CRC.

        Sized-byte writes carry a byte-enable doubleword pair (+8 bytes).
        """
        n = self._wire_len
        if n is None:
            mask_bytes = 8 if self.mask is not None else 0
            n = self._wire_len = (
                self.header_bytes() + mask_bytes + len(self.data)
            )
        return n + crc_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.cmd.name} addr={self.addr:#x} "
            f"len={len(self.data)} tag={self.srctag} vc={self.vc.name}>"
        )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _check_write(addr: int, data: bytes) -> None:
    if not data:
        raise PacketError("write needs a payload")
    if len(data) % 4:
        raise PacketError("write payload must be dword granular")


def make_posted_write(
    addr: int, data: bytes, unitid: int = 0,
    coherent: bool = False, mask: Optional[bytes] = None,
) -> Packet:
    """A posted sized write -- the TCCluster workhorse (fire and forget).

    Pass ``mask`` (0/1 per byte) for a sized-*byte* write; dword form
    otherwise.
    """
    _check_write(addr, data)
    return Packet(
        cmd=Command.WRITE_POSTED_BYTE if mask is not None else Command.WRITE_POSTED,
        addr=addr,
        data=bytes(data),
        unitid=unitid,
        coherent=coherent,
        mask=bytes(mask) if mask is not None else None,
    )


def make_read(
    addr: int, dwords: int, srctag: int, unitid: int = 0, coherent: bool = False
) -> Packet:
    """A non-posted sized read; requires a SrcTag from the matching table."""
    if not 1 <= dwords <= MAX_PAYLOAD_DWORDS:
        raise PacketError(f"read count {dwords} outside 1..{MAX_PAYLOAD_DWORDS}")
    pkt = Packet(
        cmd=Command.READ, addr=addr, unitid=unitid, srctag=srctag, coherent=coherent
    )
    pkt._read_count = dwords
    return pkt


def make_read_response(
    data: bytes, srctag: int, unitid: int = 0, coherent: bool = False
) -> Packet:
    if not data or len(data) % 4:
        raise PacketError("read response payload must be 1..16 dwords")
    return Packet(
        cmd=Command.READ_RESPONSE,
        data=bytes(data),
        srctag=srctag,
        unitid=unitid,
        coherent=coherent,
    )


def make_broadcast(addr: int, data: bytes = b"", unitid: int = 0) -> Packet:
    """Interrupt / system-management broadcast (must not cross TCC links)."""
    return Packet(cmd=Command.BROADCAST, addr=addr, data=bytes(data), unitid=unitid)


# ---------------------------------------------------------------------------
# Posted-write flyweights (zero-copy data plane)
# ---------------------------------------------------------------------------

class PacketFactory:
    """Builds one simulation's posted writes as flyweight packets.

    A bulk transfer builds one packet per cache line, and the dataclass
    constructor plus ``__post_init__`` validation would dominate that
    cost.  :meth:`posted_write` allocates with ``Packet.__new__`` and
    assigns every slot directly instead.  A packet is never reused: it
    drops at its commit point like any other object, and link flow
    control bounds how many are live at once.

    Validation on the flyweight path is the subset that protects memory
    safety downstream (alignment, granularity, size, address width);
    byte-masked writes take the fully validated constructor.

    ``built`` counts every packet made, exported by
    :func:`repro.obs.metrics.datapath_counters` as ``packets_alloc``.
    """

    __slots__ = ("built",)

    def __init__(self) -> None:
        self.built = 0

    def posted_write(self, addr: int, data, unitid: int = 0,
                     coherent: bool = False,
                     mask: Optional[bytes] = None) -> Packet:
        """Build a ``WRITE_POSTED`` packet; ``data`` may be bytes or a
        read-only memoryview span (kept by reference -- the one-copy
        guarantee relies on the caller not mutating it before commit)."""
        if not data:
            raise PacketError("write needs a payload")
        if (addr & 3) or (len(data) & 3):
            raise PacketError("posted write must be dword aligned/granular")
        if len(data) > 4 * MAX_PAYLOAD_DWORDS:
            raise PacketError(
                f"payload {len(data)} exceeds max {4 * MAX_PAYLOAD_DWORDS} bytes"
            )
        if addr < 0 or addr >= (1 << PHYS_ADDR_BITS):
            raise PacketError(f"address {addr:#x} out of range")
        self.built += 1
        if mask is not None:
            # Byte-masked writes are the ragged-edge cold path: keep the
            # fully validated constructor (mask contents are checked there).
            return make_posted_write(addr, bytes(data), unitid=unitid,
                                     coherent=coherent, mask=mask)
        pkt = Packet.__new__(Packet)
        pkt.cmd = Command.WRITE_POSTED
        pkt.addr = addr
        pkt.data = data
        pkt.unitid = unitid
        pkt.srctag = 0
        pkt.coherent = coherent
        pkt.mask = None
        pkt._wire_len = None
        pkt._read_count = 1
        return pkt


def factory_for(sim) -> PacketFactory:
    """The per-simulation packet factory (mirrors ``metrics_for``):
    created on first use and attached to the simulator, so its
    ``packets_alloc`` count tracks one run."""
    factory = sim._packet_factory
    if factory is None:
        factory = sim._packet_factory = PacketFactory()
    return factory
