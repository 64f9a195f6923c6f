"""HyperTransport packet model: commands, headers, encode/decode.

The layout is spec-inspired (HT I/O Link Specification rev 3.10, the
revision the paper cites): 6-bit command codes, a 64-bit request header
carrying ``Addr[39:2]``, an optional 4-byte address-extension doubleword for
addresses at or above 2^40 (HT3 64-bit addressing), dword-granular sized
writes of 1..16 dwords, and per-packet CRC in retry mode.

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

import binascii
import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

from ..util.bitfield import get_bits, mask, set_bits

__all__ = [
    "Command",
    "VirtualChannel",
    "Packet",
    "PacketError",
    "PacketFactory",
    "factory_for",
    "make_posted_write",
    "make_nonposted_write",
    "make_read",
    "make_read_response",
    "make_target_done",
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
    """Malformed packet construction or decode failure."""


class Command(enum.IntEnum):
    """HT command codes (6 bits).  Values follow the spec groupings:
    001xxx non-posted sized write, 01xxxx sized read, 101xxx posted sized
    write, 110000 read response, 110011 target done, 111010 broadcast."""

    WRITE_NONPOSTED = 0x09        # sized write (dword), non-posted
    WRITE_NONPOSTED_BYTE = 0x0D   # sized write (byte-masked), non-posted
    READ = 0x11                   # sized read (dword)
    WRITE_POSTED = 0x29           # sized write (dword), posted
    WRITE_POSTED_BYTE = 0x2D      # sized write (byte-masked), posted
    READ_RESPONSE = 0x30
    TARGET_DONE = 0x33
    BROADCAST = 0x3A              # interrupt / system management broadcast
    FLUSH = 0x02
    FENCE = 0x3C

    # Classification runs several times per packet per hop; frozenset
    # membership on the raw code beats chained enum comparisons.
    @property
    def is_request(self) -> bool:
        return self._value_ in _REQUEST_CODES

    @property
    def is_response(self) -> bool:
        return self._value_ in _RESPONSE_CODES

    @property
    def is_posted(self) -> bool:
        return self._value_ in _POSTED_CODES

    @property
    def is_byte_write(self) -> bool:
        return self._value_ in _BYTE_WRITE_CODES

    @property
    def carries_address(self) -> bool:
        return self._value_ in _ADDRESSED_CODES

    @property
    def expects_response(self) -> bool:
        return self._value_ in _EXPECTS_RESPONSE_CODES


_REQUEST_CODES = frozenset((
    Command.WRITE_NONPOSTED, Command.WRITE_NONPOSTED_BYTE, Command.READ,
    Command.WRITE_POSTED, Command.WRITE_POSTED_BYTE, Command.BROADCAST,
    Command.FLUSH, Command.FENCE,
))
_RESPONSE_CODES = frozenset((Command.READ_RESPONSE, Command.TARGET_DONE))
_POSTED_CODES = frozenset((Command.WRITE_POSTED, Command.WRITE_POSTED_BYTE,
                           Command.BROADCAST, Command.FENCE))
_BYTE_WRITE_CODES = frozenset((Command.WRITE_POSTED_BYTE,
                               Command.WRITE_NONPOSTED_BYTE))
_ADDRESSED_CODES = _REQUEST_CODES - {Command.FENCE}
_EXPECTS_RESPONSE_CODES = frozenset((
    Command.WRITE_NONPOSTED, Command.WRITE_NONPOSTED_BYTE,
    Command.READ, Command.FLUSH,
))
_WRITE_CODES = frozenset((
    Command.WRITE_POSTED, Command.WRITE_NONPOSTED,
    Command.WRITE_POSTED_BYTE, Command.WRITE_NONPOSTED_BYTE,
))


class VirtualChannel(enum.IntEnum):
    """The three HT base virtual channels (deadlock avoidance)."""

    POSTED = 0
    NONPOSTED = 1
    RESPONSE = 2

    @staticmethod
    def for_command(cmd: Command) -> "VirtualChannel":
        return _VC_FOR[cmd]


#: Command -> VC resolution table (classification is static per command).
_VC_FOR = {
    c: (VirtualChannel.RESPONSE if c in _RESPONSE_CODES
        else VirtualChannel.POSTED if c in _POSTED_CODES
        else VirtualChannel.NONPOSTED)
    for c in Command
}


# 64-bit primary request header layout (bit positions).
_F_CMD = (0, 6)
_F_PASSPW = (6, 1)
_F_SEQID = (7, 4)
_F_UNITID = (11, 5)
_F_SRCTAG = (16, 5)
_F_COUNT = (21, 4)
_F_ADDR = (25, 38)  # Addr[39:2]

# Response header layout.
_F_R_CMD = (0, 6)
_F_R_PASSPW = (6, 1)
_F_R_UNITID = (11, 5)
_F_R_SRCTAG = (16, 5)
_F_R_COUNT = (21, 4)
_F_R_ERROR = (25, 1)


@dataclass(slots=True)
class Packet:
    """One HyperTransport packet.

    ``data`` is the dword-aligned payload (may be empty for reads and
    responses-to-writes).  On the flyweight posted-write path it may be a
    read-only :class:`memoryview` span into the storing core's source
    buffer (the zero-copy data plane); every consumer treats it as
    immutable bytes-like.  ``coherent`` marks packets travelling inside a
    coherent fabric; the IO bridge flips it when converting (Section III:
    "an I/O bridge that converts between coherent and non-coherent
    HyperTransport packets").

    **Lazy wire image.**  ``encode()`` and the retry-mode ``crc32`` are
    computed on first demand and cached in ``_wire`` / ``_crc``; the
    header/payload fields must therefore not be mutated after the first
    consumer has asked (the fabric only flips ``coherent``, which is not
    part of the wire image).
    """

    cmd: Command
    addr: int = 0
    data: bytes = b""
    unitid: int = 0
    srctag: int = 0
    seqid: int = 0
    passpw: bool = False
    coherent: bool = False
    error: bool = False
    #: Byte-enable mask for HT *sized-byte* writes (one 0/1 byte per data
    #: byte; None = all bytes valid, the sized-dword form).  Byte writes
    #: carry their enables in an extra doubleword pair on the wire.
    mask: Optional[bytes] = None
    #: Cached wire image / CRC (lazy encode; see class docstring).
    _wire: Optional[bytes] = field(default=None, init=False, compare=False,
                                   repr=False)
    _crc: Optional[int] = field(default=None, init=False, compare=False,
                                repr=False)
    #: Cached CRC-less wire footprint (header+ext+mask+payload bytes); the
    #: serializer asks two to three times per packet per hop and the
    #: fields backing it are frozen by the lazy-wire invariant above.
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
        if not 0 <= self.seqid < 16:
            raise PacketError(f"seqid {self.seqid} out of 4-bit range")
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
    def is_write(self) -> bool:
        return self.cmd in _WRITE_CODES

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

    # -- encode / decode ----------------------------------------------------
    def _encode_body(self) -> bytes:
        """Header [+ extension] [+ byte-enable dwords] + payload (no CRC)."""
        if self.cmd.is_response:
            hdr = 0
            hdr = set_bits(hdr, *_F_R_CMD, int(self.cmd))
            hdr = set_bits(hdr, *_F_R_PASSPW, int(self.passpw))
            hdr = set_bits(hdr, *_F_R_UNITID, self.unitid)
            hdr = set_bits(hdr, *_F_R_SRCTAG, self.srctag)
            hdr = set_bits(hdr, *_F_R_COUNT, max(0, self.dword_count - 1))
            hdr = set_bits(hdr, *_F_R_ERROR, int(self.error))
            body = struct.pack("<Q", hdr)
        else:
            count = self.dword_count
            hdr = 0
            hdr = set_bits(hdr, *_F_CMD, int(self.cmd))
            hdr = set_bits(hdr, *_F_PASSPW, int(self.passpw))
            hdr = set_bits(hdr, *_F_SEQID, self.seqid)
            hdr = set_bits(hdr, *_F_UNITID, self.unitid)
            hdr = set_bits(hdr, *_F_SRCTAG, self.srctag)
            hdr = set_bits(hdr, *_F_COUNT, max(0, count - 1))
            hdr = set_bits(hdr, *_F_ADDR, (self.addr >> 2) & mask(38))
            body = struct.pack("<Q", hdr)
            if self.needs_extension:
                body += struct.pack("<I", (self.addr >> 40) & mask(24))
            if self.cmd.is_byte_write:
                bits = 0
                for i, m in enumerate(self.mask):
                    if m:
                        bits |= 1 << i
                body += struct.pack("<Q", bits)
        data = self.data
        if type(data) is not bytes:  # memoryview span on the flyweight path
            data = bytes(data)
        return body + data

    @property
    def crc32(self) -> int:
        """Per-packet retry-mode CRC, computed lazily on first demand.

        Nothing on the posted-write hot path asks for it; the consumers
        are retry-mode links (BER > 0), :meth:`encode` and tests."""
        c = self._crc
        if c is None:
            c = self._crc = binascii.crc32(self._encode_body()) & 0xFFFFFFFF
        return c

    def encode(self) -> bytes:
        """Serialize to the wire image (header [+ extension] + payload + CRC).

        Lazy and cached: the bytes are built on the first call only (see
        the class docstring for the no-mutation-after-encode invariant)."""
        w = self._wire
        if w is None:
            body = self._encode_body()
            crc = self._crc
            if crc is None:
                crc = self._crc = binascii.crc32(body) & 0xFFFFFFFF
            w = self._wire = body + struct.pack("<I", crc)
        return w

    @classmethod
    def decode(cls, wire: bytes, coherent: bool = False) -> "Packet":
        """Parse a wire image produced by :meth:`encode`.

        Raises :class:`PacketError` on CRC mismatch or malformed fields --
        the link retry layer relies on this to detect injected bit errors.
        """
        if len(wire) < 12:
            raise PacketError(f"short packet: {len(wire)} bytes")
        body, (crc,) = wire[:-4], struct.unpack("<I", wire[-4:])
        if binascii.crc32(body) & 0xFFFFFFFF != crc:
            raise PacketError("CRC mismatch")
        (hdr,) = struct.unpack("<Q", body[:8])
        raw_cmd = get_bits(hdr, *_F_CMD)
        try:
            cmd = Command(raw_cmd)
        except ValueError as exc:
            raise PacketError(f"unknown command {raw_cmd:#x}") from exc
        if cmd.is_response:
            data = body[8:]
            pkt = cls(
                cmd=cmd,
                data=data,
                unitid=get_bits(hdr, *_F_R_UNITID),
                srctag=get_bits(hdr, *_F_R_SRCTAG),
                passpw=bool(get_bits(hdr, *_F_R_PASSPW)),
                error=bool(get_bits(hdr, *_F_R_ERROR)),
                coherent=coherent,
            )
            expect = get_bits(hdr, *_F_R_COUNT) + 1
            if cmd is Command.READ_RESPONSE and pkt.dword_count != expect:
                raise PacketError(
                    f"response count {expect} != payload {pkt.dword_count}"
                )
            return pkt
        addr = (get_bits(hdr, *_F_ADDR) << 2)
        offset = 8
        # Extension presence is implied by the encoder's rule (addresses
        # >= 2^40); on the wire HT marks it via the command type.  We detect
        # it by attempting the extension parse when the remaining length
        # doesn't match the count field.
        count = get_bits(hdr, *_F_COUNT) + 1
        remaining = len(body) - offset
        byte_mask: Optional[bytes] = None
        if cmd in (Command.WRITE_POSTED, Command.WRITE_NONPOSTED,
                   Command.WRITE_POSTED_BYTE, Command.WRITE_NONPOSTED_BYTE):
            mask_len = 8 if cmd.is_byte_write else 0
            expect = count * 4 + mask_len
            if remaining == expect + 4:
                (hi,) = struct.unpack("<I", body[offset : offset + 4])
                addr |= (hi & mask(24)) << 40
                offset += 4
            elif remaining != expect:
                raise PacketError(
                    f"payload length {remaining} inconsistent with count {count}"
                )
            if cmd.is_byte_write:
                (bits,) = struct.unpack("<Q", body[offset : offset + 8])
                offset += 8
                byte_mask = bytes((bits >> i) & 1 for i in range(count * 4))
        elif cmd is Command.READ or cmd is Command.FLUSH or cmd is Command.FENCE:
            if remaining == 4:
                (hi,) = struct.unpack("<I", body[offset : offset + 4])
                addr |= (hi & mask(24)) << 40
                offset += 4
            elif remaining != 0:
                raise PacketError(f"unexpected payload on {cmd.name}")
        data = body[offset:]
        pkt = cls(
            cmd=cmd,
            addr=addr,
            data=data,
            unitid=get_bits(hdr, *_F_UNITID),
            srctag=get_bits(hdr, *_F_SRCTAG),
            seqid=get_bits(hdr, *_F_SEQID),
            passpw=bool(get_bits(hdr, *_F_PASSPW)),
            coherent=coherent,
            mask=byte_mask,
        )
        if cmd is Command.READ:
            pkt._read_count = count
        return pkt

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
    addr: int, data: bytes, unitid: int = 0, seqid: int = 0,
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
        seqid=seqid,
        coherent=coherent,
        mask=bytes(mask) if mask is not None else None,
    )


def make_nonposted_write(
    addr: int, data: bytes, srctag: int, unitid: int = 0,
    coherent: bool = False, mask: Optional[bytes] = None,
) -> Packet:
    _check_write(addr, data)
    return Packet(
        cmd=(Command.WRITE_NONPOSTED_BYTE if mask is not None
             else Command.WRITE_NONPOSTED),
        addr=addr,
        data=bytes(data),
        unitid=unitid,
        srctag=srctag,
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
    data: bytes, srctag: int, unitid: int = 0, error: bool = False, coherent: bool = False
) -> Packet:
    if not data or len(data) % 4:
        raise PacketError("read response payload must be 1..16 dwords")
    return Packet(
        cmd=Command.READ_RESPONSE,
        data=bytes(data),
        srctag=srctag,
        unitid=unitid,
        error=error,
        coherent=coherent,
    )


def make_target_done(srctag: int, unitid: int = 0, error: bool = False) -> Packet:
    return Packet(cmd=Command.TARGET_DONE, srctag=srctag, unitid=unitid, error=error)


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
        pkt.seqid = 0
        pkt.passpw = False
        pkt.coherent = coherent
        pkt.error = False
        pkt.mask = None
        pkt._wire = None
        pkt._crc = None
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
