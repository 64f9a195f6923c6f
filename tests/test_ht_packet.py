"""Unit tests for the HT packet model: classification, construction
checks and the wire footprint that sets every serialization time."""

import pytest

from repro.ht.packet import (
    ADDR_EXTENSION_THRESHOLD,
    Command,
    Packet,
    PacketError,
    VirtualChannel,
    make_broadcast,
    make_posted_write,
    make_read,
    make_read_response,
)


# ---------------------------------------------------------------------------
# Command classification
# ---------------------------------------------------------------------------

def test_posted_write_is_posted_request():
    """Both posted-write forms ride the POSTED channel and are routed by
    address, not by SrcTag."""
    for mask in (None, b"\x01" * 4):
        pkt = make_posted_write(0x1000, b"\x00" * 4, mask=mask)
        assert pkt.vc is VirtualChannel.POSTED
        assert pkt.cmd.carries_address and not pkt.cmd.is_response


def test_responses_are_not_requests():
    assert Command.READ_RESPONSE.is_response
    assert not Command.READ_RESPONSE.carries_address
    for cmd in (Command.READ, Command.WRITE_POSTED, Command.WRITE_POSTED_BYTE,
                Command.BROADCAST):
        assert not cmd.is_response and cmd.carries_address


def test_vc_assignment():
    assert make_posted_write(0x1000, b"\x00" * 4).vc is VirtualChannel.POSTED
    assert make_read(0x1000, 1, srctag=0).vc is VirtualChannel.NONPOSTED
    assert (make_read_response(b"\x00" * 4, srctag=0).vc
            is VirtualChannel.RESPONSE)
    assert make_broadcast(0xFEE0_0000).vc is VirtualChannel.POSTED


# ---------------------------------------------------------------------------
# Construction validation
# ---------------------------------------------------------------------------

def test_write_payload_must_be_dword_granular():
    with pytest.raises(PacketError):
        make_posted_write(0x1000, b"abc")


def test_write_needs_payload():
    with pytest.raises(PacketError):
        make_posted_write(0x1000, b"")


def test_payload_max_16_dwords():
    make_posted_write(0x1000, b"\x00" * 64)  # ok
    with pytest.raises(PacketError):
        make_posted_write(0x1000, b"\x00" * 68)


def test_address_must_be_dword_aligned():
    with pytest.raises(PacketError):
        make_posted_write(0x1001, b"\x00" * 4)


def test_address_beyond_48_bits_rejected():
    with pytest.raises(PacketError):
        make_posted_write(1 << 48, b"\x00" * 4)


def test_srctag_range_checked():
    with pytest.raises(PacketError):
        Packet(cmd=Command.READ, addr=0, srctag=32)


def test_read_count_range():
    with pytest.raises(PacketError):
        make_read(0x1000, 0, srctag=1)
    with pytest.raises(PacketError):
        make_read(0x1000, 17, srctag=1)


# ---------------------------------------------------------------------------
# Wire size model
# ---------------------------------------------------------------------------

def test_wire_bytes_64b_payload_is_76():
    """The calibration anchor: 8 header + 64 payload + 4 CRC = 76 bytes,
    which at 3.2 bytes/ns gives the paper's ~2700 MB/s sustained rate."""
    pkt = make_posted_write(0x1000, b"\x00" * 64)
    assert pkt.wire_bytes() == 76


def test_wire_bytes_includes_extension_above_2_40():
    low = make_posted_write(0x1000, b"\x00" * 4)
    high = make_posted_write(ADDR_EXTENSION_THRESHOLD, b"\x00" * 4)
    assert high.wire_bytes() == low.wire_bytes() + 4
    assert high.needs_extension and not low.needs_extension


def test_read_has_no_payload_on_wire():
    pkt = make_read(0x2000, 16, srctag=3)
    assert pkt.wire_bytes() == 12  # 8 header + 4 crc
    assert pkt.dword_count == 16


@pytest.mark.parametrize("n", [4, 36, 64])
def test_wire_bytes_byte_masked_write_adds_enable_dwords(n):
    """A sized-byte write carries its byte enables in one extra doubleword
    pair: 8 header + 8 enables + n payload + 4 CRC."""
    pkt = make_posted_write(0x1000, b"\x00" * n, mask=b"\x01" * n)
    assert pkt.cmd is Command.WRITE_POSTED_BYTE
    assert pkt.wire_bytes() == 8 + 8 + n + 4
    assert pkt.wire_bytes(crc_bytes=0) == 8 + 8 + n
