"""Ring-slot wire format.

One slot is one cache line and therefore one HT posted write, which makes
it *atomic* at the receiver: when the sequence number is visible, the
whole slot is.  Multi-slot messages lean on per-VC in-order delivery,
which holds along one path only: the receiver syncs on the last slot's
sequence number, bulk-reads the span and checks every slot's sequence
number there, because a reroute or a crash can leave a middle slot
stale.

Layout (little endian):

    u32 seq      -- global slot counter of this flow, starting at 1
    u32 len      -- total message bytes (first slot), remaining bytes
                    (continuation slots), or RENDEZVOUS_MARKER
    56 B payload
"""

from __future__ import annotations

import struct
from typing import Tuple

from .config import (
    HELLO_MARKER,
    RENDEZVOUS_MARKER,
    SLOT_BYTES,
    SLOT_HEADER,
    SLOT_PAYLOAD,
)

__all__ = [
    "pack_slot",
    "pack_slots",
    "unpack_header",
    "unpack_payload",
    "pack_rendezvous_control",
    "unpack_rendezvous_control",
    "pack_hello",
    "unpack_hello",
    "pack_feedback",
    "unpack_feedback",
    "unpack_feedback_epoch",
    "slots_needed",
    "RENDEZVOUS_MARKER",
    "HELLO_MARKER",
]

_HDR = struct.Struct("<II")
_RDZV = struct.Struct("<QQQ")   # heap offset, payload len, heap end cursor
_HELLO = struct.Struct("<QQQ")  # session epoch, sender's recv_seq, heap_recvd
_FB = struct.Struct("<QQ")      # slots consumed, heap bytes consumed
_FB_EPOCH = struct.Struct("<Q")  # session epoch echo at offset 16


def slots_needed(msg_len: int) -> int:
    """Ring slots an eager message of ``msg_len`` bytes occupies."""
    if msg_len <= 0:
        raise ValueError("empty message")
    return (msg_len + SLOT_PAYLOAD - 1) // SLOT_PAYLOAD


def pack_slot(seq: int, length: int, payload: bytes) -> bytes:
    """Build the 64-byte slot image (payload zero-padded)."""
    if seq <= 0 or seq >= 1 << 32:
        raise ValueError(f"slot seq {seq} out of u32 range (must be nonzero)")
    if len(payload) > SLOT_PAYLOAD:
        raise ValueError(f"payload {len(payload)} exceeds {SLOT_PAYLOAD}")
    return _HDR.pack(seq, length) + payload.ljust(SLOT_PAYLOAD, b"\x00")


def pack_slots(seq0: int, n: int, data: bytes, pos: int,
               remaining: int) -> bytes:
    """The images of ``n`` consecutive slots from ``seq0`` on, as one
    contiguous ``n * 64``-byte run carrying ``data[pos:]``, of which
    ``remaining`` bytes are still to send: each slot's length field is
    the message bytes remaining at that slot."""
    parts = []
    for seq in range(seq0, seq0 + n):
        chunk = data[pos:pos + SLOT_PAYLOAD]
        parts.append(pack_slot(seq, remaining, chunk))
        pos += len(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def unpack_header(raw: bytes, offset: int = 0) -> Tuple[int, int]:
    """(seq, len) from the first 8 bytes of the slot at ``offset``."""
    return _HDR.unpack_from(raw, offset)


def unpack_payload(raw: bytes, nbytes: int, offset: int = 0) -> bytes:
    if nbytes > SLOT_PAYLOAD:
        raise ValueError("slot payload overrun")
    start = offset + SLOT_HEADER
    return raw[start : start + nbytes]


def pack_rendezvous_control(seq: int, heap_offset: int, length: int,
                            heap_end: int) -> bytes:
    """A control slot announcing a large payload parked in the heap."""
    body = _RDZV.pack(heap_offset, length, heap_end)
    return _HDR.pack(seq, RENDEZVOUS_MARKER) + body.ljust(SLOT_PAYLOAD, b"\x00")


def unpack_rendezvous_control(raw: bytes) -> Tuple[int, int, int]:
    """(heap_offset, length, heap_end) from a control slot."""
    return _RDZV.unpack_from(raw, SLOT_HEADER)


def pack_hello(seq: int, epoch: int, recv_seq: int, heap_recvd: int) -> bytes:
    """A session-control slot announcing a reconnect handshake.

    Carries the initiator's new session epoch plus its *receive* cursors
    so the peer, as a sender toward the initiator, can resynchronize its
    transmit state in the same step.
    """
    if epoch <= 0:
        raise ValueError("session epoch must be positive")
    body = _HELLO.pack(epoch, recv_seq, heap_recvd)
    return _HDR.pack(seq, HELLO_MARKER) + body.ljust(SLOT_PAYLOAD, b"\x00")


def unpack_hello(raw: bytes) -> Tuple[int, int, int]:
    """(epoch, recv_seq, heap_recvd) from a HELLO control slot."""
    return _HELLO.unpack_from(raw, SLOT_HEADER)


def pack_feedback(slots_consumed: int, heap_consumed: int,
                  epoch: int = 0) -> bytes:
    """The 64-byte acknowledgement line a receiver writes back.

    ``epoch`` (offset 16) doubles as the HELLO-ACK: a receiver that has
    processed a HELLO control slot echoes the adopted session epoch in
    every subsequent feedback write.  It stays 0 until the first session
    reset, so the fault-free line image is byte-identical to the legacy
    two-field format (the tail was zero padding already).
    """
    line = _FB.pack(slots_consumed, heap_consumed) + _FB_EPOCH.pack(epoch)
    return line.ljust(SLOT_BYTES, b"\x00")


def unpack_feedback(raw: bytes) -> Tuple[int, int]:
    return _FB.unpack_from(raw, 0)


def unpack_feedback_epoch(raw: bytes) -> int:
    """The session-epoch echo from a feedback line (0 = never reset)."""
    return _FB_EPOCH.unpack_from(raw, 16)[0]
