"""Tests for the zero-copy data plane: flyweight posted writes, span
payloads and the one-copy/one-packet-per-line invariants end to end.

:class:`PacketFactory` builds posted writes as flyweights that skip
dataclass init, so the load-bearing property is that a flyweight is
indistinguishable, field for field and in wire footprint, from a
constructor-built packet.  The property test checks exactly that against
the fully validated constructor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TCClusterSystem
from repro.ht.packet import (
    Command,
    PacketError,
    PacketFactory,
    factory_for,
    make_posted_write,
)
from repro.obs.metrics import datapath_counters
from repro.sim import Simulator
from repro.util.units import KiB


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

def test_pool_fast_path_still_validates():
    factory = PacketFactory()
    with pytest.raises(PacketError):
        factory.posted_write(0x41, b"\x00" * 4)  # unaligned address
    with pytest.raises(PacketError):
        factory.posted_write(0x40, b"\x00" * 3)  # ragged payload
    with pytest.raises(PacketError):
        factory.posted_write(0x40, b"")  # empty payload
    with pytest.raises(PacketError):
        factory.posted_write(1 << 48, b"\x00" * 4)  # beyond phys addr space
    assert factory.built == 0


def test_pool_masked_write_takes_validated_constructor():
    factory = PacketFactory()
    p = factory.posted_write(0x40, b"\x01\x02\x03\x04", mask=b"\x01\x00\x01\x00")
    assert p.cmd is Command.WRITE_POSTED_BYTE
    assert p == make_posted_write(0x40, b"\x01\x02\x03\x04",
                                  mask=b"\x01\x00\x01\x00")
    assert factory.built == 1


def test_pool_is_per_simulation():
    sim1, sim2 = Simulator(), Simulator()
    f1, f2 = factory_for(sim1), factory_for(sim2)
    assert f1 is not f2
    assert factory_for(sim1) is f1  # stable across calls


# ---------------------------------------------------------------------------
# Flyweight == constructor
# ---------------------------------------------------------------------------

_aligned_addr = st.integers(min_value=0, max_value=(1 << 46) // 4 - 1).map(
    lambda a: a * 4
)
_dword_payload = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.binary(min_size=4 * n, max_size=4 * n)
)


@given(addr=_aligned_addr, payload=_dword_payload,
       unitid=st.integers(min_value=0, max_value=31),
       coherent=st.booleans(), span=st.booleans())
@settings(max_examples=60)
def test_flyweight_wire_image_matches_constructor(addr, payload, unitid,
                                                  coherent, span):
    """Property: a flyweight is equal, field for field and in wire
    footprint, to the constructor-built reference, with bytes or a
    memoryview span as payload (addresses above 2^40 take the extension
    doubleword)."""
    data = memoryview(payload) if span else payload
    pkt = PacketFactory().posted_write(addr, data, unitid=unitid,
                                       coherent=coherent)
    ref = make_posted_write(addr, payload, unitid=unitid, coherent=coherent)
    assert pkt == ref
    assert pkt.wire_bytes() == ref.wire_bytes()


def test_memoryview_span_payload_is_not_copied():
    src = bytes(range(256))
    span = memoryview(src)[64:128]
    pkt = PacketFactory().posted_write(0x2000, span)
    assert type(pkt.data) is memoryview, "span payload must ride by reference"
    ref = make_posted_write(0x2000, bytes(span))
    assert pkt == ref
    assert pkt.wire_bytes() == ref.wire_bytes()


# ---------------------------------------------------------------------------
# End to end: one copy per byte, one packet per line
# ---------------------------------------------------------------------------

def test_bulk_transfer_one_copy_and_one_packet_per_line():
    """A bulk store through the per-packet data plane copies each payload
    byte exactly once (at destination page commit) and builds exactly
    one packet per cache line."""
    sys_ = TCClusterSystem.two_board_prototype()
    sys_.sim.features.adaptive_fidelity = False  # force per-packet plane
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    proc = cl.spawn_process(0, name="txp")
    info, pinfo = cl.ranks[0], cl.ranks[1]
    driver = cl.kernels[info.supernode].driver_for(info.chip_index)
    window_off = 32 * 1024 * 1024
    tx_base = pinfo.base + window_off
    size = 16 * KiB
    driver.mmap_remote(proc.pagetable, tx_base, size, tag="datapath-test")
    data = bytes(range(256)) * (size // 256)
    dest = pinfo.chip.memctrl.memory

    before = datapath_counters(sim, memories=(dest,))

    def xfer():
        yield from proc.store(tx_base, data)
        yield from proc.core.sfence()

    sim.run_until_event(sim.process(xfer()))
    sim.run()
    after = datapath_counters(sim, memories=(dest,))

    assert dest.read(window_off, size) == data
    copied = after["bytes_copied"] - before["bytes_copied"]
    alloc = after["packets_alloc"] - before["packets_alloc"]
    assert copied == size, f"one-copy invariant broken: {copied} != {size}"
    assert alloc == size // 64, "one posted write per cache line"
