"""Tests for sparse memory and the DRAM controller timing model."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opteron.memory import Memory, MemoryController, MemoryError_, PAGE_SIZE
from repro.sim import Simulator
from repro.util.calibration import DEFAULT_TIMING


def test_memory_starts_zeroed():
    mem = Memory(1 << 20)
    assert mem.read(0, 16) == b"\x00" * 16
    assert mem.read((1 << 20) - 4, 4) == b"\x00" * 4


def test_memory_write_read_roundtrip():
    mem = Memory(1 << 20)
    mem.write(0x1234, b"hello world!")
    assert mem.read(0x1234, 12) == b"hello world!"


def test_memory_cross_page_write():
    mem = Memory(1 << 20)
    data = bytes(range(200))
    addr = PAGE_SIZE - 100
    mem.write(addr, data)
    assert mem.read(addr, 200) == data


def test_memory_out_of_range_rejected():
    mem = Memory(1 << 20)
    with pytest.raises(MemoryError_):
        mem.write((1 << 20) - 2, b"1234")
    with pytest.raises(MemoryError_):
        mem.read(-1, 4)


def test_memory_size_must_be_page_multiple():
    with pytest.raises(ValueError):
        Memory(1000)
    with pytest.raises(ValueError):
        Memory(0)


def test_memory_sparse_footprint():
    mem = Memory(1 << 30)  # 1 GiB address space
    assert mem.resident_bytes == 0
    mem.write(0x10_0000, b"x")
    assert mem.resident_bytes == PAGE_SIZE


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 16) - 64),
            st.binary(min_size=1, max_size=64),
        ),
        max_size=30,
    )
)
@settings(max_examples=100)
def test_memory_matches_reference_model(writes):
    """Property: sparse memory behaves exactly like a flat bytearray."""
    mem = Memory(1 << 16)
    ref = bytearray(1 << 16)
    for addr, data in writes:
        mem.write(addr, data)
        ref[addr : addr + len(data)] = data
    assert mem.read(0, 1 << 16) == bytes(ref)


def test_memory_read_straddling_resident_and_absent_pages():
    """Regression: a read crossing from a resident page into an absent one
    (and vice versa) must see the resident bytes plus zeros -- the unified
    zero-filled-output branch, not a short or shifted result."""
    mem = Memory(1 << 20)
    mem.write(PAGE_SIZE - 8, b"\xAA" * 8)  # page 0 resident, page 1 absent
    assert mem.read(PAGE_SIZE - 8, 16) == b"\xAA" * 8 + b"\x00" * 8
    # Mirror image: absent page 0, resident page 1.
    mem2 = Memory(1 << 20)
    mem2.write(PAGE_SIZE, b"\xBB" * 8)
    assert mem2.read(PAGE_SIZE - 8, 16) == b"\x00" * 8 + b"\xBB" * 8
    # Fully absent middle page between two resident neighbours.
    mem3 = Memory(1 << 20)
    mem3.write(PAGE_SIZE - 4, b"\x11" * 4)
    mem3.write(2 * PAGE_SIZE, b"\x22" * 4)
    got = mem3.read(PAGE_SIZE - 4, PAGE_SIZE + 8)
    assert got == b"\x11" * 4 + b"\x00" * PAGE_SIZE + b"\x22" * 4


def test_write_span_accepts_memoryview_and_counts_one_copy():
    mem = Memory(1 << 20)
    src = bytes(range(256)) * 2
    mem.write_span(0x100, memoryview(src))
    assert mem.read(0x100, len(src)) == src
    assert mem.bytes_copied == len(src)


def test_write_span_straddling_pages_counts_every_byte_once():
    mem = Memory(1 << 20)
    data = bytes(range(200))
    mem.write_span(PAGE_SIZE - 100, data)
    assert mem.read(PAGE_SIZE - 100, 200) == data
    assert mem.bytes_copied == 200


def test_write_span_adopts_whole_absent_page():
    """A span covering an entire absent page becomes that page's backing
    store in one construction (no zero-fill-then-overwrite double cost);
    the result and the copy accounting are identical either way."""
    mem = Memory(1 << 20)
    data = bytes((i * 7) & 0xFF for i in range(2 * PAGE_SIZE))
    mem.write_span(0, memoryview(data))  # pages 0 and 1 both absent
    assert mem.read(0, len(data)) == data
    assert mem.bytes_copied == len(data)
    assert mem.resident_bytes == 2 * PAGE_SIZE


def test_growing_image_reclaims_a_finished_one():
    """A memory image that grows by 1 MiB frees the DRAM of an
    unreachable image caught in a reference cycle (a finished
    simulation) without waiting for the collector's own schedule."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        old = Memory(8 << 20)
        cycle = [old]
        cycle.append(cycle)
        old.write_span(0, bytes(2 << 20))
        gone = weakref.ref(old)
        del old, cycle
        assert gone() is not None, "the cycle keeps the image alive"
        new = Memory(8 << 20)
        new.write_span(0, bytes(1 << 20))
        assert gone() is None, "the finished image still holds its pages"
    finally:
        if was_enabled:
            gc.enable()


def test_memctrl_write_timing():
    sim = Simulator()
    mem = Memory(1 << 20)
    mc = MemoryController(sim, mem)
    ev = mc.write(0x100, b"\xAA" * 64)
    sim.run()
    assert ev.triggered
    # fixed latency + occupancy 64/12.8
    assert sim.now == pytest.approx(DEFAULT_TIMING.dram_write_ns + 5.0)
    assert mem.read(0x100, 64) == b"\xAA" * 64


def test_memctrl_read_uc_slower_than_cached_fill_is_marked():
    sim = Simulator()
    mc = MemoryController(sim, Memory(1 << 20))
    mc.memory.write(0x40, b"\x07" * 8)
    ev = mc.read(0x40, 8, uncached=True)
    data = sim.run_until_event(ev)
    assert data == b"\x07" * 8
    t_uc = sim.now
    ev2 = mc.read(0x40, 8, uncached=False)
    sim.run_until_event(ev2)
    t_wb = sim.now - t_uc
    # The WB miss fill is the *slower* DRAM op; UC is a targeted read.
    assert t_wb > t_uc


def test_memctrl_port_pipelines_latency():
    """The port serializes only the data transfer; access latency is
    pipelined, so back-to-back writes complete one occupancy apart."""
    sim = Simulator()
    mc = MemoryController(sim, Memory(1 << 20))
    done = []
    ev1 = mc.write(0x0, b"\x01" * 64)
    ev2 = mc.write(0x100, b"\x02" * 64)
    ev1.add_callback(lambda e: done.append(("w1", sim.now)))
    ev2.add_callback(lambda e: done.append(("w2", sim.now)))
    sim.run()
    t1 = dict(done)["w1"]
    t2 = dict(done)["w2"]
    occupancy = 64 / 12.8
    assert t1 == pytest.approx(DEFAULT_TIMING.dram_write_ns + occupancy)
    assert t2 - t1 == pytest.approx(occupancy)


def test_memctrl_counters():
    sim = Simulator()
    mc = MemoryController(sim, Memory(1 << 20))
    mc.write(0, b"\x00" * 32)
    mc.read(0, 16)
    sim.run()
    assert mc.writes == 1 and mc.bytes_written == 32
    assert mc.reads == 1 and mc.bytes_read == 16
