"""Tests for units, bitfields, calibration and trace/stats utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, IntervalAccumulator, Tracer
from repro.util import (
    CACHELINE,
    bandwidth_mbps,
    fmt_bytes,
    fmt_time_ns,
    gbit_per_s_to_bytes_per_ns,
    get_bits,
    mask,
    set_bits,
)
from repro.util.calibration import DEFAULT_TIMING, TimingModel


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def test_bandwidth_mbps():
    assert bandwidth_mbps(64, 25.5) == pytest.approx(2509.8, rel=1e-3)
    with pytest.raises(ValueError):
        bandwidth_mbps(64, 0)


def test_gbit_conversion():
    # 16 lanes x 1.6 Gbit/s = 3.2 bytes/ns
    assert 16 * gbit_per_s_to_bytes_per_ns(1.6) == pytest.approx(3.2)


def test_fmt_bytes():
    assert fmt_bytes(64) == "64B"
    assert fmt_bytes(4096) == "4K"
    assert fmt_bytes(256 * 1024) == "256K"
    assert fmt_bytes(1 << 20) == "1M"
    assert fmt_bytes(1 << 30) == "1G"


def test_fmt_time():
    assert fmt_time_ns(227) == "227 ns"
    assert fmt_time_ns(1400) == "1.40 us"
    assert fmt_time_ns(2_500_000) == "2.50 ms"
    assert fmt_time_ns(3_000_000_000) == "3.000 s"


def test_cacheline_is_64():
    assert CACHELINE == 64


# ---------------------------------------------------------------------------
# Bitfields
# ---------------------------------------------------------------------------

def test_mask_and_bits():
    assert mask(0) == 0
    assert mask(6) == 0x3F
    v = set_bits(0, 4, 8, 0xAB)
    assert get_bits(v, 4, 8) == 0xAB
    assert get_bits(v, 0, 4) == 0


def test_set_bits_overflow_rejected():
    with pytest.raises(ValueError):
        set_bits(0, 0, 4, 16)


@given(lo=st.integers(0, 24), width=st.integers(1, 8),
       value=st.integers(0, 255), base=st.integers(0, (1 << 32) - 1))
@settings(max_examples=200)
def test_set_get_roundtrip_property(lo, width, value, base):
    value &= mask(width)
    out = set_bits(base, lo, width, value)
    assert get_bits(out, lo, width) == value
    # other bits untouched
    m = mask(width) << lo
    assert (out & ~m) == (base & ~m)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def test_timing_wire_math():
    t = DEFAULT_TIMING
    assert t.link_bytes_per_ns == pytest.approx(3.2)
    assert t.wire_bytes(64) == 76
    assert t.serialization_ns(64) == pytest.approx(23.75)
    # the sustained-rate anchor: 64/23.75 ~ 2695 MB/s
    assert 64 / t.serialization_ns(64) * 1000 == pytest.approx(2694.7, rel=1e-3)


def test_timing_scaled_override():
    t = DEFAULT_TIMING.scaled(link_gbit_per_lane=5.2)
    assert t.link_bytes_per_ns == pytest.approx(10.4)
    assert DEFAULT_TIMING.link_gbit_per_lane == 1.6  # original untouched


def test_timing_payload_bounds():
    with pytest.raises(ValueError):
        DEFAULT_TIMING.wire_bytes(65)


# ---------------------------------------------------------------------------
# Trace / stats
# ---------------------------------------------------------------------------

def test_tracer_collects_and_filters():
    tr = Tracer()
    tr.emit(1.0, "link", "tx", 1)
    tr.emit(2.0, "link", "rx", 2)
    tr.emit(3.0, "nb", "route", 3)
    assert len(tr) == 3
    assert [r.time for r in tr.by_component("link")] == [1.0, 2.0]
    assert tr.counts()[("link", "tx")] == 1
    tr.add_filter(lambda r: r.event == "tx")
    tr.emit(4.0, "link", "rx", 4)
    assert len(tr) == 3  # filtered out


def test_tracer_disabled_is_noop():
    tr = Tracer(enabled=False)
    tr.emit(1.0, "x", "y")
    assert len(tr) == 0


def test_tracer_keep_limit():
    tr = Tracer(keep=2)
    for i in range(5):
        tr.emit(float(i), "c", "e")
    assert len(tr) == 2
    assert tr.records[0].time == 3.0


def test_counter():
    c = Counter()
    c.inc("a")
    c.inc("a", 4)
    assert c["a"] == 5
    assert c["missing"] == 0
    c.reset()
    assert c.as_dict() == {}


def test_interval_accumulator():
    acc = IntervalAccumulator()
    acc.update(0.0, 2.0)
    acc.update(10.0, 4.0)
    # 0..10 at depth 2, 10..20 at depth 4 -> average 3 over 20
    assert acc.average(20.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        acc.update(5.0, 1.0)  # time went backwards
