"""F-future -- link-speed scaling + calibration-knob sensitivity.

The paper's outlook: removing the cable's 1.6 Gbit/s/lane signal-
integrity limit ("Future implementations ... will support higher
frequencies and increased performance") should scale sustained bandwidth
with the link rate and shave serialization off the latency.

The posted-buffer sweep validates DESIGN.md's declared calibration knob:
the Figure 6 peak *position* tracks the buffering, while the peak height
(WC issue rate) and the sustained tail (wire limit) stay put.
"""

import pytest

from _common import write_result
from repro.bench import run_posted_buffer_sweep, table
from repro.bench.experiments import EXPERIMENTS
from repro.util.units import fmt_bytes

FUTURES = EXPERIMENTS["futures"]


def test_link_speed_scaling():
    points = FUTURES.points(full=True)
    assert [p.gbit_per_lane for p in points] == [1.6, 3.6, 5.2]
    # Sustained bandwidth improves once the cable limit is gone, then
    # saturates: with 64-byte posted writes, the northbridge command rate
    # (~20 ns/packet, i.e. ~3.2 GB/s) becomes the bottleneck -- consistent
    # with measured HTX write bandwidth on real Opterons.
    assert points[1].sustained_mbps > 1.1 * points[0].sustained_mbps
    assert points[2].sustained_mbps == pytest.approx(
        points[1].sustained_mbps, rel=0.02
    ), "beyond ~3.6G the wire is no longer the limit"
    # Latency improves by the shrunk serialization share only; the
    # memory/polling path floors it.
    assert points[2].latency_ns < points[0].latency_ns - 20
    assert points[2].latency_ns > points[0].latency_ns / 3.25
    # 64 B message rate is issue-limited, not wire-limited: barely moves.
    assert points[2].small_mbps == pytest.approx(points[0].small_mbps, rel=0.15)

    write_result(FUTURES.result, FUTURES.table(points))


def test_posted_buffer_knob():
    points = run_posted_buffer_sweep(buffer_packets=(512, 2048, 4096))
    # Peak position tracks the buffer capacity...
    positions = [p.peak_at_bytes for p in points]
    assert positions == sorted(positions)
    assert positions[0] < positions[-1]
    # ...peak height is the WC issue rate regardless...
    for p in points:
        assert p.peak_mbps == pytest.approx(5333, rel=0.05)
    # ...and the sustained tail is wire-limited regardless.
    for p in points:
        assert p.sustained_mbps == pytest.approx(points[0].sustained_mbps,
                                                 rel=0.12)

    rows = [(p.buffer_packets, fmt_bytes(p.buffer_bytes),
             fmt_bytes(p.peak_at_bytes), round(p.peak_mbps),
             round(p.sustained_mbps)) for p in points]
    txt = table(
        ["buffer pkts", "buffer", "peak at", "peak MB/s", "sustained MB/s"],
        rows, title="Posted-buffer calibration-knob sensitivity")
    write_result("futures_buffer_knob", txt)
