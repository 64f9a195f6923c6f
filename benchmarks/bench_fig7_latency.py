"""Figure 7 -- TCCluster half-round-trip latency vs message size.

Paper anchors (Section VI):
* 227 ns for 64-byte packets,
* below 1 us for 1 KByte messages,
* latency grows linearly with size (wire-limited slope).

The results file adds the raw remote-store ping-pong (no library).
"""

import pytest

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

FIG7 = EXPERIMENTS["fig7"]


def test_fig7_latency():
    res = FIG7.points(full=True)
    points, _raw = res
    by_wire = {p.wire_bytes: p.hrt_ns for p in points}

    # --- shape assertions -------------------------------------------------
    assert by_wire[64] == pytest.approx(227, rel=0.08), \
        "64-byte packet half round trip (paper: 227 ns)"
    assert by_wire[1024] < 1000, "paper: below 1 us for 1 KB messages"
    hrts = [p.hrt_ns for p in points]
    assert all(b > a for a, b in zip(hrts, hrts[1:])), "monotone in size"
    # Asymptotic slope approaches the wire rate (~0.37 ns/B one way).
    slope = (by_wire[64 * 64] - by_wire[16 * 64]) / (64 * 64 - 16 * 64)
    assert 0.30 < slope < 0.55, f"wire-limited slope, got {slope:.3f} ns/B"

    write_result(FIG7.result, FIG7.table(res))
