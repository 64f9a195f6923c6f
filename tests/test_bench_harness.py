"""Smoke tests for the benchmark harnesses (small parameterizations).

The full sweeps with their shape assertions live in benchmarks/; these
tests keep the harness code itself exercised by the unit suite.
"""

import pytest

from repro.bench import (
    endpoint_footprint_table,
    header,
    make_prototype,
    run_bandwidth_sweep,
    run_latency_sweep,
    run_msglib_latency,
    run_multihop,
    run_ordering_ablation,
    run_wc_ablation,
    series_plot,
    table,
    tcc_op_latency_ns,
)
from repro.util.units import KiB


@pytest.fixture(scope="module")
def system():
    return make_prototype()


def test_bandwidth_sweep_small(system):
    pts = run_bandwidth_sweep(sizes=(64, 4096), modes=("weak", "strict"),
                              system=system)
    assert len(pts) == 4
    weak64 = next(p for p in pts if p.mode == "weak" and p.size == 64)
    strict64 = next(p for p in pts if p.mode == "strict" and p.size == 64)
    assert weak64.mbps > strict64.mbps
    assert weak64.mbps == pytest.approx(2510, rel=0.05)


def test_latency_sweep_small(system):
    pts = run_latency_sweep(sizes=(64,), iters=10, system=system)
    assert 100 < pts[0].hrt_ns < 250


def test_msglib_latency_reuses_system(system):
    a = run_msglib_latency(slot_counts=(1,), iters=5, system=system)
    b = run_msglib_latency(slot_counts=(1,), iters=5, system=system)
    assert a[0].hrt_ns == pytest.approx(b[0].hrt_ns, rel=0.25)


def test_multihop_increments_positive():
    pts = run_multihop(iters=8)
    assert pts[0].hrt_ns < pts[1].hrt_ns < pts[2].hrt_ns


def test_wc_ablation_small():
    pts = run_wc_ablation(size=8 * KiB)
    by = {p.mapping: p for p in pts}
    assert by["WC"].mbps > 3 * by["UC"].mbps


def test_ordering_ablation_small():
    pts = run_ordering_ablation(intervals=(1, None), size=8 * KiB)
    assert pts[0].mbps < pts[1].mbps


def test_eager_threshold_default_is_justified():
    """At ~2 KB the rendezvous path already beats multi-slot eager --
    the library's 1 KiB default cutoff is on the right side."""
    from repro.bench.msglib_bench import run_eager_threshold_sweep

    pts = run_eager_threshold_sweep(iters=8)
    rdzv = next(p for p in pts if p.protocol == "rendezvous")
    eager = next(p for p in pts if p.protocol == "eager")
    assert rdzv.hrt_ns < eager.hrt_ns


def test_endpoint_footprint_linear():
    foot = endpoint_footprint_table((2, 4, 8))
    assert foot[1].ring_bytes == 2 * foot[0].ring_bytes


def test_tcc_op_latency_grows_slowly():
    assert tcc_op_latency_ns(64) < 2 * tcc_op_latency_ns(2)


def test_latency_anatomy_accounts_for_every_ns():
    from repro.bench.anatomy import run_latency_anatomy

    a = run_latency_anatomy()
    # Stages tile the interval exactly: no gap, no overlap, no slack.
    cursor = 0.0
    for s in a.stages:
        assert s.start_ns == pytest.approx(cursor, abs=1e-9)
        assert s.duration_ns > 0
        cursor = s.end_ns
    assert cursor == pytest.approx(a.total_ns)
    # One-way anatomy sits below the ping-pong HRT (which adds response
    # send costs) but in the same regime.
    assert 120 < a.total_ns < 260


def test_dse_grid_small():
    """The design-space sweep runs a tiny one-width grid end to end, and
    refuses a width above the link capability before booting anything
    (the default grid must stay within it)."""
    from repro.bench.dse import DseConfig, run_dse

    report = run_dse(DseConfig(link_width_bits=(16,), bw_size=4 * KiB,
                               lat_iters=2), jobs=1)
    assert len(report.points) == 1 and not report.violations
    (p,) = report.points
    assert p.bandwidth_mbps > 0 and p.latency_ns > 0
    DseConfig().specs()
    with pytest.raises(ValueError, match="16-bit link capability"):
        DseConfig(link_width_bits=(32,)).specs()


def test_dse_recovery_stall_times_the_last_commit():
    """The recovery axis times each stream to the commit of its last
    line and flaps the first TCC link of the measured route.  A 3 us
    flap on proto2 then costs the same stall whatever the stream size
    (the northbridge's link-down timeout, still queued after the
    retrain, no longer ends the stream), and on mesh2d(2,2), whose
    route does not cross link 0, the flap still stalls the stream."""
    from repro.bench.dse import dse_point

    stalls = [dse_point("proto2", 16, 1.6, 8, 4 * KiB, bw_size=size,
                        lat_iters=2).recovery_stall_ns
              for size in (32 * KiB, 64 * KiB)]
    assert stalls == [3496.4, 3496.4]
    mesh = dse_point("mesh2d(2,2)", 16, 1.6, 8, 4 * KiB, bw_size=32 * KiB,
                     lat_iters=2)
    assert mesh.recovery_stall_ns == 3501.8


def test_reporting_table_alignment():
    txt = table(["a", "bb"], [(1, 2.5), (10, 33333.0)], title="T")
    lines = txt.splitlines()
    assert lines[0] == "T"
    assert "33,333" in txt


def test_reporting_series_plot():
    txt = series_plot(["x", "y"], [1.0, 2.0], width=10, label="L")
    assert txt.startswith("L")
    assert txt.count("|") == 2


def test_reporting_header():
    h = header("Title")
    assert h.splitlines()[0] == "=" * 5
