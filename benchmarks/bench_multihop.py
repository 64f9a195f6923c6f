"""T-hops -- multi-hop latency (Section VI in-text claim).

Paper: "We also measured multi-hop latencies by binding the benchmark
process to different processor sockets using numactl ... each hop
increases the end-to-end latency by less then 50 ns."
"""

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

HOPS = EXPERIMENTS["hops"]


def test_multihop_latency():
    points = HOPS.points(full=True)
    assert [p.extra_hops for p in points] == [0, 1, 2]
    # --- the claim: each hop adds less than 50 ns -----------------------
    for a, b in zip(points, points[1:]):
        inc = b.hrt_ns - a.hrt_ns
        assert 0 < inc < 50.0, f"hop increment {inc:.1f} ns (paper: < 50 ns)"

    write_result(HOPS.result, HOPS.table(points))
