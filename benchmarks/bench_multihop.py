"""T-hops -- multi-hop latency (Section VI in-text claim).

Paper: "We also measured multi-hop latencies by binding the benchmark
process to different processor sockets using numactl ... each hop
increases the end-to-end latency by less then 50 ns."
"""

import pytest

from _common import write_result
from repro.bench import run_multihop, table


@pytest.fixture(scope="module")
def hop_points():
    return run_multihop(iters=40)


def test_multihop_latency(benchmark, hop_points):
    points = hop_points
    assert [p.extra_hops for p in points] == [0, 1, 2]
    base = points[0].hrt_ns
    increments = [
        points[i + 1].hrt_ns - points[i].hrt_ns for i in range(len(points) - 1)
    ]
    # --- the claim: each hop adds less than 50 ns -----------------------
    for inc in increments:
        assert 0 < inc < 50.0, f"hop increment {inc:.1f} ns (paper: < 50 ns)"

    rows = [(p.extra_hops, round(p.hrt_ns, 1),
             round(p.hrt_ns - base, 1)) for p in points]
    txt = table(["extra hops", "HRT ns", "delta vs 0 hops"], rows,
                title="Multi-hop latency via numactl binding (reproduced)")
    txt += f"\nper-hop increments: {[round(i, 1) for i in increments]} ns"
    write_result("multihop_latency", txt)

    def kernel():
        return run_multihop(iters=5)

    result = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert result[-1].extra_hops == 2
