"""T-coh -- the motivation: coherence overhead grows with node count.

Paper Sections I/III: probe broadcast makes shared memory viable only to
~8 sockets; directory schemes (Horus) "moderately increase the
scalability to 32 nodes"; TCCluster sidesteps both because message
passing has no probe term.
"""

import pytest

from _common import write_result
from repro.bench import run_coherence_scaling, table

NODES = (2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def scaling_points():
    return run_coherence_scaling(node_counts=NODES, ops_per_node=40)


def test_coherence_scaling(benchmark, scaling_points):
    points = scaling_points
    bc = {p.nodes: p for p in points if p.protocol == "broadcast"}
    dr = {p.nodes: p for p in points if p.protocol == "directory"}
    tcc = {p.nodes: p for p in points if p.protocol == "tccluster"}

    # --- probe counts grow proportionally with N (broadcast) -----------
    assert bc[64].probes_per_op > bc[8].probes_per_op * 4
    # broadcast latency blows up super-linearly in the probed regime
    assert bc[64].avg_op_ns > bc[8].avg_op_ns * 4
    # directory stays well below broadcast at scale...
    assert dr[64].avg_op_ns < bc[64].avg_op_ns * 0.75
    assert dr[64].probes_per_op < bc[64].probes_per_op / 4
    # ...but TCCluster's per-op cost grows only with topology distance
    assert tcc[64].avg_op_ns < tcc[2].avg_op_ns * 2.5
    assert tcc[64].avg_op_ns < bc[64].avg_op_ns
    # crossover: small systems favour shared memory (the paper concedes
    # SMPs perform well "for small scale systems of up to 8 or 16 nodes")
    assert bc[2].avg_op_ns < tcc[2].avg_op_ns

    rows = []
    for n in NODES:
        rows.append((n, round(bc[n].avg_op_ns, 1), round(bc[n].probes_per_op, 1),
                     round(dr[n].avg_op_ns, 1), round(tcc[n].avg_op_ns, 1)))
    txt = table(
        ["nodes", "broadcast ns/op", "probes/op", "directory ns/op",
         "tccluster ns/op"],
        rows,
        title="Coherence scaling: why TCCluster abandons cache coherence",
    )
    write_result("coherence_scaling", txt)

    def kernel():
        return run_coherence_scaling(node_counts=(8,), ops_per_node=20,
                                     protocols=("broadcast",))

    result = benchmark(kernel)
    assert result[0].nodes == 8
