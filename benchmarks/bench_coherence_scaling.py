"""T-coh -- the motivation: coherence overhead grows with node count.

Paper Sections I/III: probe broadcast makes shared memory viable only to
~8 sockets; directory schemes (Horus) "moderately increase the
scalability to 32 nodes"; TCCluster sidesteps both because message
passing has no probe term.
"""

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

COH = EXPERIMENTS["coherence"]


def test_coherence_scaling():
    points = COH.points(full=True)
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

    write_result(COH.result, COH.table(points))
