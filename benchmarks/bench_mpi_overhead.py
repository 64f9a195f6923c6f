"""F-mpi -- the middleware overhead the paper's evaluation excludes.

Section VI: "our evaluation does not include the overhead of the MPI
middleware".  We measure it: mini-MPI adds an 8-byte envelope plus tag
matching on top of the raw library; the cost is tens of nanoseconds and
shrinks (relatively) with message size.
"""

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

MPI = EXPERIMENTS["mpi"]


def test_mpi_overhead():
    points = MPI.points(full=True)
    for p in points:
        # MPI is strictly slower than the raw library, but not wildly so.
        assert p.mpi_hrt_ns > p.msglib_hrt_ns
        assert p.overhead_ns < 250, f"MPI adds {p.overhead_ns:.0f} ns"
    # Relative overhead shrinks as payload grows.
    rels = [p.overhead_pct for p in points]
    assert rels[-1] < rels[0]

    write_result(MPI.result, MPI.table(points))
