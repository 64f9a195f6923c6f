"""A-ord -- the sfence-frequency trade-off between Figure 6's two curves.

Paper Section VI: "Sfence performs a serializing operation on all store
instructions that were issued prior the Sfence instruction which
introduces overhead limiting the write performance to 2000 MB/s.  Higher
bandwidth can be achieved with weakly ordered writes."  The ablation
sweeps the fence interval from every line (strict) to never (weak).
"""

import pytest

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

ORDERING = EXPERIMENTS["ordering"]


def test_ordering_ablation():
    points = ORDERING.points(full=True)
    by_k = {p.fence_interval: p.mbps for p in points}

    # --- the two paper endpoints ----------------------------------------
    assert by_k[1] == pytest.approx(2000, rel=0.03), "strict: 2000 MB/s"
    assert by_k[None] == pytest.approx(5300, rel=0.05), "weak: buffered peak"
    # monotone improvement as fences get rarer
    ordered = [by_k[k] for k in (1, 2, 4, 8, 16, 64)] + [by_k[None]]
    assert ordered == sorted(ordered)
    # diminishing returns: most of the win is gone by interval 16
    assert by_k[16] > 0.85 * by_k[None]

    write_result(ORDERING.result, ORDERING.table(points))
