"""Figure 6 -- TCCluster bandwidth vs message size, both ordering modes.

Paper anchors (Section VI + abstract):
* weakly ordered sustains ~2700 MB/s; ~2500 MB/s already at 64 B,
* a buffering peak of ~5300 MB/s observed at 256 KB,
* strictly ordered (sfence per cache line) limited to ~2000 MB/s.
"""

import pytest

from _common import write_result
from repro.bench.experiments import EXPERIMENTS
from repro.util.units import KiB, MiB

FIG6 = EXPERIMENTS["fig6"]


def test_fig6_bandwidth():
    # TCC_PARALLEL=N (or "auto") fans the 34 points (64 B .. 4 MiB x both
    # modes) out across N worker processes; per-point results do not
    # depend on it.
    points = FIG6.points(full=True)
    weak = {p.size: p.mbps for p in points if p.mode == "weak"}
    strict = {p.size: p.mbps for p in points if p.mode == "strict"}
    sizes = sorted(weak)

    # --- shape assertions against the paper's anchors -------------------
    assert weak[64] == pytest.approx(2500, rel=0.10), "64 B point (abstract: 2500 MB/s)"
    assert max(weak.values()) == pytest.approx(5300, rel=0.05), "peak ~5300 MB/s"
    peak_size = max(weak, key=weak.get)
    assert 4 * KiB <= peak_size <= 256 * KiB, "peak in the buffered regime"
    assert weak[256 * KiB] == pytest.approx(5300, rel=0.05), "256 KB point"
    assert weak[4 * MiB] == pytest.approx(2700, rel=0.06), "sustained ~2700 MB/s"
    assert weak[4 * MiB] > weak[1 * MiB] * 0.8  # declining toward sustained
    assert strict[4 * MiB] == pytest.approx(2000, rel=0.03), "strict plateau 2000"
    assert all(strict[s] <= weak[s] * 1.01 for s in sizes), "strict never wins"
    # strictly ordered is monotone toward its plateau
    svals = [strict[s] for s in sizes]
    assert all(b >= a - 1 for a, b in zip(svals, svals[1:]))

    write_result(FIG6.result, FIG6.table(points))
