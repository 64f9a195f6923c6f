"""T-ib -- TCCluster vs Infiniband ConnectX (and Ethernet) baselines.

Paper anchors (Section VI):
* ConnectX: "MPI bandwidth of 2500 MB/s for 1 MB messages, 1500 MB/s for
  1K messages and 200 MB/s for cacheline sized messages",
* "TCCluster provides a significant performance edge over Infiniband
  especially for small messages" (>10x at 64 B),
* latency: IB ~1-1.4 us vs TCCluster 227 ns -> ~4-6x advantage.
"""

import pytest

from _common import write_result
from repro.baselines import CONNECTX_IB
from repro.bench import run_nic_des_bandwidth, run_nic_des_latency
from repro.bench.experiments import EXPERIMENTS

IB = EXPERIMENTS["ib"]


def test_nic_model_matches_paper_quotes():
    """The DES NIC must land on the paper's quoted ConnectX numbers."""
    assert run_nic_des_bandwidth(CONNECTX_IB, 64) == pytest.approx(200, rel=0.15)
    assert run_nic_des_bandwidth(CONNECTX_IB, 1024) == pytest.approx(1500, rel=0.15)
    assert run_nic_des_bandwidth(CONNECTX_IB, 1 << 20) == pytest.approx(2500, rel=0.05)
    assert run_nic_des_latency(CONNECTX_IB, 64) == pytest.approx(1400, rel=0.05)


def test_baseline_comparison():
    comp = IB.points(full=True)
    ib_rows = [r for r in comp["bandwidth"] if r.baseline == "ConnectX IB"]
    by_size = {r.size: r for r in ib_rows}

    # --- who wins, by what factor ----------------------------------------
    assert by_size[64].ratio > 10, "paper: order-of-magnitude edge at 64 B"
    assert by_size[1024].ratio > 3
    assert by_size[1 << 20].ratio > 1, "TCC still ahead at 1 MB"
    # the advantage shrinks with size: the crossover direction is right
    ratios = [r.ratio for r in ib_rows]
    assert ratios == sorted(ratios, reverse=True)

    ib_lat = [r for r in comp["latency"] if r.baseline == "ConnectX IB"][0]
    assert 4 <= ib_lat.ratio <= 8, \
        f"paper: ~4x latency advantage (vs 1 us IB); got {ib_lat.ratio:.1f}x vs 1.4 us"

    write_result(IB.result, IB.table(comp))
