"""A-wc -- write-combining ablation.

Paper Section VI: "Our approach makes intensive use of the write
combining capability to generate maximum sized HyperTransport packets
which reduce the command overhead."  Disabling WC (UC mapping) turns
every 8-byte store into its own posted write: 8x the packets, ~10x less
bandwidth.
"""

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

WC = EXPERIMENTS["wc"]


def test_wc_ablation():
    ablation_points = WC.points(full=True)
    points = {p.mapping: p for p in ablation_points}
    wc, uc = points["WC"], points["UC"]

    # --- combining produces maximum-sized packets -----------------------
    assert wc.packets == wc.size // 64, "one 64 B posted write per line"
    assert uc.packets == uc.size // 8, "one posted write per 8 B store"
    assert uc.packets == 8 * wc.packets
    # and the bandwidth benefit is large
    assert wc.mbps / uc.mbps > 5, f"WC speedup only {wc.mbps / uc.mbps:.1f}x"

    write_result(WC.result, WC.table(ablation_points))
