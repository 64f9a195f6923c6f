"""T-ring -- endpoint scaling (Section IV.A).

Paper: "each node has to allocate a 4 KB ring buffer for each endpoint it
want to communicate with.  While this limitation prohibits unlimited
scalability the approach is sufficient to support hundreds of endpoints."
"""

from _common import write_result
from repro.bench.experiments import EXPERIMENTS
from repro.util.units import MiB

ENDPOINTS = EXPERIMENTS["endpoints"]


def test_endpoint_scaling():
    res = ENDPOINTS.points(full=True)
    foot, points = res
    by_n = {f.endpoints: f for f in foot}
    # --- hundreds of endpoints fit comfortably in one node's DRAM -------
    assert by_n[256].ring_bytes == 256 * 4096, "4 KB ring per endpoint"
    assert by_n[256].total_bytes < 64 * MiB
    assert by_n[512].total_bytes < 128 * MiB
    # footprint is linear in the endpoint count (no shared rx state)
    assert by_n[256].ring_bytes == 2 * by_n[128].ring_bytes

    # independent per-sender rings: aggregate grows until the hub's link
    # saturates, and never collapses as senders are added
    assert points[1].aggregate_mbps > points[0].aggregate_mbps * 1.4
    assert points[-1].aggregate_mbps > points[1].aggregate_mbps * 0.9

    write_result(ENDPOINTS.result, ENDPOINTS.table(res))
