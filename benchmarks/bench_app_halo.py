"""F-app -- application-level comparison (paper Section VII outlook).

The same MPI Jacobi halo-exchange kernel, byte-for-byte, over the
TCCluster blade mesh and over NIC fabrics.  Halo traffic is small and
latency-bound, so the NIC's per-message initiation cost dominates and
TCCluster's advantage carries from microbenchmark to application.
"""

import pytest

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

APP = EXPERIMENTS["app"]


def test_application_halo_comparison():
    results = APP.points(full=True)
    by = {r.fabric: r for r in results}
    tcc = by["TCCluster"]
    ib = by["ConnectX IB"]
    tengbe = by["10GbE TCP"]

    # --- identical numerics on every fabric (same kernel!) --------------
    assert tcc.final_residual == pytest.approx(ib.final_residual, rel=1e-12)
    assert tcc.final_residual == pytest.approx(tengbe.final_residual, rel=1e-12)
    # --- the latency advantage survives at application level -----------
    assert ib.per_iter_ns / tcc.per_iter_ns > 2.5
    assert tengbe.per_iter_ns / tcc.per_iter_ns > 20

    write_result(APP.result, APP.table(results))
