"""T-boot -- the Section V boot sequence at increasing scale.

Verifies both prototype configurations' lineage: the full 13-step
sequence (cold reset ... load OS) completes, every designated TCC link
trains non-coherent, and the synchronized-reset scheme holds as boards
are added.
"""

from _common import write_result
from repro.bench.experiments import EXPERIMENTS

BOOT = EXPERIMENTS["boot"]


def test_boot_stages_and_scaling():
    res = BOOT.points(full=True)
    stages, points = res
    order = [
        "cold_reset", "coherent_enumeration", "force_noncoherent",
        "warm_reset", "northbridge_init", "cpu_msr_init", "memory_init",
        "exit_car", "noncoherent_enumeration", "post_init",
    ]
    # --- all stages ran, in order ---------------------------------------
    assert list(stages.keys()) == order
    times = list(stages.values())
    assert times == sorted(times)

    # every TCC link end verified non-coherent
    by_topo = {p.topology: p for p in points}
    assert by_topo["chain(2)"].tcc_links_verified == 2
    assert by_topo["chain(8)"].tcc_links_verified == 14
    assert by_topo["mesh(2x2)"].tcc_links_verified == 8
    assert by_topo["mesh(3x3)"].tcc_links_verified == 24
    # boot time is dominated by the fixed per-board sequence, not N
    assert by_topo["chain(8)"].boot_ns < by_topo["chain(2)"].boot_ns * 2

    write_result(BOOT.result, BOOT.table(res))
