"""Boot-image oracle: ``restore(capture(boot()))`` must equal ``boot()``.

The property is bit-exactness, checked two ways:

* **state fingerprint** -- every register, MTRR, memory page, cache
  line, NB/memctrl counter, link persona/stat/RNG state, and the
  virtual-clock quadruple of the restored system equal the cold-booted
  one's at the drained post-boot point;
* **downstream trace** -- an identical message workload run on both
  systems finishes at the same virtual times with the same calendar
  event and push counts (restore rebases the clock to the capture
  point, so even the *absolute* counters line up).

Parameterized over mesh2d/torus2d/torus3d shapes and the SimFeatures
fast-path switches; a chaos-compatibility case proves a fault plan
armed after restore fires and recovers identically to one armed after
a cold boot.
"""

import pytest

from repro.cluster.snapshot import (
    SnapshotError,
    capture_image,
    clear_image_cache,
    image_for,
    restore_image,
)
from repro.cluster.system import TCCluster
from repro.obs.metrics import boot_image_counters, fault_counters
from repro.sim import Simulator
from repro.topology import chain, mesh2d, torus2d, torus3d
from repro.util.calibration import DEFAULT_TIMING
from repro.util.units import KiB


def _system(topo_name, features):
    topo, nps = {
        "proto2": (chain(2, node=1, left_port=2, right_port=2), 2),
        "mesh3x3": (mesh2d(3, 3), 1),
        "torus4x4": (torus2d(4, 4), 1),
        "torus222": (torus3d(2, 2, 2), 1),
    }[topo_name]
    sim = Simulator()
    for name, value in features.items():
        setattr(sim.features, name, value)
    return TCCluster(topo, nodes_per_supernode=nps, sim=sim)


def _fingerprint(cl):
    """Full architectural-state digest of a drained cluster."""
    out = {}
    for r in cl.ranks:
        c = r.chip
        out[f"regs{r.rank}"] = sorted(c.regs._regs.items())
        out[f"pages{r.rank}"] = {n: bytes(p) for n, p in c.memory._pages.items()}
        out[f"mtrr{r.rank}"] = [(m.base, m.size, m.mtype) for m in c.mtrr.ranges]
        out[f"nbc{r.rank}"] = dict(c.nb.counters._counts)
        out[f"mc{r.rank}"] = (c.memctrl._busy_until, c.memctrl.reads,
                              c.memctrl.writes, c.memctrl.bytes_read,
                              c.memctrl.bytes_written)
        out[f"caches{r.rank}"] = [(list(l._lines.keys()), l.hits, l.misses)
                                  for l in c.caches.levels]
    for l in cl._all_links():
        out[f"link:{l.name}"] = (
            l.state, l.link_type, l.width_bits, l.gbit_per_lane,
            l._rng.getstate(),
            {s: (d.stats.packets, d.stats.busy_ns)
             for s, d in l._dirs.items()})
    out["clock"] = (cl.sim._now, cl.sim._seq,
                    cl.sim._event_count, cl.sim._push_count)
    return out


def _workload(cl, nbytes=32 * KiB):
    """The canonical downstream trace: one eager+rendezvous message
    between ranks 0 and 1; returns completion times and clock state."""
    ep0 = cl.library(0).connect(1)
    ep1 = cl.library(1).connect(0)
    payload = bytes(range(256)) * (nbytes // 256)
    done = {}

    def sender():
        yield from ep0.send(payload)
        done["sent"] = cl.sim.now

    def receiver():
        msg = yield from ep1.recv()
        done["recv"] = (cl.sim.now, len(msg))

    cl.sim.process(receiver(), name="rx")
    cl.sim.process(sender(), name="tx")
    cl.sim.run()
    return done, cl.sim.event_count, cl.sim._push_count, cl.sim.now


FEATURE_COMBOS = {
    "default": {},
    "legacy": {"adaptive_fidelity": False},
}


@pytest.mark.parametrize("features", sorted(FEATURE_COMBOS))
@pytest.mark.parametrize("topo", ["mesh3x3", "torus4x4", "torus222"])
def test_restore_is_bit_exact(topo, features):
    cold = _system(topo, FEATURE_COMBOS[features]).boot()
    cold.sim.run()
    image = capture_image(cold)
    restored = restore_image(image)
    assert restored.restored_from_image
    assert restored.restore_event_count > 0

    fp_cold, fp_rest = _fingerprint(cold), _fingerprint(restored)
    assert sorted(fp_cold) == sorted(fp_rest)
    for key in fp_cold:
        assert fp_cold[key] == fp_rest[key], f"state diverged at {key}"

    # Identical downstream canonical trace: same virtual times, same
    # absolute event/push counts (the clock was rebased to the capture
    # point), same final time.
    assert _workload(cold) == _workload(restored)


def test_restore_prototype_with_image_api():
    """The public API path: system-level capture + from_image."""
    from repro.core import TCClusterSystem

    cold = TCClusterSystem.two_board_prototype().boot()
    image = cold.capture_image()
    restored = TCClusterSystem.from_image(image)
    assert _workload(cold.cluster) == _workload(restored.cluster)


def test_chaos_after_restore_matches_cold_boot():
    """A fault plan armed after restore fires and recovers identically
    to the same plan armed after a cold boot."""
    from repro.faults import FaultInjector, FaultKind, FaultPlan

    def run(cl):
        plan = (FaultPlan()
                .add(5_000.0, FaultKind.LINK_FLAP, 0, duration_ns=3_000.0)
                .add(20_000.0, FaultKind.CREDIT_STALL, 0,
                     duration_ns=2_000.0))
        inj = FaultInjector(cl, plan)
        inj.arm()
        result = _workload(cl, nbytes=64 * KiB)
        fired = [(t, ev.kind) for t, ev in inj.fired]
        return result, fired, fault_counters(cl.sim).as_dict()

    cold = TCCluster(torus2d(4, 4)).boot()
    cold.sim.run()
    image = capture_image(cold)
    restored = restore_image(image)

    res_cold = run(cold)
    res_restored = run(restored)
    assert res_cold == res_restored


def test_capture_requires_booted_cluster():
    cl = TCCluster(mesh2d(2, 2))
    with pytest.raises(SnapshotError):
        capture_image(cl)


def test_image_cache_and_counters():
    clear_image_cache()
    ctr = boot_image_counters()
    b0, h0, r0 = ctr.built, ctr.cache_hits, ctr.restored

    topo = mesh2d(2, 2)
    img1 = image_for(topo)
    img2 = image_for(mesh2d(2, 2))
    assert img1 is img2
    assert ctr.built == b0 + 1
    assert ctr.cache_hits == h0 + 1

    # A different timing model is a different signature -> new image.
    img3 = image_for(mesh2d(2, 2),
                     timing=DEFAULT_TIMING.scaled(link_width_bits=8))
    assert img3 is not img1
    assert img3.signature != img1.signature
    assert ctr.built == b0 + 2

    restore_image(img1)
    assert ctr.restored == r0 + 1
    clear_image_cache()


def test_restored_prototype_fixture(restored_prototype):
    """The opt-in conftest fixture hands out restored, working systems."""
    assert restored_prototype.cluster.restored_from_image
    a, b = restored_prototype.compute_ranks()[:2]
    tx, rx = restored_prototype.connect(a, b)
    out = []

    def sender():
        yield from tx.send(b"image-restored")

    def receiver():
        out.append((yield from rx.recv()))

    restored_prototype.process(sender)
    done = restored_prototype.process(receiver)
    restored_prototype.run_until(done)
    assert out == [b"image-restored"]


def test_restored_mesh_fixture(restored_mesh):
    assert restored_mesh.cluster.restored_from_image
    assert restored_mesh.nranks == 4
