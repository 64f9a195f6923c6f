"""Property-based routing invariants for the folded interval scheme.

Hand-written goldens cannot cover 512-node route tables, so the torus
tentpole is gated by seeded random probes checked against four oracles:

* **termination** -- every (source, destination-address) walk over the
  planned register contents reaches *some* DRAM directive within the
  topology's hop diameter (no loops, no unmapped holes);
* **owner delivery** -- the walk arrives at the supernode that owns the
  address in the global map;
* **folded == naive** -- the exit the folded MMIO intervals pick for an
  address equals the exit of the naive per-destination next-hop table
  (``ClusterTopology.shortest_next_hops``), i.e. folding loses nothing;
* **route-around** -- after k seeded link deaths the rewritten intervals
  still satisfy termination + owner delivery for every reachable pair,
  and unreachable pairs are *unmapped* (the sync-flood condition), never
  misdelivered.

The fast subset runs in tier-1; the 50-seed sweep rides the ``slow``
marker (CI's routing-properties nightly step).
"""

import random

import pytest

from repro.opteron.registers import NUM_MMIO_ENTRIES
from repro.topology import (
    chain,
    exit_intervals,
    folded_mmio_bound,
    mesh2d,
    ring,
    torus2d,
    torus3d,
    uniform_cluster,
)
from repro.util.units import MiB

M = 16 * MiB  # minimal slab granularity keeps the address arithmetic cheap

# (id, factory, nodes_per_supernode)
FAST_TOPOS = [
    ("chain4", lambda: chain(4), 1),
    ("ring5", lambda: ring(5), 1),
    ("mesh3x3", lambda: mesh2d(3, 3), 1),
    ("mesh2x5", lambda: mesh2d(2, 5), 1),
    ("torus2x2", lambda: torus2d(2, 2), 1),
    ("torus4x4", lambda: torus2d(4, 4), 1),
    ("torus2x2x2", lambda: torus3d(2, 2, 2), 2),
    ("torus3x3x3", lambda: torus3d(3, 3, 3), 2),
]
SLOW_EXTRA = [
    ("chain9", lambda: chain(9), 1),
    ("ring8", lambda: ring(8), 1),
    ("mesh6x6", lambda: mesh2d(6, 6), 1),
    ("torus4x5", lambda: torus2d(4, 5), 1),
    ("torus4x4x4", lambda: torus3d(4, 4, 4), 2),
    ("torus8x8x8", lambda: torus3d(8, 8, 8), 2),
]
ALL_TOPOS = FAST_TOPOS + SLOW_EXTRA


def _params(topos):
    return [pytest.param(factory, nps, id=name) for name, factory, nps in topos]


# ---------------------------------------------------------------------------
# Plan walkers (pure checks over register contents, no DES)
# ---------------------------------------------------------------------------

def _edge_index(topo):
    """(supernode, node, port) -> edge, for following MMIO exits."""
    idx = {}
    for e in topo.edges:
        for ep in (e.a, e.b):
            idx[(ep.supernode, ep.node, ep.port)] = e
    return idx


def walk_plan(amap, src, addr, max_hops):
    """Follow the boot-time plans; returns (arrival_supernode, hops)."""
    idx = _edge_index(amap.topology)
    s, node, hops = src, 0, 0
    while True:
        plan = amap.plan_for(s, node)
        if any(d.base <= addr < d.limit for d in plan.dram):
            return s, hops
        exit_ = next((m for m in plan.mmio if m.base <= addr < m.limit), None)
        assert exit_ is not None, (
            f"address {addr:#x} unmapped at supernode {s} node {node}"
        )
        edge = idx.get((s, exit_.exit_node, exit_.exit_port))
        assert edge is not None, "MMIO directive points at a missing link"
        other = edge.other(s)
        s, node = other.supernode, other.node
        hops += 1
        assert hops <= max_hops, f"routing loop: {hops} hops to {addr:#x}"


def walk_fault_maps(topo, ranges, maps, src, addr, max_hops):
    """Follow per-supernode post-fault exit intervals; returns the
    arrival supernode, or None if the walk hits an unmapped window."""
    idx = _edge_index(topo)
    s, hops = src, 0
    while True:
        if ranges[s][0] <= addr < ranges[s][1]:
            return s
        exit_ = None
        for (node, port), runs in maps[s].items():
            if any(b <= addr < l for b, l in runs):
                exit_ = (node, port)
                break
        if exit_ is None:
            return None
        edge = idx.get((s, exit_[0], exit_[1]))
        assert edge is not None
        s = edge.other(s).supernode
        hops += 1
        assert hops <= max_hops, "routing loop in post-fault walk"


def _probes(rng, amap, n):
    """Seeded (src, addr) probe pairs spread over the global space."""
    topo = amap.topology
    out = []
    for _ in range(n):
        src = rng.randrange(topo.num_supernodes)
        dst = rng.randrange(topo.num_supernodes)
        base, limit = amap.supernode_ranges[dst]
        addr = rng.randrange(base, limit) & ~0x3F
        out.append((src, dst, addr))
    return out


def check_invariants(topo, nps, seed, n_probes=60):
    """Termination + owner delivery + folded==naive for one seed."""
    rng = random.Random(seed)
    amap = uniform_cluster(topo, M, nodes_per_supernode=nps)
    diam = topo.diameter()
    for src, dst, addr in _probes(rng, amap, n_probes):
        arrived, hops = walk_plan(amap, src, addr, max_hops=diam)
        assert arrived == dst, f"{addr:#x} delivered to {arrived}, owner {dst}"
        if src == dst:
            assert hops == 0
        else:
            assert hops == topo.hop_distance(src, dst)
            # folded MMIO lookup == naive per-destination table
            naive = topo.shortest_next_hops(src)[dst].end_at(src)
            plan = amap.plan_for(src, 0)
            m = next(m for m in plan.mmio if m.base <= addr < m.limit)
            assert (m.exit_node, m.exit_port) == (naive.node, naive.port)


def check_route_around(topo, nps, seed, kills, n_probes=40, require_fit=False):
    """Seeded link deaths: reachable pairs still deliver, unreachable
    pairs are unmapped at the point the walk strands.

    The abstract post-fault map is always delivery-correct; whether it
    *fits* the 16-entry register file is a separate question.  At large
    scale BFS detours can fragment the intervals past the register file,
    which is exactly when ``RouteManager._reprogram`` degrades the
    supernode to the sync-flood path instead of programming a wrong map
    -- so fit is only asserted where the caller knows the scale
    guarantees it (``require_fit``)."""
    rng = random.Random(seed)
    amap = uniform_cluster(topo, M, nodes_per_supernode=nps)
    ranges = amap.supernode_ranges
    dead = rng.sample(topo.edges, min(kills, len(topo.edges)))
    maps = {s: exit_intervals(topo, ranges, s, exclude=dead)
            for s in range(topo.num_supernodes)}
    if require_fit:
        for runs_by_exit in maps.values():
            n_runs = sum(len(r) for r in runs_by_exit.values())
            assert n_runs <= NUM_MMIO_ENTRIES
    bound = topo.num_supernodes + topo.diameter()
    for src, dst, addr in _probes(rng, amap, n_probes):
        reachable = dst == src or dst in topo.shortest_next_hops(
            src, exclude=dead)
        arrived = walk_fault_maps(topo, ranges, maps, src, addr, bound)
        if reachable:
            assert arrived == dst, (
                f"post-fault {addr:#x}: delivered to {arrived}, owner {dst}"
            )
        else:
            assert arrived is None, (
                f"unreachable {src}->{dst} misdelivered to {arrived}"
            )


# ---------------------------------------------------------------------------
# Fast subset (tier-1, every push)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory,nps", _params(FAST_TOPOS))
@pytest.mark.parametrize("seed", [0, 1])
def test_routing_invariants(factory, nps, seed):
    check_invariants(factory(), nps, seed)


@pytest.mark.parametrize("factory,nps", _params(FAST_TOPOS))
def test_route_around_seeded_kills(factory, nps):
    topo = factory()
    for seed, kills in ((3, 1), (4, 2)):
        check_route_around(topo, nps, seed, kills, require_fit=True)


@pytest.mark.parametrize("factory,nps", _params(ALL_TOPOS[:-1]))
def test_folded_register_pressure(factory, nps):
    """Acceptance: per-supernode MMIO pair count <= O(degree + log N),
    and fits the 16-entry register file -- torus3d(4,4,4) included."""
    topo = factory()
    amap = uniform_cluster(topo, M, nodes_per_supernode=nps)
    for s in range(topo.num_supernodes):
        count = len(amap.plan_for(s, 0).mmio)
        assert count <= folded_mmio_bound(topo, s)
        assert count <= NUM_MMIO_ENTRIES


def _worst_postfault_runs(topo, amap, edges):
    ranges = amap.supernode_ranges
    worst = 0
    for e in edges:
        for s in range(topo.num_supernodes):
            runs = sum(len(r) for r in
                       exit_intervals(topo, ranges, s, exclude=[e]).values())
            worst = max(worst, runs)
    return worst


def test_single_kill_fits_registers_at_64_nodes_sampled():
    """Post-fault register pressure at the acceptance scale: a single
    link death must leave every supernode's rewritten map within the
    16-entry file (fixed-order detour folding; measured worst case 14).
    Fast subset samples one edge per dimension plus a seeded dozen; the
    slow sweep covers every edge."""
    topo = torus3d(4, 4, 4)
    amap = uniform_cluster(topo, M, nodes_per_supernode=2)
    rng = random.Random(7)
    sample = [topo.edges[0], topo.edges[1], topo.edges[2]]
    sample += rng.sample(topo.edges, 12)
    assert _worst_postfault_runs(topo, amap, sample) <= NUM_MMIO_ENTRIES


@pytest.mark.slow
def test_single_kill_fits_registers_at_64_nodes_exhaustive():
    topo = torus3d(4, 4, 4)
    amap = uniform_cluster(topo, M, nodes_per_supernode=2)
    assert _worst_postfault_runs(topo, amap, topo.edges) <= NUM_MMIO_ENTRIES


def test_folded_bound_is_sublinear():
    """The point of the folding: register pressure stays put while the
    cluster grows by 64x."""
    small = torus3d(2, 2, 2)
    big = torus3d(8, 8, 8)
    amap = uniform_cluster(big, M, nodes_per_supernode=2)
    worst = max(len(amap.plan_for(s, 0).mmio)
                for s in range(big.num_supernodes))
    assert worst <= folded_mmio_bound(big, 0)
    assert worst <= 9, "3 runs per dimension is the analytic worst case"
    assert big.num_supernodes == 64 * small.num_supernodes


def test_next_hop_paths_shared_by_assignment_and_graph():
    """Satellite pin: the assignment's exits and the graph's next-hop
    table must come from the same computation for every topology kind
    (the old `_mesh_exit` duplicate diverged once `exclude=` existed)."""
    for name, factory, nps in FAST_TOPOS:
        topo = factory()
        amap = uniform_cluster(topo, M, nodes_per_supernode=nps)
        ranges = amap.supernode_ranges
        for src in range(topo.num_supernodes):
            hops = topo.shortest_next_hops(src)
            plan = amap.plan_for(src, 0)
            for dst in range(topo.num_supernodes):
                if dst == src:
                    continue
                ep = hops[dst].end_at(src)
                for addr in (ranges[dst][0], ranges[dst][1] - 64):
                    m = next(m for m in plan.mmio
                             if m.base <= addr < m.limit)
                    assert (m.exit_node, m.exit_port) == (ep.node, ep.port), (
                        f"{name}: {src}->{dst} folded exit diverges"
                    )


# ---------------------------------------------------------------------------
# 50-seed sweep (slow marker; CI routing-properties nightly)
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", range(50))
def test_routing_properties_sweep(seed):
    """The acceptance sweep: every seed exercises one topology from the
    full pool (up to torus3d(8,8,8)) with fresh probes, plus a k-kill
    route-around round on the same topology."""
    name, factory, nps = ALL_TOPOS[seed % len(ALL_TOPOS)]
    topo = factory()
    check_invariants(topo, nps, seed, n_probes=80)
    check_route_around(topo, nps, seed + 1000, kills=1 + seed % 3)
