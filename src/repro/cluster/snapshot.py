"""Boot-image snapshot/restore: boot a signature once, restore it many times.

Every sweep point, chaos seed and most tests previously paid the full
cold-boot cost -- firmware enumeration, warm reset, link training, OS
boot -- to reach the *identical* quiescent post-boot state.  This module
captures that drained architectural state once into an immutable
:class:`BootImage` and instantiates every subsequent system by restoring
the image into a freshly constructed cluster, skipping the boot protocol
simulation entirely.  Boot cost drops from O(points) to O(distinct
signatures).

Why restore is bit-exact (the oracle ``tests/test_boot_image.py`` holds
this to account):

* **Quiescence precondition.**  Capture requires the calendar to be
  fully drained (:meth:`~repro.sim.engine.Simulator.assert_quiescent`).
  At that point every live process is parked on a wait primitive, and
  every primitive a booted cluster parks on is *single-consumer* (one
  pump per TX queue, one rx loop per direction, one dispatcher per
  posted queue, one southbridge drain), so waiter order is trivially
  reproduced by a fresh construction.
* **Architectural state.**  Registers are restored by direct dict
  assignment (bypassing write hooks -- a warm-reset side effect on
  replayed register values would *re-run* boot), then the northbridge
  map decode is rebuilt from them; memory pages, caches, MTRRs, link
  rates/states, FSM personas, counters and RNG states are copied field
  by field.
* **Clock rebase.**  The fresh construction drains its startup entries
  at t=0, then adopts the captured ``(now, seq, event_count,
  push_count)`` quadruple.  Downstream execution depends only on the
  architectural state, the clock and the *relative* order of future
  seqs, so every later virtual timestamp and event count is identical
  to the cold-boot continuation.

Images are keyed by :func:`boot_signature` -- topology + construction
parameters + :class:`~repro.sim.engine.SimFeatures` -- and cached
per-process by :func:`image_for`; any parameter change is a different
key (invalidation by construction).  Images are plain picklable data, so
the parallel sweep runner builds them once in the parent and ships them
to pool workers (:func:`seed_image_cache`).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import astuple, fields
from typing import Dict, List, Optional, Tuple

from ..kernel import Kernel
from ..kernel.driver import TccDriver
from ..msglib import MsgConfig
from ..obs.metrics import (boot_image_counters, fault_counters,
                           flow_counters)
from ..opteron.chip import InterruptRecord
from ..sim import SimFeatures, Simulator
from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import MiB
from .system import TCCluster

__all__ = [
    "BootImage",
    "SnapshotError",
    "boot_signature",
    "capture_image",
    "restore_image",
    "image_for",
    "seed_image_cache",
    "cached_images",
    "clear_image_cache",
]


class SnapshotError(RuntimeError):
    """Capture precondition violated or image/cluster mismatch."""


def _assign_fields(obj, values: tuple) -> None:
    """Inverse of ``astuple`` for a flat dataclass, in place: holders of
    ``obj`` (a pump's cached ``LinkStats``) keep seeing the live object."""
    for f, v in zip(fields(obj), values, strict=True):
        setattr(obj, f.name, v)


def boot_signature(topology, nodes_per_supernode: int, memory_bytes: int,
                   timing: TimingModel, msg_cfg: MsgConfig, link_ber: float,
                   skew_tolerance_ns: float,
                   features: Tuple[bool, ...]) -> tuple:
    """Hashable identity of one bootable configuration.

    Everything that shapes the post-boot state is in the key; changing
    any axis (a DSE sweep's link width, a different ring-slot depth, a
    feature flag) produces a distinct signature and therefore a fresh
    boot -- stale-image reuse is impossible by construction.
    """
    return (
        topology.kind, topology.shape, topology.wrap,
        topology.num_supernodes, tuple(topology.edges),
        nodes_per_supernode, memory_bytes, timing, msg_cfg,
        link_ber, skew_tolerance_ns, features,
    )


class BootImage:
    """Immutable snapshot of one booted cluster's quiescent state.

    Built by :func:`capture_image`; consumed by :func:`restore_image`.
    Plain data (dicts/tuples/bytes) throughout, so instances pickle
    cleanly across process-pool boundaries.
    """

    __slots__ = (
        "signature", "topology", "nodes_per_supernode", "memory_bytes",
        "timing", "msg_cfg", "layout", "amap", "link_ber",
        "skew_tolerance_ns", "features", "clock", "chips", "links",
        "boards", "pool", "fault_counts", "flow_counts",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unknown BootImage fields {sorted(kw)}")

    def __setattr__(self, name, value):  # immutability (shallow)
        raise AttributeError("BootImage is immutable")

    def __repr__(self) -> str:  # pragma: no cover
        t = self.topology
        return (f"<BootImage {t.kind}{t.shape or ''} "
                f"x{t.num_supernodes} now={self.clock[0]:.0f}>")


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

def _capture_chip(chip) -> dict:
    mt = chip.mtrr
    return {
        "regs": dict(chip.regs._regs),
        "mtrr": (mt.default, mt.num_variable,
                 tuple((r.base, r.size, r.mtype) for r in mt.ranges)),
        "caches": tuple(
            ({addr: bytes(line) for addr, line in level._lines.items()},
             level.hits, level.misses)
            for level in chip.caches.levels
        ),
        "cores": tuple(
            (c.stores, c.loads, c.wc.fills, c.wc.full_flushes,
             c.wc.partial_flushes, c.wc.evictions)
            for c in chip.cores
        ),
        "pages": {no: bytes(pg) for no, pg in chip.memory._pages.items()},
        "bytes_copied": chip.memory.bytes_copied,
        "memctrl": (chip.memctrl._busy_until, chip.memctrl.reads,
                    chip.memctrl.writes, chip.memctrl.bytes_read,
                    chip.memctrl.bytes_written),
        "nb_counters": dict(chip.nb.counters._counts),
        "interrupts": tuple((r.time, r.vector, r.smc)
                            for r in chip.interrupts),
    }


def _fsm_of(cluster, link):
    """The (shared) init FSM of ``link`` via any chip port binding."""
    for board in cluster.boards:
        for chip in board.chips:
            for binding in chip.ports.values():
                if binding.link is link:
                    return binding.fsm
    raise SnapshotError(f"link {link.name} has no chip binding")


def _capture_link(cluster, link) -> dict:
    fsm = _fsm_of(cluster, link)
    sides = {}
    for side, d in link._dirs.items():
        for vc, q in d.txq.items():
            if q._items:
                raise SnapshotError(
                    f"{link.name}.{side}: TX queue {vc.name} not drained")
        if len(d.rx):
            raise SnapshotError(f"{link.name}.{side}: rx not drained")
        sides[side] = {
            "stats": astuple(d.stats),
            "consecutive_drops": d._consecutive_drops,
        }
    return {
        "name": link.name,
        "state": link.state,
        "link_type": link.link_type,
        "width_bits": link.width_bits,
        "gbit_per_lane": link.gbit_per_lane,
        "ber": link._ber,
        "dead": link.dead,
        "fail_downs": link.fail_downs,
        "fail_down_threshold": link.fail_down_threshold,
        "rng_state": link._rng.getstate(),
        "sides": sides,
        "fsm": {
            "personas": {
                side: (p.identify_coherent, p.force_noncoherent,
                       p.max_width_bits, p.max_gbit_per_lane,
                       p.pending_width, p.pending_gbit)
                for side, p in fsm.personas.items()
            },
            "train_count": fsm.train_count,
            "last_kind": fsm.last_kind,
        },
    }


def capture_image(cluster: TCCluster) -> BootImage:
    """Snapshot a booted, drained, *unused* cluster into a BootImage.

    Preconditions: :meth:`~TCCluster.boot` completed, no message
    libraries or user processes spawned yet (their parked processes are
    not part of the post-boot state the image reproduces), and the
    calendar drained -- capture runs the simulator to quiescence first.
    """
    if not cluster.ready:
        raise SnapshotError("cannot capture an unbooted cluster")
    if cluster._libs:
        raise SnapshotError(
            "cannot capture after message libraries were spawned; capture "
            "immediately after boot()"
        )
    sim = cluster.sim
    sim.run()  # drain any post-boot stragglers
    sim.assert_quiescent()

    for board in cluster.boards:
        for chip in board.chips:
            for core in chip.cores:
                if len(core.wc):
                    raise SnapshotError(
                        f"{core.name}: write-combining buffers not flushed")
            if chip.memctrl._watches or chip.memctrl._spans:
                raise SnapshotError(
                    f"{chip.name}: memory controller has live watchers")

    fw0 = cluster.firmwares[0]
    skew = fw0.board.chips[0].ports and next(
        iter(fw0.board.chips[0].ports.values())).fsm.skew_tolerance_ns
    tcc0 = cluster.tcc_links[0] if cluster.tcc_links else None
    pool = sim._packet_pool
    img = BootImage(
        signature=boot_signature(
            cluster.topology, len(cluster.boards[0].chips),
            cluster.ranks[0].chip.memory.size, cluster.timing,
            cluster.msg_cfg, tcc0._ber if tcc0 is not None else 0.0,
            skew if skew else 100.0, astuple(sim.features),
        ),
        topology=cluster.topology,
        nodes_per_supernode=len(cluster.boards[0].chips),
        memory_bytes=cluster.ranks[0].chip.memory.size,
        timing=cluster.timing,
        msg_cfg=cluster.msg_cfg,
        layout=cluster.boards[0].layout,
        amap=cluster.amap,
        link_ber=tcc0._ber if tcc0 is not None else 0.0,
        skew_tolerance_ns=skew if skew else 100.0,
        features=astuple(sim.features),
        clock=(sim._now, sim._seq, sim._event_count, sim._push_count),
        chips=[_capture_chip(r.chip) for r in cluster.ranks],
        links=[_capture_link(cluster, l) for l in cluster._all_links()],
        boards=[fw.capture_state() for fw in cluster.firmwares],
        pool=((pool.allocated, pool.reused, pool.recycled, len(pool._free))
              if pool is not None else (0, 0, 0, 0)),
        fault_counts=fault_counters(sim).as_dict(),
        flow_counts=flow_counters(sim).as_dict(),
    )
    boot_image_counters().built += 1
    return img


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------

def _restore_chip(chip, cap: dict) -> None:
    # Registers by direct assignment: write hooks would re-trigger the
    # warm-reset machinery on the replayed HT_INIT_CONTROL value.
    chip.regs._regs = dict(cap["regs"])
    nb = chip.nb
    # Defer the BKDG map decode to the first consumer, exactly as the
    # register-write hook does on a cold boot (register-pure, so
    # observationally identical); points that never route through this
    # chip skip the decode entirely.
    nb._maps_dirty = True
    nb._route_table = None
    nb._nodeid_cache = None
    nb._dram_ready_cache = None
    nb._local_bases = None
    nb.counters._counts = defaultdict(int, cap["nb_counters"])

    default, num_variable, ranges = cap["mtrr"]
    mt = chip.mtrr
    mt.clear()
    mt.default = default
    mt.num_variable = num_variable
    for base, size, mtype in ranges:
        mt.add(base, size, mtype)

    for level, (lines, hits, misses) in zip(chip.caches.levels,
                                            cap["caches"]):
        level._lines = OrderedDict(
            (addr, bytearray(data)) for addr, data in lines.items())
        level.hits = hits
        level.misses = misses

    for core, (stores, loads, fills, full_f, part_f, evict) in zip(
            chip.cores, cap["cores"]):
        core.stores = stores
        core.loads = loads
        core.wc.fills = fills
        core.wc.full_flushes = full_f
        core.wc.partial_flushes = part_f
        core.wc.evictions = evict

    mem = chip.memory
    mem._pages = {no: bytearray(pg) for no, pg in cap["pages"].items()}
    mem.bytes_copied = cap["bytes_copied"]
    mc = chip.memctrl
    (mc._busy_until, mc.reads, mc.writes,
     mc.bytes_read, mc.bytes_written) = cap["memctrl"]

    chip.interrupts = [InterruptRecord(t, v, s)
                       for (t, v, s) in cap["interrupts"]]


def _restore_link(cluster, link, cap: dict) -> None:
    if link.name != cap["name"]:
        raise SnapshotError(
            f"link order mismatch: {link.name} vs image {cap['name']}")
    if cap["width_bits"] != link.width_bits or \
            cap["gbit_per_lane"] != link.gbit_per_lane:
        link.set_rate(cap["width_bits"], cap["gbit_per_lane"])
    link._ber = cap["ber"]
    link.dead = cap["dead"]
    link.fail_downs = cap["fail_downs"]
    link.fail_down_threshold = cap["fail_down_threshold"]
    link._rng.setstate(cap["rng_state"])
    if cap["state"] == "active":
        link.activate(cap["link_type"])
    for side, scap in cap["sides"].items():
        d = link._dirs[side]
        _assign_fields(d.stats, scap["stats"])
        d._consecutive_drops = scap["consecutive_drops"]
    fsm = _fsm_of(cluster, link)
    for side, pcap in cap["fsm"]["personas"].items():
        p = fsm.personas[side]
        (p.identify_coherent, p.force_noncoherent, p.max_width_bits,
         p.max_gbit_per_lane, p.pending_width, p.pending_gbit) = pcap
    fsm.train_count = cap["fsm"]["train_count"]
    fsm.last_kind = cap["fsm"]["last_kind"]


def restore_image(image: BootImage,
                  sim: Optional[Simulator] = None) -> TCCluster:
    """Instantiate a booted cluster from ``image`` without booting.

    Returns a :class:`TCCluster` indistinguishable from one that cold
    booted: same registers, routes, memory, link rates, clock and event
    counters.  The restored cluster carries ``restored_from_image=True``
    and ``restore_event_count`` (events executed by the startup drains;
    deterministic, gated by the wallclock baseline).
    """
    sim = sim or Simulator()
    _assign_fields(sim.features, image.features)

    cluster = TCCluster(
        image.topology,
        memory_bytes=image.memory_bytes,
        nodes_per_supernode=image.nodes_per_supernode,
        timing=image.timing,
        msg_cfg=image.msg_cfg,
        layout=image.layout,
        link_ber=image.link_ber,
        skew_tolerance_ns=image.skew_tolerance_ns,
        sim=sim,
        amap=image.amap,
    )
    # Cold boot starts the boards inside the firmware's cold-reset stage;
    # restore skips firmware, so start them (northbridge dispatchers, rx
    # loops) explicitly and drain the t=0 startup entries -- every
    # process parks exactly where the booted machine's processes park.
    for board in cluster.boards:
        board.start()
    sim.run()

    if len(cluster.ranks) != len(image.chips):
        raise SnapshotError("image/cluster rank count mismatch")
    for rank, cap in zip(cluster.ranks, image.chips):
        _restore_chip(rank.chip, cap)
    links = cluster._all_links()
    if len(links) != len(image.links):
        raise SnapshotError("image/cluster link count mismatch")
    for link, cap in zip(links, image.links):
        _restore_link(cluster, link, cap)
    for fw, cap in zip(cluster.firmwares, image.boards):
        fw.restore_state(cap)
    cluster.reports = [fw.report for fw in cluster.firmwares]

    # Kernels: constructed directly into the booted state.  The SMC
    # disable is already in the restored registers -- re-writing it would
    # fire the northbridge cache-invalidation hook cold boot also fired,
    # but pointlessly; drivers are pure address-range objects.
    gb, gl = cluster.amap.base, cluster.amap.limit
    for s, board in enumerate(cluster.boards):
        kernel = Kernel(board, cluster.reports[s], custom=True)
        kernel.mode = "64-bit long"
        for ci in range(len(board.chips)):
            lb, ll = cluster.amap.node_range(s, ci)
            kernel.drivers[ci] = TccDriver(board.chips[ci], lb, ll, gb, gl)
        kernel.booted = True
        cluster.kernels.append(kernel)

    from ..ht.packet import Packet, Command, pool_for
    pool = pool_for(sim)
    alloc, reused, recycled, nfree = image.pool
    pool.allocated, pool.reused, pool.recycled = alloc, reused, recycled
    while len(pool._free) < nfree:
        pkt = Packet.__new__(Packet)
        pkt.cmd = Command.WRITE_POSTED
        pkt.addr = 0
        pkt.data = b""
        pkt.unitid = 0
        pkt.coherent = False
        pkt.mask = None
        pkt.src_node = None
        pkt.srctag = 0
        pkt.seqid = 0
        pkt.passpw = False
        pkt.error = False
        pkt.inject_time = 0.0
        pkt._wire = None
        pkt._crc = None
        pkt._wire_len = None
        pkt._agg_tag = None
        pkt._read_count = 1
        pkt._pooled = False
        pool._free.append(pkt)

    fc = fault_counters(sim)
    for name, value in image.fault_counts.items():
        setattr(fc, name, value)
    fl = flow_counters(sim)
    for name, value in image.flow_counts.items():
        setattr(fl, name, value)

    # Link activation may have scheduled gate wakeups; drain them before
    # adopting the captured clock.
    sim.run()
    restore_events = sim.event_count
    sim.rebase_clock(*image.clock)
    cluster.ready = True
    cluster.restored_from_image = True
    cluster.restore_event_count = restore_events
    boot_image_counters().restored += 1
    return cluster


# ---------------------------------------------------------------------------
# Keyed in-process image cache
# ---------------------------------------------------------------------------

_IMAGE_CACHE: Dict[tuple, BootImage] = {}


def image_for(topology, *, nodes_per_supernode: int = 1,
              memory_bytes: int = 256 * MiB,
              timing: TimingModel = DEFAULT_TIMING,
              msg_cfg: Optional[MsgConfig] = None,
              link_ber: float = 0.0, skew_tolerance_ns: float = 100.0,
              features: Optional[Tuple[bool, ...]] = None) \
        -> BootImage:
    """The cached boot image of one signature (built on first use).

    The cache is per-process; pool workers inherit the parent's images
    through :func:`seed_image_cache` so each distinct signature boots
    exactly once per sweep, not once per point.
    """
    if features is None:
        features = astuple(SimFeatures())
    cfg = msg_cfg or MsgConfig()
    # Construction may auto-grow nodes_per_supernode to fit the port
    # plan; key on the grown value so pre/post-growth callers share.
    max_node = max((ep.node for e in topology.edges
                    for ep in (e.a, e.b)), default=0)
    grown = max(nodes_per_supernode, max_node + 1)
    key = boot_signature(topology, grown, memory_bytes, timing, cfg,
                         link_ber, skew_tolerance_ns, features)
    img = _IMAGE_CACHE.get(key)
    if img is not None:
        boot_image_counters().cache_hits += 1
        return img
    sim = Simulator()
    _assign_fields(sim.features, features)
    cluster = TCCluster(
        topology, memory_bytes=memory_bytes,
        nodes_per_supernode=nodes_per_supernode, timing=timing,
        msg_cfg=cfg, link_ber=link_ber,
        skew_tolerance_ns=skew_tolerance_ns, sim=sim,
    )
    cluster.boot()
    img = capture_image(cluster)
    _IMAGE_CACHE[img.signature] = img
    if img.signature != key:
        # Defensive: growth normalization above should make these equal.
        _IMAGE_CACHE[key] = img
    return img


def seed_image_cache(images) -> int:
    """Install pre-built images (e.g. shipped from a pool parent)."""
    n = 0
    for img in images:
        if img.signature not in _IMAGE_CACHE:
            _IMAGE_CACHE[img.signature] = img
            n += 1
    return n


def cached_images() -> List[BootImage]:
    return list(_IMAGE_CACHE.values())


def clear_image_cache() -> None:
    _IMAGE_CACHE.clear()
