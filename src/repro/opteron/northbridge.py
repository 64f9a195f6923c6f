"""The Opteron northbridge: crossbar, address maps, routing, IO bridge.

Paper Section IV.C describes the two-stage routing this module implements:

    "The first step is to compare the address of every packet against the
    DRAM and MMIO address ranges which are defined by base/limit
    registers.  This lookup returns the NodeID which defines the home node
    of the requested DRAM or I/O address.  This NodeID then indexes the
    routing table which returns the corresponding HyperTransport link to
    which the packet should be forwarded.  MMIO accesses which target an
    IO device that is connected to the local node are treated different.
    In this case the destination link is directly provided by the
    base/limit registers without the need of indexing the routing table.
    This fact is exploited by our approach which assigns NodeID zero to
    every node in the TCCluster and which maps every MMIO address range to
    NodeID zero as well."

All decisions here are decoded from the BKDG-style register file, so the
firmware's programming (correct or buggy) directly determines packet flow.

The northbridge also enforces the paper's *writes-only* property: a
non-posted request whose response would have to cross a TCCluster link
cannot allocate a routable SrcTag (see :mod:`repro.ht.tags`).  With
``strict_reads=False`` the guard is lifted and the emergent misbehaviour
(the response is misrouted back into the remote node itself, because every
TCCluster node claims NodeID 0) can be observed in simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..ht.link import Link, LinkDownError, LinkState
from ..ht.packet import Command, Packet, make_read, make_read_response, make_target_done, pool_for
from ..ht.tags import ResponseMatchingTable, UnroutableResponseError
from ..obs.metrics import fault_counters, flow_counters, metrics_for
from ..sim import AnyOf, Counter, Event, Simulator, Store
from ..sim.flows import ReadFlow
from ..util.calibration import TimingModel
from . import registers as regs_mod
from .registers import (
    DramPairAccessor,
    Function,
    MmioPairAccessor,
    NodeIDAccessor,
    RegisterFile,
    RoutingTableAccessor,
)

if TYPE_CHECKING:  # pragma: no cover
    from .chip import OpteronChip

__all__ = ["Northbridge", "RouteKind", "RouteResult", "MasterAbort", "AddressMapError"]


class MasterAbort(RuntimeError):
    """No address-map entry claims the target address."""


class AddressMapError(ValueError):
    """Inconsistent address-map programming detected by validate()."""


class RouteKind(enum.Enum):
    DRAM_LOCAL = "dram-local"
    DRAM_REMOTE = "dram-remote"
    MMIO_LOCAL_LINK = "mmio-local-link"   # forward straight out of DstLink
    MMIO_REMOTE = "mmio-remote"           # MMIO homed at another fabric node
    NONE = "none"


@dataclass(frozen=True)
class RouteResult:
    kind: RouteKind
    dst_node: Optional[int] = None
    dst_link: Optional[int] = None
    #: Offset into local DRAM (DRAM_LOCAL only).
    local_offset: Optional[int] = None
    writable: bool = True
    readable: bool = True


_ROUTE_NONE = RouteResult(RouteKind.NONE)


@dataclass(frozen=True)
class _DramEntry:
    base: int
    limit: int
    dst_node: int
    re: bool
    we: bool


@dataclass(frozen=True)
class _MmioEntry:
    base: int
    limit: int
    dst_node: int
    dst_link: int
    nonposted: bool
    re: bool
    we: bool


class Northbridge:
    """One node's crossbar + router.  Owned by :class:`OpteronChip`."""

    def __init__(self, sim: Simulator, chip: "OpteronChip"):
        self.sim = sim
        self.chip = chip
        self.name = f"{chip.name}.nb"
        self.timing: TimingModel = chip.timing
        self.regs: RegisterFile = chip.regs
        self.tags = ResponseMatchingTable()
        self.counters = Counter()
        self._m = metrics_for(sim)
        #: Posted-write buffering between the CPU cores (SRQ) and the
        #: fabric; its capacity is the calibrated aggregate that produces
        #: the Figure 6 buffering peak.
        self.posted_q: Store = Store(
            sim, capacity=self.timing.posted_buffer_packets, name=f"{self.name}.postedq"
        )
        #: Enforce the writes-only rule at request issue (the driver-level
        #: behaviour); disable to observe the emergent misrouting.
        self.strict_reads = True
        #: Patience window of the link-down recovery path: how long a
        #: packet whose egress link died waits for a retrain or a routing
        #: update before it is dropped (posted semantics permit the loss;
        #: the message layer's retransmit machinery restores delivery).
        self.link_down_wait_ns = 100_000.0
        self._dram_entries: List[_DramEntry] = []
        self._mmio_entries: List[_MmioEntry] = []
        self._pending_reads: Dict[int, Event] = {}
        self._started = False
        #: Macro window owning the SRQ (an aggregate-fidelity packet
        #: train, repro.opteron.train); any foreign submit while one is
        #: running demotes it first.
        self._macro = None
        #: Egress port of the current promoted remote-read run (window
        #: accounting for :class:`repro.sim.flows.ReadFlow`): consecutive
        #: same-port promotions count as one window, a demotion or a port
        #: change starts a new one.
        self._read_flow_port: Optional[int] = None
        # Register-decode caches: the fabric data path hits nodeid / DRAM
        # readiness / local-offset translation on every packet, and
        # re-decoding BKDG bitfields per packet dominates profiles.  Any
        # register write invalidates them (coarse but correct).
        self._nodeid_cache: Optional[int] = None
        self._dram_ready_cache: Optional[bool] = None
        self._local_bases: Optional[List[Tuple[int, int, int]]] = None
        self._route_table: Optional[List[tuple]] = None
        #: Set on any ADDRESS_MAP register write; the (expensive) BKDG
        #: bitfield decode is deferred to the next route/translate --
        #: firmware boot rewrites the maps dozens of times before the
        #: first packet ever consults them.
        self._maps_dirty = False
        #: Flyweight posted-write packets (shared per simulation).
        self._pool = pool_for(sim)
        self._depth_series = f"{self.name}.posted_q_depth"
        self._cpu_read_name = f"{self.name}.cpu_read"
        self.regs.add_write_hook(self._on_reg_write)
        self.reload_maps()

    # ------------------------------------------------------------------
    # Register decode
    # ------------------------------------------------------------------
    def _on_reg_write(self, func: int, offset: int, value: int) -> None:
        self._nodeid_cache = None
        self._dram_ready_cache = None
        self._local_bases = None
        self._route_table = None
        if func == Function.ADDRESS_MAP:
            self._maps_dirty = True

    def _ensure_maps(self) -> None:
        """Decode pending ADDRESS_MAP programming.  The decode is
        register-pure (no virtual time passes), so deferring it from the
        register write to the first consumer is observationally
        identical."""
        if self._maps_dirty:
            self.reload_maps()

    def reload_maps(self) -> None:
        self._maps_dirty = False
        dram: List[_DramEntry] = []
        mmio: List[_MmioEntry] = []
        for i in range(regs_mod.NUM_MAP_ENTRIES):
            d = DramPairAccessor(self.regs, i)
            if d.enabled:
                re = bool(self.regs.field(Function.ADDRESS_MAP, d.base_off, 0, 1))
                we = bool(self.regs.field(Function.ADDRESS_MAP, d.base_off, 1, 1))
                dram.append(_DramEntry(d.base, d.limit, d.dst_node, re, we))
        for i in range(regs_mod.NUM_MMIO_ENTRIES):
            m = MmioPairAccessor(self.regs, i)
            if m.enabled:
                re = bool(self.regs.field(Function.ADDRESS_MAP, m.base_off, 0, 1))
                we = bool(self.regs.field(Function.ADDRESS_MAP, m.base_off, 1, 1))
                mmio.append(
                    _MmioEntry(m.base, m.limit, m.dst_node, m.dst_link,
                               m.nonposted_allowed, re, we)
                )
        dram.sort(key=lambda e: e.base)
        mmio.sort(key=lambda e: e.base)
        self._dram_entries = dram
        self._mmio_entries = mmio
        self._route_table = None

    def validate(self) -> None:
        """Firmware sanity check: DRAM ranges must not overlap each other,
        and local DRAM must not be shadowed by an MMIO entry.  Section IV.D
        also requires each node's map to be hole-free over the global
        space; that cluster-level property is checked by
        :func:`repro.topology.address_assignment.validate_node_map`."""
        self._ensure_maps()
        prev_limit = 0
        prev = None
        for e in self._dram_entries:
            if prev is not None and e.base < prev_limit:
                raise AddressMapError(
                    f"DRAM ranges overlap: [{prev.base:#x},{prev.limit:#x}) and "
                    f"[{e.base:#x},{e.limit:#x})"
                )
            prev, prev_limit = e, e.limit
        my = self.nodeid
        for d in self._dram_entries:
            if d.dst_node != my:
                continue
            for m in self._mmio_entries:
                if d.base < m.limit and m.base < d.limit:
                    raise AddressMapError(
                        f"local DRAM [{d.base:#x},{d.limit:#x}) shadowed by "
                        f"MMIO [{m.base:#x},{m.limit:#x})"
                    )

    @property
    def nodeid(self) -> int:
        nid = self._nodeid_cache
        if nid is None:
            nid = self._nodeid_cache = NodeIDAccessor(self.regs).nodeid
        return nid

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, addr: int) -> RouteResult:
        """Two-stage lookup: address map first, then routing table.

        The decode is register-pure, so every :class:`RouteResult` is
        prebuilt once per map programming and shared between calls;
        local DRAM results carry ``local_offset=None`` and consumers
        that need the per-address offset call :meth:`_local_offset`.
        """
        tbl = self._route_table
        if tbl is None:
            self._ensure_maps()
            tbl = self._route_table = self._build_route_table()
        for base, limit, result, re_, we in tbl:
            if base <= addr < limit:
                return result
        return _ROUTE_NONE

    def _build_route_table(self) -> List[tuple]:
        """Flatten the decoded maps into ``(base, limit, prebuilt, re, we)``
        rows in lookup order (DRAM entries first, as the crossbar checks
        them)."""
        my = self.nodeid
        tbl: List[tuple] = []
        for e in self._dram_entries:
            if e.dst_node == my:
                # Shared result with local_offset=None: the per-address
                # offset is computed by the (few) consumers that need it,
                # so the packet-rate hot path allocates nothing.
                tbl.append((e.base, e.limit,
                            RouteResult(RouteKind.DRAM_LOCAL, dst_node=my,
                                        readable=e.re, writable=e.we),
                            e.re, e.we))
            else:
                tbl.append((e.base, e.limit,
                            RouteResult(RouteKind.DRAM_REMOTE,
                                        dst_node=e.dst_node,
                                        readable=e.re, writable=e.we),
                            e.re, e.we))
        for e in self._mmio_entries:
            if e.dst_node == my:
                r = RouteResult(RouteKind.MMIO_LOCAL_LINK, dst_node=my,
                                dst_link=e.dst_link,
                                readable=e.re, writable=e.we)
            else:
                r = RouteResult(RouteKind.MMIO_REMOTE, dst_node=e.dst_node,
                                readable=e.re, writable=e.we)
            tbl.append((e.base, e.limit, r, e.re, e.we))
        return tbl

    def _local_offset(self, addr: int) -> int:
        """Map a global address into this node's DRAM, accounting for
        multiple local ranges (offsets accumulate in base order)."""
        bases = self._local_bases
        if bases is None:
            self._ensure_maps()
            my = self.nodeid
            bases = []
            running = 0
            for e in self._dram_entries:
                if e.dst_node != my:
                    continue
                bases.append((e.base, e.limit, running))
                running += e.limit - e.base
            self._local_bases = bases
        for base, limit, running in bases:
            if base <= addr < limit:
                return running + (addr - base)
        raise MasterAbort(f"{self.name}: address {addr:#x} is not local DRAM")

    def _route_mask_to_port(self, mask_value: int) -> Optional[int]:
        """Decode a 5-bit routing-table mask: bit0=self, bit k+1=link k."""
        if mask_value & 1:
            return None  # deliver to self
        for k in range(regs_mod.NUM_LINKS):
            if mask_value & (1 << (k + 1)):
                return k
        raise MasterAbort(f"{self.name}: empty route mask {mask_value:#x}")

    def _fabric_port_for(self, dst_node: int, route: str = "request") -> int:
        acc = RoutingTableAccessor(self.regs, dst_node)
        mask_value = getattr(acc, route)
        port = self._route_mask_to_port(mask_value)
        if port is None:
            raise MasterAbort(
                f"{self.name}: routing table says node {dst_node} is self, "
                "but the address map disagreed"
            )
        return port

    # ------------------------------------------------------------------
    # CPU-side interface (the SRQ)
    # ------------------------------------------------------------------
    def submit_posted(self, addr: int, data: bytes,
                      mask: Optional[bytes] = None) -> Optional[Event]:
        """Accept a posted write from a core's WC/UC store path.

        Returns None when the packet is accepted into the posted buffer
        immediately (the store has 'left the processor' and the core may
        retire it); otherwise an event that fires on acceptance.  ``mask``
        selects the sized-byte write form.
        """
        if self._macro is not None:
            # A foreign submit invalidates the train's schedule: demote to
            # per-packet state before this packet touches the queue.
            self._macro.demote(self.sim._now)
        pkt = self._pool.posted_write(addr, data, unitid=self.nodeid,
                                      coherent=True, mask=mask)
        pkt.inject_time = self.sim._now
        if self.posted_q.try_put(pkt):
            return None
        return self.posted_q.put(pkt)

    def cpu_read(self, addr: int, length: int, uncached: bool = True) -> Event:
        """A core load.  Local DRAM and remote coherent DRAM work; reads
        into TCCluster MMIO windows violate the writes-only rule."""
        done = self.sim.event(name=self._cpu_read_name)
        # Readable local DRAM (the UC polling receive path, by far the
        # hottest read case) runs as a lean calendar-callback chain with
        # exactly the calendar entries and virtual times of the coroutine
        # below -- minus the per-load Process/generator allocation and
        # trampoline.  Everything else (remote, MMIO, faults) keeps the
        # full coroutine.
        r = self.route(addr)
        if r.kind is RouteKind.DRAM_LOCAL and r.readable:
            sim = self.sim
            sim._push(sim._now, self._cpu_read_local_start,
                      (addr, length, uncached, done))
        else:
            self.sim.process(self._do_cpu_read(addr, length, uncached, done))
        return done

    def _cpu_read_local_start(self, addr: int, length: int, uncached: bool,
                              done: Event) -> None:
        """Entry 1 of the local-read chain (the coroutine's start hop)."""
        sim = self.sim
        sim._push(sim._now + self.timing.nb_request_ns,
                  self._cpu_read_local_issue, (addr, length, uncached, done))

    def _cpu_read_local_issue(self, addr: int, length: int, uncached: bool,
                              done: Event) -> None:
        """Entry 2: crossbar latency elapsed; issue at the controller."""
        if not self._dram_ready():
            done.fail(MasterAbort(
                f"{self.name}: DRAM accessed before memory init"
            ))
            return
        ev = self.chip.memctrl.read(self._local_offset(addr), length, uncached)

        def _complete(ev: Event, done=done, counters=self.counters) -> None:
            counters.inc("local_reads")
            done.succeed(ev.value)

        ev.add_callback(_complete)

    def _do_cpu_read(self, addr: int, length: int, uncached: bool, done: Event):
        r = self.route(addr)
        yield self.timing.nb_request_ns
        if r.kind is RouteKind.NONE:
            done.fail(MasterAbort(f"{self.name}: read from unmapped {addr:#x}"))
            return
        if not r.readable:
            done.fail(MasterAbort(f"{self.name}: address {addr:#x} is write-only"))
            return
        if r.kind is RouteKind.DRAM_LOCAL:
            if not self._dram_ready():
                done.fail(MasterAbort(
                    f"{self.name}: DRAM accessed before memory init"
                ))
                return
            data = yield self.chip.memctrl.read(
                self._local_offset(addr), length, uncached
            )
            self.counters.inc("local_reads")
            done.succeed(data)
            return
        if r.kind is RouteKind.DRAM_REMOTE:
            # Coherent fabric read: tag + request + response.  A dead
            # egress link no longer fails the load outright: the request
            # never left (its SrcTag was released), so the requester can
            # safely wait for a retrain or routing update and re-issue,
            # bounded by the same patience window the posted recovery
            # path uses.  Past the window the caller sees LinkDownError.
            deadline = self.sim.now + self.link_down_wait_ns
            while True:
                try:
                    data = yield from self._remote_read(addr, length, r.dst_node)
                except LinkDownError as exc:
                    remaining = deadline - self.sim.now
                    if remaining <= 0:
                        done.fail(exc)
                        return
                    try:
                        port = self._fabric_port_for(r.dst_node)
                        binding = self.chip.ports.get(port)
                    except MasterAbort:
                        binding = None
                    if binding is not None:
                        yield AnyOf(self.sim, [binding.link.up_gate.wait(),
                                               self.sim.timeout(remaining)])
                    else:
                        yield self.sim.timeout(min(remaining, 1000.0))
                    continue
                done.succeed(data)
                return
        # MMIO read: the writes-only rule.
        if self.strict_reads:
            try:
                self.tags.allocate(None)
            except UnroutableResponseError as exc:
                done.fail(exc)
                return
        # Permissive mode: emit the read and let the fabric demonstrate why
        # this cannot work (the response is misrouted at the remote node).
        if (length % 4) or length > 64:
            done.fail(ValueError("MMIO reads are 1..16 dwords"))
            return
        tag = self.tags.allocate(self.nodeid, context=done)
        self._pending_reads[tag] = done
        pkt = make_read(addr, length // 4, srctag=tag, unitid=self.nodeid)
        try:
            yield from self._emit_mmio(pkt, r)
        except LinkDownError as exc:
            self._pending_reads.pop(tag, None)
            self.tags.match(tag)
            done.fail(exc)
            return
        self.counters.inc("unroutable_mmio_reads_issued")
        # `done` now waits for a response that will never arrive.

    def _remote_read(self, addr: int, length: int, dst_node: int):
        if (length % 4) or length > 64:
            raise ValueError("fabric reads are 1..16 dwords")
        response = self.sim.event(name=f"{self.name}.read_rsp")
        tag = self.tags.allocate(dst_node, context=response)
        pkt = make_read(addr, length // 4, srctag=tag, unitid=self.nodeid, coherent=True)
        port = self._fabric_port_for(dst_node)
        if (self.sim.features.adaptive_fidelity
                and ReadFlow.plan(self, port, pkt, addr, length) is not None):
            fl = flow_counters(self.sim)
            if self._read_flow_port != port:
                self._read_flow_port = port
                fl.read_windows += 1
            fl.read_reads += 1
            data = yield response
            self.counters.inc("remote_reads")
            return data
        try:
            yield self._send_on_port(port, pkt)
        except LinkDownError:
            # The request never left: release the SrcTag so a retry (or
            # any later read) does not exhaust the matching table.
            self.tags.match(tag)
            raise
        data = yield response
        self.counters.inc("remote_reads")
        return data

    def _emit_mmio(self, pkt: Packet, r: RouteResult):
        """Send a packet out of the MMIO destination link (IO bridge
        converts coherent -> non-coherent on the way)."""
        if pkt.coherent:
            yield self.timing.nb_iobridge_ns
            pkt.coherent = False
        yield self._send_on_port(r.dst_link, pkt)

    def _send_on_port(self, port: int, pkt: Packet) -> Event:
        binding = self.chip.ports.get(port)
        if binding is None:
            raise MasterAbort(f"{self.name}: no link attached at port {port}")
        return binding.link.send(binding.side, pkt)

    def _send_on_port_fast(self, port: int, pkt: Packet) -> Optional[Event]:
        """Like :meth:`_send_on_port` but returns None when the TX queue
        accepts the packet immediately (no Event allocated)."""
        binding = self.chip.ports.get(port)
        if binding is None:
            raise MasterAbort(f"{self.name}: no link attached at port {port}")
        if binding.link.try_send(binding.side, pkt):
            return None
        return binding.link.send(binding.side, pkt)

    def _forward_fault(self, pkt: Packet, response: bool = False):
        """Recover a packet whose egress link was down at send time.

        The loop re-resolves the route each round -- an interval-routing
        update (:class:`repro.faults.routes.RouteManager`) may already
        steer the address (or, for ``response`` packets, the requester
        NodeID) around the dead link -- then retries the send.  When no
        active egress exists it waits, bounded by ``link_down_wait_ns``,
        for the chosen link to retrain; past the window the packet is
        dropped with accounting.  Posted HT semantics permit the drop,
        and the message layer's deadline/retransmit machinery restores
        exactly-once-or-failed delivery end to end.
        """
        sim = self.sim
        fc = fault_counters(sim)
        deadline = sim.now + self.link_down_wait_ns
        while True:
            try:
                if response:
                    port = self._fabric_port_for(pkt.unitid, route="response")
                else:
                    r = self.route(pkt.addr)
                    if r.kind is RouteKind.MMIO_LOCAL_LINK:
                        port = r.dst_link
                    elif r.kind in (RouteKind.DRAM_REMOTE, RouteKind.MMIO_REMOTE):
                        port = self._fabric_port_for(r.dst_node)
                    else:
                        port = None
            except MasterAbort:
                port = None
            binding = self.chip.ports.get(port) if port is not None else None
            if binding is not None and binding.link.state == LinkState.ACTIVE:
                try:
                    ev = self._send_on_port_fast(port, pkt)
                except LinkDownError:
                    pass  # lost the race with another bring_down; re-wait
                else:
                    if ev is not None:
                        yield ev
                    self.counters.inc("fault_forwards")
                    return
            remaining = deadline - sim.now
            if remaining <= 0:
                self.counters.inc("fault_drops")
                fc.packets_dropped += 1
                self._pool.recycle(pkt)
                return
            if binding is not None:
                # Wake on retrain or when patience runs out.
                yield AnyOf(sim, [binding.link.up_gate.wait(),
                                  sim.timeout(remaining)])
            else:
                # No egress at all right now: poll for a routing update.
                yield sim.timeout(min(remaining, 1000.0))

    # ------------------------------------------------------------------
    # Interrupt / broadcast origination
    # ------------------------------------------------------------------
    def broadcast(self, pkt: Packet, exclude_port: Optional[int] = None) -> None:
        """Deliver a broadcast locally and forward it per the BCRte masks.

        The forwarding set is the broadcast route of the *own* node entry
        (BKDG uses per-node BCRte; firmware programs the own entry to list
        the links broadcasts fan out on)."""
        acc = RoutingTableAccessor(self.regs, self.nodeid)
        mask_value = acc.broadcast
        if mask_value & 1:
            self.chip.deliver_interrupt(pkt)
        for k in range(regs_mod.NUM_LINKS):
            if k == exclude_port:
                continue
            if mask_value & (1 << (k + 1)) and k in self.chip.ports:
                b = self.chip.ports[k]
                if b.link.state == "active":
                    b.link.send(b.side, pkt)
                    self.counters.inc("broadcasts_forwarded")

    def discard_posted(self) -> int:
        """Drop every posted write buffered in the SRQ/crossbar queue
        (hard crash: queue contents are volatile chip state).  Senders
        blocked on a full queue are admitted and dropped too -- posted
        semantics already completed their stores.  Returns the number of
        packets discarded."""
        n = 0
        while True:
            ok, pkt = self.posted_q.try_get()
            if not ok:
                break
            self._pool.recycle(pkt)
            n += 1
        return n

    # ------------------------------------------------------------------
    # Fabric-side processing
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the dispatcher and one receive loop per attached port."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._dispatcher(), name=f"{self.name}.dispatch")
        for k in list(self.chip.ports):
            self.sim.process(self._rx_loop(k), name=f"{self.name}.rx{k}")

    def _dispatcher(self):
        """Drain the CPU posted queue into memory or the fabric."""
        t = self.timing
        # Crossbar + IO-bridge latency taken as one sleep on the TCCluster
        # transmit path: one calendar entry instead of two.  The route
        # decode is register-pure (no virtual time passes in route()), so
        # sampling it before the sleep is observationally identical.
        tx_step = t.nb_request_ns + t.nb_iobridge_ns
        req_step = t.nb_request_ns
        posted_q = self.posted_q
        m = self._m
        sim = self.sim
        route = self.route
        counters_inc = self.counters.inc
        memctrl = self.chip.memctrl
        pool_recycle = self._pool.recycle
        while True:
            ok, pkt = posted_q.try_get()
            if not ok:
                pkt = yield posted_q.get()
            if m.enabled:
                m.track(self._depth_series, sim.now, len(posted_q._items))
            r = route(pkt.addr)
            if not r.writable and r.kind is not RouteKind.NONE:
                yield req_step
                counters_inc("write_to_readonly")
                continue
            if r.kind is RouteKind.DRAM_LOCAL:
                yield req_step
                if not self._dram_ready():
                    counters_inc("dram_uninitialized")
                    continue
                memctrl.write_posted(self._local_offset(pkt.addr),
                                     pkt.data, pkt.mask)
                # Commit point: the calendar entry holds the payload span
                # itself, so the packet shell can be reused immediately.
                pool_recycle(pkt)
                counters_inc("local_writes")
            elif r.kind is RouteKind.MMIO_LOCAL_LINK:
                # The TCCluster transmit path: an MMIO window homed at this
                # node whose DstLink points straight out of the chip.
                yield tx_step
                pkt.coherent = False
                try:
                    ev = self._send_on_port_fast(r.dst_link, pkt)
                except LinkDownError:
                    yield from self._forward_fault(pkt)
                else:
                    if ev is not None:
                        yield ev
                counters_inc("mmio_writes")
            elif r.kind is RouteKind.DRAM_REMOTE:
                yield req_step
                port = self._fabric_port_for(r.dst_node)
                try:
                    ev = self._send_on_port_fast(port, pkt)
                except LinkDownError:
                    yield from self._forward_fault(pkt)
                else:
                    if ev is not None:
                        yield ev
                counters_inc("fabric_writes")
            elif r.kind is RouteKind.MMIO_REMOTE:
                # MMIO homed at another fabric node: one coherent hop
                # first, counted apart from plain DRAM fabric writes.
                yield req_step
                port = self._fabric_port_for(r.dst_node)
                try:
                    ev = self._send_on_port_fast(port, pkt)
                except LinkDownError:
                    yield from self._forward_fault(pkt)
                else:
                    if ev is not None:
                        yield ev
                counters_inc("fabric_writes")
                counters_inc("mmio_remote_writes")
            else:
                yield req_step
                counters_inc("master_aborts")

    def _rx_loop(self, port: int):
        """Process packets arriving on one link."""
        binding = self.chip.ports[port]
        link, side = binding.link, binding.side
        t = self.timing
        req_step = t.nb_request_ns
        rx_convert_step = t.nb_request_ns + t.nb_iobridge_ns
        try_receive = link.try_receive
        receive = link.receive
        route = self.route
        counters_inc = self.counters.inc
        memctrl = self.chip.memctrl
        pool_recycle = self._pool.recycle
        local_offset = self._local_offset
        while True:
            # Fast path: a packet already waiting is consumed inline (the
            # credit returns immediately instead of via a callback event).
            ok, pkt = try_receive(side)
            if not ok:
                pkt = yield receive(side)
            if pkt.cmd is Command.BROADCAST:
                yield req_step
                self.broadcast(pkt, exclude_port=port)
                counters_inc("broadcasts_received")
                continue
            if pkt.cmd.is_response:
                yield from self._handle_response(pkt, port)
                continue
            r = route(pkt.addr)
            if r.kind is RouteKind.DRAM_LOCAL:
                if pkt.coherent:
                    yield req_step
                else:
                    # IO bridge: non-coherent -> coherent conversion,
                    # folded into the crossbar sleep (one calendar entry).
                    yield rx_convert_step
                    pkt.coherent = True
                cmd = pkt.cmd
                if ((cmd is Command.WRITE_POSTED
                     or cmd is Command.WRITE_POSTED_BYTE)
                        and self._dram_ready()):
                    # Posted-write destination commit, inlined: the bulk
                    # data plane lands here once per packet, so skipping
                    # the _local_access generator frame is worth it.
                    memctrl.write_posted(local_offset(pkt.addr),
                                         pkt.data, pkt.mask)
                    pool_recycle(pkt)
                    counters_inc("rx_writes")
                else:
                    yield from self._local_access(pkt, port)
            elif r.kind in (RouteKind.MMIO_LOCAL_LINK, RouteKind.MMIO_REMOTE,
                            RouteKind.DRAM_REMOTE):
                if r.kind is RouteKind.MMIO_LOCAL_LINK:
                    out_port = r.dst_link
                    if pkt.coherent:
                        yield t.nb_forward_ns + t.nb_iobridge_ns
                        pkt.coherent = False
                    else:
                        yield t.nb_forward_ns
                else:
                    yield t.nb_forward_ns
                    out_port = self._fabric_port_for(r.dst_node)
                if out_port == port:
                    counters_inc("routing_loops")
                    continue
                try:
                    ev = self._send_on_port_fast(out_port, pkt)
                except LinkDownError:
                    yield from self._forward_fault(pkt)
                else:
                    if ev is not None:
                        yield ev
                counters_inc("forwarded")
            else:
                counters_inc("master_aborts")

    def _dram_ready(self) -> bool:
        ready = self._dram_ready_cache
        if ready is None:
            from .registers import DramConfigAccessor

            ready = self._dram_ready_cache = DramConfigAccessor(self.regs).initialized
        return ready

    def _dram_read_port(self, addr: int, length: int,
                        unitid: int) -> Optional[int]:
        """The port a coherent read of ``[addr, addr+length)`` from node
        ``unitid`` is answered on, when the whole range is readable local
        DRAM; None otherwise (the ReadFlow promotion test)."""
        try:
            r = self.route(addr)
            r2 = self.route(addr + length - 1)
            port = self._fabric_port_for(unitid, route="response")
        except MasterAbort:
            return None
        if (r.kind is not RouteKind.DRAM_LOCAL or not r.readable
                or r2.kind is not r.kind or not self._dram_ready()):
            return None
        return port

    def _local_access(self, pkt: Packet, port: int,
                      offset: Optional[int] = None):
        """Service a request that targets this node's DRAM.  ``offset`` is
        the already-routed local DRAM offset (recomputed if not given)."""
        t = self.timing
        if not self._dram_ready():
            self.counters.inc("dram_uninitialized")
            return
        if offset is None:
            offset = self._local_offset(pkt.addr)
        if pkt.is_write and pkt.cmd.is_posted:
            self.chip.memctrl.write_posted(offset, pkt.data, pkt.mask)
            # Destination commit point of the TCCluster data plane: hand
            # the packet shell back (no-op for constructor-built packets).
            self._pool.recycle(pkt)
            self.counters.inc("rx_writes")
            return
        if pkt.is_write:
            yield self.chip.memctrl.write(offset, pkt.data, pkt.mask)
            rsp = make_target_done(srctag=pkt.srctag, unitid=pkt.unitid)
            yield from self._route_response(rsp, port)
            self.counters.inc("rx_np_writes")
            return
        if pkt.cmd is Command.READ:
            data = yield self.chip.memctrl.read(offset, pkt.dword_count * 4,
                                                uncached=False)
            rsp = make_read_response(data, srctag=pkt.srctag, unitid=pkt.unitid,
                                     coherent=pkt.coherent)
            yield from self._route_response(rsp, port)
            self.counters.inc("rx_reads")
            return
        self.counters.inc("unhandled_requests")

    def _route_response(self, rsp: Packet, rx_port: int):
        """Responses route by the requester NodeID carried in unitid."""
        dst = rsp.unitid
        if dst == self.nodeid:
            # The pathological TCCluster case: every node is NodeID 0, so a
            # response to a remote requester is routed back into ourselves.
            self._complete_or_misroute(rsp)
            return
        port = self._fabric_port_for(dst, route="response")
        try:
            ev = self._send_on_port(port, rsp)
        except LinkDownError:
            yield from self._forward_fault(rsp, response=True)
        else:
            yield ev

    def _handle_response(self, pkt: Packet, port: int):
        yield self.timing.nb_request_ns
        if pkt.unitid == self.nodeid:
            self._complete_or_misroute(pkt)
        else:
            out = self._fabric_port_for(pkt.unitid, route="response")
            if out == port:
                self.counters.inc("routing_loops")
                return
            try:
                ev = self._send_on_port(out, pkt)
            except LinkDownError:
                yield from self._forward_fault(pkt, response=True)
            else:
                yield ev

    def _complete_or_misroute(self, pkt: Packet) -> None:
        try:
            ev = self.tags.match(pkt.srctag)
        except KeyError:
            # Response for a request we never issued: the emergent
            # misrouting the paper describes (Section IV.A).
            self.counters.inc("misrouted_responses")
            return
        self._pending_reads.pop(pkt.srctag, None)
        if isinstance(ev, Event) and not ev.triggered:
            if pkt.error:
                ev.fail(MasterAbort("remote access returned error response"))
            else:
                ev.succeed(pkt.data)
        self.counters.inc("responses_matched")
