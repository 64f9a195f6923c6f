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
from heapq import heappush as _heappush
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..ht.link import Link, LinkDownError, LinkState
from ..ht.packet import Command, Packet, factory_for, make_read, make_read_response
from ..ht.tags import ResponseMatchingTable, UnroutableResponseError
from ..obs.metrics import fault_counters, flow_counters, metrics_for
from ..sim import AnyOf, Counter, Event, Simulator, Store, Wake
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
        #: Decoded routing-table ports by ``(node, route)``.
        self._port_cache: Dict[tuple, int] = {}
        #: Set on any ADDRESS_MAP register write; the (expensive) BKDG
        #: bitfield decode is deferred to the next route/translate --
        #: firmware boot rewrites the maps dozens of times before the
        #: first packet ever consults them.
        self._maps_dirty = False
        #: Builds the flyweight posted-write packets (one per simulation).
        self._packets = factory_for(sim)
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
        self._port_cache.clear()
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
        port = self._port_cache.get((dst_node, route))
        if port is not None:
            return port
        acc = RoutingTableAccessor(self.regs, dst_node)
        mask_value = getattr(acc, route)
        port = self._route_mask_to_port(mask_value)
        if port is None:
            raise MasterAbort(
                f"{self.name}: routing table says node {dst_node} is self, "
                "but the address map disagreed"
            )
        self._port_cache[(dst_node, route)] = port
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
        pkt = self._packets.posted_write(addr, data, unitid=self.nodeid,
                                         coherent=True, mask=mask)
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
            self.sim.process(self._do_cpu_read(r, addr, length, uncached,
                                               done))
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

    def _do_cpu_read(self, r: RouteResult, addr: int, length: int,
                     uncached: bool, done: Event):
        """Every load :meth:`cpu_read` does not chain: ``r`` is its route,
        so readable local DRAM never arrives here."""
        yield self.timing.nb_request_ns
        if r.kind is RouteKind.NONE:
            done.fail(MasterAbort(f"{self.name}: read from unmapped {addr:#x}"))
            return
        if not r.readable:
            done.fail(MasterAbort(f"{self.name}: address {addr:#x} is write-only"))
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
        while self.posted_q.try_get()[0]:
            n += 1
        return n

    # ------------------------------------------------------------------
    # Fabric-side processing
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher and one receive stage per attached port;
        each begins parked on its empty queue."""
        if self._started:
            return
        self._started = True
        sim = self.sim
        self.dispatcher = _Dispatcher(self)
        sim._push(sim._now, self.dispatcher._next, None)
        self.rx_stages = {}
        for k in list(self.chip.ports):
            st = self.rx_stages[k] = _RxStage(self, k)
            sim._push(sim._now, st._next, None)

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

    def _local_access(self, pkt: Packet, port: int):
        """Service a request that targets this node's DRAM.  The rx stage
        commits every posted write inline once DRAM is ready, so past the
        readiness check only a coherent read arrives here."""
        if not self._dram_ready():
            self.counters.inc("dram_uninitialized")
            return
        data = yield self.chip.memctrl.read(self._local_offset(pkt.addr),
                                            pkt.dword_count * 4,
                                            uncached=False)
        rsp = make_read_response(data, srctag=pkt.srctag, unitid=pkt.unitid,
                                 coherent=pkt.coherent)
        yield from self._route_response(rsp, port)
        self.counters.inc("rx_reads")

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
            ev.succeed(pkt.data)
        self.counters.inc("responses_matched")


class _Dispatcher:
    """The posted-write stage: drains the CPU posted queue into local
    DRAM or the fabric, one packet at a time.

    A step function, not a process: ``pkt`` is the packet in the
    crossbar and ``route`` where it goes when its crossbar latency ends.
    It parks on the empty posted queue as the queue's getter
    (:meth:`succeed`), and only waits on a full TX queue or on the
    link-down recovery (:meth:`Northbridge._forward_fault`, still a
    generator).  Every calendar entry is pushed where the dispatcher
    process pushed it (DESIGN.md section 7).
    """

    __slots__ = ("nb", "sim", "q", "pkt", "route", "done", "tx_step",
                 "req_step")

    def __init__(self, nb: Northbridge):
        self.nb = nb
        self.sim = nb.sim
        self.q = nb.posted_q
        self.pkt: Optional[Packet] = None
        self.route: Optional[RouteResult] = None
        self.done: Tuple[str, ...] = ()
        t = nb.timing
        # Crossbar + IO-bridge latency taken as one step on the TCCluster
        # transmit path.  The route decode is register-pure (no virtual
        # time passes in route()), so sampling it before the step is
        # observationally identical.
        self.tx_step = t.nb_request_ns + t.nb_iobridge_ns
        self.req_step = t.nb_request_ns

    @property
    def idle(self) -> bool:
        """Parked on an empty posted queue, holding nothing."""
        return self.pkt is None and self in self.q._getters

    def succeed(self, pkt: Packet) -> None:
        """The posted queue hands a packet to the parked dispatcher."""
        self.pkt = pkt
        sim = self.sim
        sim._push(sim._now, self._got, None)

    def _next(self) -> None:
        ok, pkt = self.q.try_get()
        if not ok:
            self.q._getters.append(self)
            return
        self.pkt = pkt
        self._got()

    def _got(self) -> None:
        nb = self.nb
        pkt = self.pkt
        sim = self.sim
        m = nb._m
        if m.enabled:
            m.track(nb._depth_series, sim._now, len(self.q._items))
        r = self.route = nb.route(pkt.addr)
        kind = r.kind
        delay = self.req_step
        if not r.writable and kind is not RouteKind.NONE:
            step = self._readonly
        elif kind is RouteKind.DRAM_LOCAL:
            step = self._local
        elif kind is RouteKind.MMIO_LOCAL_LINK:
            # The TCCluster transmit path: an MMIO window homed at this
            # node whose DstLink points straight out of the chip.
            step = self._mmio
            delay = self.tx_step
        elif kind is RouteKind.DRAM_REMOTE or kind is RouteKind.MMIO_REMOTE:
            step = self._remote
        else:
            step = self._abort
        sim._push(sim._now + delay, step, None)

    def _finish(self, *counts: str) -> None:
        inc = self.nb.counters.inc
        for c in counts:
            inc(c)
        self.pkt = None
        self._next()

    def _readonly(self) -> None:
        self._finish("write_to_readonly")

    def _abort(self) -> None:
        self._finish("master_aborts")

    def _local(self) -> None:
        nb = self.nb
        if not nb._dram_ready():
            self._finish("dram_uninitialized")
            return
        pkt = self.pkt
        nb.chip.memctrl.write_posted(nb._local_offset(pkt.addr), pkt.data,
                                     pkt.mask)
        self._finish("local_writes")

    def _mmio(self) -> None:
        self.pkt.coherent = False
        self.done = ("mmio_writes",)
        self._send(self.route.dst_link)

    def _remote(self) -> None:
        r = self.route
        # MMIO homed at another fabric node: one coherent hop first,
        # counted apart from plain DRAM fabric writes.
        self.done = (("fabric_writes",) if r.kind is RouteKind.DRAM_REMOTE
                     else ("fabric_writes", "mmio_remote_writes"))
        self._send(self.nb._fabric_port_for(r.dst_node))

    def _send(self, port: int) -> None:
        nb = self.nb
        pkt = self.pkt
        try:
            ev = nb._send_on_port_fast(port, pkt)
        except LinkDownError:
            self.sim._run_inline(nb._forward_fault(pkt), self._sent,
                                 nb.name)
            return
        if ev is not None:
            ev.add_callback(self._sent)
            return
        self._sent()

    def _sent(self, _=None) -> None:
        self._finish(*self.done)

    # -- macro windows (repro.opteron.train) ---------------------------------
    def hold(self, pkt: Packet) -> None:
        """A demoted train's line is in the crossbar: take the parked
        dispatcher off its queue until :meth:`finish_line` ends it."""
        self.q._getters.remove(self)
        self.pkt = pkt

    def finish_line(self, port: int, attempt: float,
                    put_ev: Optional[Event]) -> None:
        """Finish the held line as the per-packet dispatcher would: its
        send to ``port`` is due at ``attempt``, or already waits on
        TX-queue acceptance ``put_ev``; then take up the queue."""
        self.done = ("mmio_writes",)
        if put_ev is not None:
            put_ev.add_callback(self._sent)
            return
        sim = self.sim
        now = sim._now
        if attempt > now:
            # remainder of the crossbar step
            sim._push(now + (attempt - now), self._send, (port,))
            return
        self._send(port)


class _RxStage:
    """The receive stage of one port: takes each arriving packet (which
    returns its credit), crosses the crossbar and commits it to local
    DRAM or forwards it out of another port.

    A step function with the dispatcher's shape (:class:`_Dispatcher`):
    it parks on the link's empty rx store, a delivery hands it the
    packet inside the delivery entry (:meth:`_succeed_inline`), and only
    a full TX queue or link-down recovery makes it wait.  Responses and
    coherent reads still run their generator protocols
    (:meth:`Northbridge._handle_response`, :meth:`_local_access`).
    """

    __slots__ = ("nb", "sim", "port", "ports", "rx", "credits", "pkt",
                 "route", "convert", "held", "req_step", "rx_convert_step",
                 "fwd_step", "fwd_convert_step", "_put_wake")

    def __init__(self, nb: Northbridge, port: int):
        self.nb = nb
        self.sim = nb.sim
        self.port = port
        self.ports = nb.chip.ports
        binding = self.ports[port]
        d = binding.link._dirs["B" if binding.side == "A" else "A"]
        d.rx_stage = self
        self.rx = d.rx
        self.credits = d.credits
        self.pkt: Optional[Packet] = None
        self.route: Optional[RouteResult] = None
        self.convert = False
        #: True while a macro window holds the stage busy (ReadFlow).
        self.held = False
        self._put_wake = Wake(self.sim, self._forwarded)
        t = nb.timing
        self.req_step = t.nb_request_ns
        # IO bridge: non-coherent -> coherent conversion, folded into
        # the crossbar step (one calendar entry).
        self.rx_convert_step = t.nb_request_ns + t.nb_iobridge_ns
        self.fwd_step = t.nb_forward_ns
        self.fwd_convert_step = t.nb_forward_ns + t.nb_iobridge_ns

    @property
    def idle(self) -> bool:
        """Parked on an empty rx store, holding nothing."""
        return self.pkt is None and self in self.rx._getters

    def _succeed_inline(self, pkt: Packet) -> None:
        """A delivery hands the parked stage a packet, inside the
        delivery entry: its credit goes home, then the stage takes it."""
        cp = self.credits[pkt.vc]
        if cp._waiters or cp._credits >= cp.initial:
            cp.give()
        else:
            cp._credits += 1
        self._got(pkt)

    def succeed(self, pkt: Packet) -> None:
        sim = self.sim
        sim._push(sim._now, self._succeed_inline, (pkt,))

    def _next(self) -> None:
        """Take the next arrival (returning its credit), or park."""
        items = self.rx._items
        if not items:
            self.rx._getters.append(self)
            return
        pkt = items.popleft()
        cp = self.credits[pkt.vc]
        if cp._waiters or cp._credits >= cp.initial:
            cp.give()
        else:
            cp._credits += 1
        self._got(pkt)

    def hold(self) -> None:
        """Keep a parked stage busy for a macro window (it takes nothing
        until :meth:`release`)."""
        if not self.held and self.idle:
            self.rx._getters.remove(self)
            self.held = True

    def release(self) -> None:
        """End a :meth:`hold`: take up the rx store again."""
        if self.held:
            self.held = False
            self._next()

    def _got(self, pkt: Packet) -> None:
        self.pkt = pkt
        nb = self.nb
        sim = self.sim
        cmd = pkt.cmd
        if cmd is Command.BROADCAST:
            sim._push(sim._now + self.req_step, self._broadcast, None)
            return
        if cmd is not Command.WRITE_POSTED and cmd.is_response:
            sim._run_inline(nb._handle_response(pkt, self.port), self._done,
                            nb.name)
            return
        r = self.route = nb.route(pkt.addr)
        kind = r.kind
        if kind is RouteKind.DRAM_LOCAL:
            self.convert = not pkt.coherent
            at = sim._now + (self.rx_convert_step if self.convert
                             else self.req_step)
            step = self._local
        elif kind is RouteKind.MMIO_LOCAL_LINK:
            self.convert = pkt.coherent
            at = sim._now + (self.fwd_convert_step if self.convert
                             else self.fwd_step)
            step = self._forward
        elif kind is RouteKind.MMIO_REMOTE or kind is RouteKind.DRAM_REMOTE:
            self.convert = False
            at = sim._now + self.fwd_step
            step = self._forward
        else:
            nb.counters.inc("master_aborts")
            self.pkt = None
            self._next()
            return
        sim._seq += 1
        sim._push_count += 1
        _heappush(sim._heap, (at, sim._seq, step, None))

    def _done(self, _=None, count: Optional[str] = None) -> None:
        if count is not None:
            self.nb.counters.inc(count)
        self.pkt = None
        self._next()

    def _broadcast(self) -> None:
        self.nb.broadcast(self.pkt, exclude_port=self.port)
        self._done(count="broadcasts_received")

    def _local(self) -> None:
        nb = self.nb
        pkt = self.pkt
        if self.convert:
            pkt.coherent = True
        cmd = pkt.cmd
        if ((cmd is Command.WRITE_POSTED or cmd is Command.WRITE_POSTED_BYTE)
                and nb._dram_ready()):
            # Posted-write destination commit: the bulk data plane lands
            # here once per packet.
            nb.chip.memctrl.write_posted(nb._local_offset(pkt.addr),
                                         pkt.data, pkt.mask)
            self._done(count="rx_writes")
        else:
            self.sim._run_inline(nb._local_access(pkt, self.port),
                                 self._done, nb.name)

    def _forward(self) -> None:
        nb = self.nb
        pkt = self.pkt
        r = self.route
        if r.kind is RouteKind.MMIO_LOCAL_LINK:
            out_port = r.dst_link
            if self.convert:
                pkt.coherent = False
        else:
            out_port = nb._fabric_port_for(r.dst_node)
        if out_port == self.port:
            self._done(count="routing_loops")
            return
        # Northbridge._send_on_port_fast, inlined: the packet enters the
        # egress TX queue now, or waits for room as a blocked putter.
        binding = self.ports.get(out_port)
        if binding is None:
            raise MasterAbort(f"{nb.name}: no link attached at port {out_port}")
        link = binding.link
        if link.state != LinkState.ACTIVE:
            self.sim._run_inline(nb._forward_fault(pkt), self._forwarded,
                                 nb.name)
            return
        d = link._dirs[binding.side]
        if d._macro is not None:
            link.demote_macros(binding.side)
        q = d.txq[pkt.vc]
        cap = q.capacity
        if q._putters or (cap is not None and len(q._items) >= cap):
            q._putters.append((self._put_wake, pkt))
            return
        q._items.append(pkt)
        if q._getters:
            q._wake_getter()
        self._forwarded()

    def _forwarded(self, _=None) -> None:
        self.nb.counters.inc("forwarded")
        self.pkt = None
        self._next()

    def respond(self, rsp: Packet) -> None:
        """Route a read response from the held stage, as its local access
        would after the DRAM read, then take up the rx store again (a
        :class:`ReadFlow` demoted while its read was in DRAM)."""
        nb = self.nb
        self.pkt = rsp
        self.sim._run_inline(nb._route_response(rsp, self.port),
                             self._responded, nb.name)

    def _responded(self, _=None) -> None:
        self.held = False
        self._done(count="rx_reads")
