"""HT link aggregation: striping one logical link over two physical ones.

Paper Section V: "The mainboard provides two HyperTransport links between
processor Node0 and processors Node1 which can be aggregated to a dual
link."

:class:`AggregatedLink` presents the same interface as
:class:`~repro.ht.link.Link` (send / receive / stats / lifecycle) while
striping packets round-robin across its member links and **resequencing**
at the receiver: HT guarantees in-order delivery per link, but two
striped lanes can interleave, so each packet carries a per-direction
sequence tag and the receive side releases packets in tag order.

Aggregation roughly doubles streaming bandwidth; small-packet latency is
unchanged (a single packet still crosses one physical link).
"""

from __future__ import annotations

import itertools
from dataclasses import fields
from typing import Dict, List, Optional

from ..sim import Event, Simulator, Store
from .link import Link, LinkSide, LinkState, LinkStats
from .packet import Packet

__all__ = ["AggregatedLink"]


class _Resequencer:
    """Releases packets in stripe-tag order for one direction."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.out: Store = Store(sim, name=f"{name}.out")
        self._next = 0
        self._stash: Dict[int, Packet] = {}

    def push(self, tag: int, pkt: Packet) -> None:
        self._stash[tag] = pkt
        while self._next in self._stash:
            self.out.try_put(self._stash.pop(self._next))
            self._next += 1


class AggregatedLink:
    """Two (or more) member links behaving as one ordered link."""

    def __init__(self, sim: Simulator, members: List[Link], name: str = "agg"):
        if len(members) < 2:
            raise ValueError("aggregation needs at least two member links")
        self.sim = sim
        self.members = list(members)
        self.name = name
        self._tx_tag = {LinkSide.A: itertools.count(), LinkSide.B: itertools.count()}
        self._rr = {LinkSide.A: 0, LinkSide.B: 0}
        self._reseq = {
            LinkSide.A: _Resequencer(sim, f"{name}.rxA"),
            LinkSide.B: _Resequencer(sim, f"{name}.rxB"),
        }
        for i, m in enumerate(self.members):
            sim.process(self._pump(m, LinkSide.A), name=f"{name}.m{i}.pumpA")
            sim.process(self._pump(m, LinkSide.B), name=f"{name}.m{i}.pumpB")

    # -- Link-compatible surface ------------------------------------------
    @property
    def state(self) -> str:
        if all(m.state == LinkState.ACTIVE for m in self.members):
            return LinkState.ACTIVE
        return LinkState.DOWN

    @property
    def link_type(self) -> Optional[str]:
        types = {m.link_type for m in self.members}
        return types.pop() if len(types) == 1 else None

    @property
    def bytes_per_ns(self) -> float:
        return sum(m.bytes_per_ns for m in self.members)

    def activate(self, link_type: str) -> None:
        for m in self.members:
            m.activate(link_type)

    def bring_down(self) -> None:
        for m in self.members:
            m.bring_down()

    def send(self, side: str, pkt: Packet) -> Event:
        """Stripe: tag the packet, pick the next member round-robin.

        Payloads are never touched here -- a zero-copy memoryview span on
        ``pkt.data`` rides the stripe and the resequencer untouched (only
        the ``_agg_tag`` side-channel is written)."""
        tag = next(self._tx_tag[side])
        pkt._agg_tag = tag  # side-channel attribute; not on the wire model
        idx = self._rr[side]
        self._rr[side] = (idx + 1) % len(self.members)
        return self.members[idx].send(side, pkt)

    def try_send(self, side: str, pkt: Packet) -> bool:
        tag = next(self._tx_tag[side])
        pkt._agg_tag = tag
        idx = self._rr[side]
        ok = self.members[idx].try_send(side, pkt)
        if ok:
            self._rr[side] = (idx + 1) % len(self.members)
        return ok

    def receive(self, side: str) -> Event:
        return self._reseq[side].out.get()

    def try_receive(self, side: str):
        return self._reseq[side].out.try_get()

    def pending_rx(self, side: str) -> int:
        return len(self._reseq[side].out)

    def stats(self, side: str) -> LinkStats:
        """Aggregate transmit stats (summed over members, every field)."""
        members = [m.stats(side) for m in self.members]
        return LinkStats(**{f.name: sum(getattr(s, f.name) for s in members)
                            for f in fields(LinkStats)})

    # -- internals -----------------------------------------------------------
    def _pump(self, member: Link, rx_side: str):
        """Move arrivals from one member into the resequencer."""
        reseq = self._reseq[rx_side]
        while True:
            pkt = yield member.receive(rx_side)
            tag = getattr(pkt, "_agg_tag", None)
            if tag is None:
                # Non-striped traffic (e.g. sent directly on a member):
                # release immediately, bypassing resequencing.
                reseq.out.try_put(pkt)
                continue
            reseq.push(tag, pkt)
