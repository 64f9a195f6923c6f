"""Per-rank message library instance: mappings + endpoint factory.

Ties together the driver (mmap services), the user process (page table +
bound core) and the region layout.  One instance lives on each rank; the
cluster builder constructs them after the OS boots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..kernel.driver import TccDriver
from ..kernel.linux import UserProcess
from ..kernel.pagetable import PAGE_SIZE
from ..obs.metrics import metrics_for
from .config import REGION_OFFSET, MsgConfig, RegionLayout
from .endpoint import Endpoint, MessageError, TransportError

__all__ = ["MessageLibrary", "TransportError"]


class MessageLibrary:
    """User-space messaging context of one rank."""

    def __init__(
        self,
        proc: UserProcess,
        driver: TccDriver,
        rank: int,
        rank_ranges: Sequence[Tuple[int, int]],
        cfg: MsgConfig = MsgConfig(),
    ):
        """``rank_ranges[r]`` is rank r's local DRAM slice [base, limit)
        in the global address space."""
        self.proc = proc
        self.sim = proc.sim
        self.driver = driver
        self.rank = rank
        self.rank_ranges = list(rank_ranges)
        self.cfg = cfg
        self.layout: RegionLayout = cfg.layout(len(rank_ranges))
        self._endpoints: Dict[int, Endpoint] = {}
        self.registry = metrics_for(self.sim)

        my_base, my_limit = self.rank_ranges[rank]
        if my_base != driver.local_base:
            raise MessageError(
                f"rank table says base {my_base:#x}, driver says "
                f"{driver.local_base:#x}"
            )
        if self.layout.required_bytes() > my_limit - my_base:
            raise MessageError(
                f"layout needs {self.layout.required_bytes():#x} bytes of "
                f"local DRAM, node has {my_limit - my_base:#x}"
            )
        # Export policy: remote nodes may only touch the message regions.
        driver.restrict_export(
            my_base + REGION_OFFSET,
            my_base + self.layout.required_bytes(),
        )
        # Local mappings (UC so polling sees remote writes).
        ring_off, ring_sz = self.layout.ring_region()
        fb_off, fb_sz = self.layout.fb_region()
        heap_off, heap_sz = self.layout.heap_region()
        pt = proc.pagetable
        driver.mmap_local_export(pt, my_base + ring_off, ring_sz, tag="rings")
        driver.mmap_local_export(pt, my_base + fb_off, fb_sz, tag="feedback")
        driver.mmap_local_export(pt, my_base + heap_off, heap_sz, tag="heap")

    def rank_base(self, rank: int) -> int:
        return self.rank_ranges[rank][0]

    @property
    def nranks(self) -> int:
        return len(self.rank_ranges)

    def connect(self, peer_rank: int) -> Endpoint:
        """Open (or return) the endpoint toward ``peer_rank``, mapping the
        peer's ring slice, heap slice and feedback page write-only."""
        if peer_rank == self.rank:
            raise MessageError("cannot connect an endpoint to itself")
        if not 0 <= peer_rank < self.nranks:
            raise MessageError(f"rank {peer_rank} out of range")
        ep = self._endpoints.get(peer_rank)
        if ep is not None:
            return ep
        peer_base = self.rank_base(peer_rank)
        pt = self.proc.pagetable
        lo = self.layout
        self.driver.mmap_remote(
            pt, peer_base + lo.ring_of_sender(self.rank), self.cfg.ring_bytes,
            tag=f"tx-ring->{peer_rank}",
        )
        self.driver.mmap_remote(
            pt, peer_base + lo.heap_of_sender(self.rank), self.cfg.heap_bytes,
            tag=f"tx-heap->{peer_rank}",
        )
        fb_line = peer_base + lo.feedback_of_peer(self.rank)
        fb_page = fb_line - (fb_line % PAGE_SIZE)
        try:
            self.driver.mmap_remote(pt, fb_page, PAGE_SIZE,
                                    tag=f"tx-fb->{peer_rank}")
        except Exception:
            # Page may already be mapped via another endpoint's window;
            # the line itself is exclusive to this pair.
            pt.lookup(fb_line, 64)
        ep = Endpoint(self, peer_rank)
        self._endpoints[peer_rank] = ep
        return ep

    def endpoints(self) -> List[Endpoint]:
        return list(self._endpoints.values())

    def metrics(self) -> Dict[str, Dict]:
        """Per-endpoint counters, keyed ``"r<me>->r<peer>"``."""
        return {
            f"r{self.rank}->r{ep.peer}": ep.stats.as_dict()
            for ep in self._endpoints.values()
        }
