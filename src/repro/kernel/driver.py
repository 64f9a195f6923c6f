"""The TCCluster character-device driver.

Paper Section VI: "We developed a Linux driver which can map remote
TCCluster memory addresses into the user space" plus the receive-side
rule: "the receiver needs to map the local memory which is accessible by
the remote nodes as uncachable."

The driver brokers three operations for user space:

* :meth:`mmap_remote` -- map a window of another node's memory,
  write-combining and **write-only** (reads cannot cross a TCC link),
* :meth:`mmap_local_export` -- map a region of local DRAM that remote
  nodes will write into, **uncacheable** so polling sees fresh data; the
  driver programs an MTRR/PAT entry for the region,
* :meth:`restrict_export` -- per Section IV.D: "If a system desires to
  provide only parts of the local memory to remote nodes, the driver has
  to restrict the address ranges that can be mapped into user space by
  remote nodes."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..opteron import OpteronChip
from ..opteron.mtrr import MemoryType, MTRRError
from .pagetable import Mapping, PageFault, PageTable

__all__ = ["TccDriver", "DriverError"]


class DriverError(RuntimeError):
    """ioctl-style failure from the tccluster device."""


class TccDriver:
    """Kernel-side driver instance on one node (chip)."""

    def __init__(self, chip: OpteronChip, local_base: int, local_limit: int,
                 global_base: int, global_limit: int):
        """``local_*``: this node's DRAM slice in the global space;
        ``global_*``: the whole TCCluster space."""
        self.chip = chip
        self.local_base = local_base
        self.local_limit = local_limit
        self.global_base = global_base
        self.global_limit = global_limit
        #: global-address windows remote nodes may target on this node;
        #: empty means everything local is exportable.
        self._export_windows: List[Tuple[int, int]] = []
        self._uc_programmed: List[Tuple[int, int]] = []

    # -- policy ------------------------------------------------------------
    def restrict_export(self, base: int, limit: int) -> None:
        """Allow remote access only inside [base, limit) (repeatable)."""
        if not (self.local_base <= base < limit <= self.local_limit):
            raise DriverError(
                f"export window [{base:#x},{limit:#x}) outside local DRAM "
                f"[{self.local_base:#x},{self.local_limit:#x})"
            )
        self._export_windows.append((base, limit))

    def _export_allowed(self, base: int, limit: int) -> bool:
        if not self._export_windows:
            return True
        return any(b <= base and limit <= l for (b, l) in self._export_windows)

    # -- mmap services -----------------------------------------------------------
    def mmap_remote(self, pt: PageTable, base: int, size: int,
                    tag: str = "tcc-remote") -> Mapping:
        """Map a remote window write-only + write-combining."""
        limit = base + size
        if not (self.global_base <= base < limit <= self.global_limit):
            raise DriverError(
                f"remote window [{base:#x},{limit:#x}) outside the global "
                f"space [{self.global_base:#x},{self.global_limit:#x})"
            )
        if base >= self.local_base and limit <= self.local_limit:
            raise DriverError(
                "mmap_remote used for a local range; use mmap_local_export"
            )
        return pt.map(base, size, MemoryType.WC,
                      readable=False, writable=True, tag=tag)

    def mmap_local_export(self, pt: PageTable, base: int, size: int,
                          tag: str = "tcc-ring") -> Mapping:
        """Map local memory that remote nodes write into: UC, read-write."""
        limit = base + size
        if not (self.local_base <= base < limit <= self.local_limit):
            raise DriverError(
                f"[{base:#x},{limit:#x}) is not local to {self.chip.name}"
            )
        if not self._export_allowed(base, limit):
            raise DriverError(
                f"export of [{base:#x},{limit:#x}) denied by driver policy"
            )
        self._ensure_uncacheable(base, limit)
        return pt.map(base, size, MemoryType.UC,
                      readable=True, writable=True, tag=tag)

    def _ensure_uncacheable(self, base: int, limit: int) -> None:
        """Program MTRR/PAT so polling bypasses the cache.

        MTRRs need power-of-two sizing; the driver rounds the region out to
        the smallest legal cover (over-covering local DRAM with UC is safe,
        merely slow)."""
        for (b, l) in self._uc_programmed:
            if b <= base and limit <= l:
                return
        size = 1 << max(12, (limit - base - 1).bit_length())
        aligned = (base // size) * size
        while aligned + size < limit:
            size <<= 1
            aligned = (base // size) * size
        try:
            self.chip.mtrr.add(aligned, size, MemoryType.UC)
        except MTRRError as exc:
            raise DriverError(
                f"cannot mark ring region UC: {exc} -- unmap something first"
            ) from exc
        self._uc_programmed.append((aligned, aligned + size))
