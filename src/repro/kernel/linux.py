"""A minimal Linux model: the three facilities TCCluster touches.

Paper Section VI: "As the operating system we run Linux with a custom
2.6.34 kernel.  We needed to compile our own Kernel to comply with a
limitation of TCCluster caused by interrupts. ... all system management
calls (SMC) need to be disabled which can be only achieved with a custom
kernel."

:class:`Kernel` therefore models exactly:

* boot-time SMC/interrupt-broadcast suppression (``custom=True``; a stock
  kernel leaves SMC generation on and is unsafe on a TCCluster),
* the mode switch ("The OS also switches the system from 32 bit protected
  mode into 64 bit user mode") as a boot stage,
* user processes with page tables and **numactl-style core binding**
  (Section VI measures multi-hop latency "by binding the benchmark
  process to different processor sockets using numactl"),
* loading the tccluster driver.

User code runs as simulation generators; :class:`UserProcess` exposes
``store/load/sfence`` that enforce the page table and then execute on the
bound core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..firmware.board import Board
from ..firmware.boot import BootReport
from ..opteron import CpuCore, OpteronChip
from ..opteron.mtrr import MemoryType
from ..sim import Simulator
from .driver import TccDriver
from .pagetable import Mapping, PageFault, PageTable

__all__ = ["Kernel", "UserProcess", "KernelError", "KernelPanic"]

#: Boot cost: decompress + init + driver probe (virtual ns; coarse).
OS_BOOT_NS = 50_000.0


class KernelError(RuntimeError):
    pass


class KernelPanic(KernelError):
    pass


class UserProcess:
    """A user-space process bound to one core (numactl semantics)."""

    def __init__(self, kernel: "Kernel", name: str, core: CpuCore):
        self.kernel = kernel
        self.sim = kernel.sim
        self.name = name
        self.core = core
        self.pagetable = PageTable(name=f"{name}.pt")

    # -- numactl ------------------------------------------------------------
    def bind_to(self, chip_index: int, core_index: int = 0) -> None:
        """Re-bind to another socket/core (numactl --cpunodebind)."""
        self.core = self.kernel.board.chips[chip_index].cores[core_index]

    @property
    def socket(self) -> int:
        return self.kernel.board.chips.index(self.core.chip)

    # -- memory access (page-table checked, executed on the bound core) -----
    def store(self, addr: int, data: bytes, accepts=None):
        """Store ``data`` at ``addr``.  ``accepts``, a list, receives the
        instant each line of a WC store is accepted into the posted queue
        (when a one-line store of that line would have returned)."""
        m = self.pagetable.check_store(addr, len(data))
        # The mapping's memory type (PAT) governs user accesses.  The
        # mtype dispatch is inlined here (instead of delegating through
        # ``core.store``) to shed one generator frame from the hottest
        # call chain in the simulator -- the streaming WC store path.
        core = self.core
        if not data:
            raise ValueError("empty store")
        core.stores += 1
        mtype = m.mtype
        if mtype is None:
            mtype = core.chip.mtrr.type_for_range(addr, len(data))
        if mtype is MemoryType.WC:
            yield from core._store_wc(addr, data, accepts)
        elif mtype is MemoryType.UC:
            yield from core._store_uc(addr, data)
        else:
            yield from core._store_wb(addr, data)

    def load(self, addr: int, length: int):
        m = self.pagetable.check_load(addr, length)
        data = yield from self.core.load(addr, length, mtype=m.mtype)
        return data

    def sfence(self):
        yield from self.core.sfence()


class Kernel:
    """One board's operating system instance."""

    def __init__(self, board: Board, report: BootReport, custom: bool = True):
        self.board = board
        self.sim: Simulator = board.sim
        self.report = report
        self.custom = custom
        self.booted = False
        self.mode = "32-bit protected"
        self.drivers: Dict[int, TccDriver] = {}
        self._processes: List[UserProcess] = []

    def boot(self, global_base: int, global_limit: int,
             node_ranges: Optional[Dict[int, tuple]] = None):
        """Generator: bring the OS up and probe the tccluster driver.

        ``node_ranges``: chip_index -> (local_base, local_limit); derived
        from the firmware plan by the cluster builder.
        """
        yield self.sim.timeout(OS_BOOT_NS)
        self.mode = "64-bit long"
        if self.custom:
            # The custom kernel's defining change: no SMC broadcasts.
            for chip in self.board.chips:
                chip.misc_control().smc_enabled = False
        if node_ranges:
            for ci, (lb, ll) in node_ranges.items():
                self.drivers[ci] = TccDriver(
                    self.board.chips[ci], lb, ll, global_base, global_limit
                )
        self.booted = True
        return self

    def driver_for(self, chip_index: int = 0) -> TccDriver:
        if not self.booted:
            raise KernelError("OS not booted")
        try:
            return self.drivers[chip_index]
        except KeyError:
            raise KernelError(f"no tccluster driver on chip {chip_index}")

    def spawn(self, name: str, chip_index: int = 0, core_index: int = 0) -> UserProcess:
        if not self.booted:
            raise KernelError("cannot spawn before boot")
        chip = self.board.chips[chip_index]
        proc = UserProcess(self, name, chip.cores[core_index])
        self._processes.append(proc)
        return proc

    def smc_safe(self) -> bool:
        """True when no chip can originate SMC broadcasts (TCC-safe)."""
        return all(not c.misc_control().smc_enabled for c in self.board.chips)
