"""Blocking queues and resources for simulation processes.

These primitives model the hardware FIFOs that dominate interconnect
behaviour: bounded buffers with back-pressure (:class:`Store`), counting
credits (:class:`CreditPool`, the HT flow-control abstraction) and mutual
exclusion (:class:`Resource`, used e.g. for the single outgoing link port of
a northbridge).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .engine import Event, Simulator, SimulationError

__all__ = ["Store", "Resource", "CreditPool", "Gate", "Barrier", "Doorbell",
           "Wake"]


class Wake:
    """A callback's place in a waiter queue (a credit pool's waiters, a
    store's putters): ``succeed()`` pushes ``fn`` at this instant, the
    entry a woken process's dispatch would take, without an Event.  The
    step-function stages of :mod:`repro.ht.link` and
    :mod:`repro.opteron.northbridge` wait this way."""

    __slots__ = ("sim", "fn")

    def __init__(self, sim: Simulator, fn):
        self.sim = sim
        self.fn = fn

    def succeed(self, _value: Any = None) -> None:
        sim = self.sim
        sim._push(sim._now, self.fn, None)


class Store:
    """A bounded FIFO with blocking put/get, FCFS on both sides.

    ``capacity=None`` means unbounded (an ideal queue); hardware models
    always pass a finite capacity so back-pressure propagates.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        # Event names are precomputed: put/get run once per packet per hop
        # and per-call f-strings show up in profiles.
        self._put_name = f"{name}.put"
        self._get_name = f"{name}.get"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is accepted."""
        ev = Event(self.sim, name=self._put_name)
        cap = self.capacity
        if not self._putters and (cap is None or len(self._items) < cap):
            self._items.append(item)
            ev.succeed()
            if self._getters:
                self._wake_getter()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        cap = self.capacity
        if self._putters or (cap is not None and len(self._items) >= cap):
            return False
        self._items.append(item)
        if self._getters:
            self._wake_getter()
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        if self._putters:
            self._admit_putter()
        return True, item

    def put_inline(self, item: Any) -> None:
        """Put from a *bare calendar callback* as its final action.

        A parked getter is resumed synchronously instead of via a
        zero-delay dispatch entry -- the caller's calendar entry IS the
        dispatch (a seq shift within the timestamp, not a timing
        change).  Only valid on unbounded stores (the link rx ring),
        where capacity back-pressure cannot apply.
        """
        assert self.capacity is None, "put_inline requires an unbounded store"
        if self._getters:
            self._getters.popleft()._succeed_inline(item)
        else:
            self._items.append(item)

    def unget(self, item: Any) -> None:
        """Return ``item`` to the *head* of the queue (a link-level NAK).

        The inverse of :meth:`get` for a consumer that took an item but
        could not complete it: the item goes back in front of everything
        queued behind it, so FIFO order is preserved on retransmit.  The
        store may transiently exceed ``capacity`` (the consumer's pop
        already admitted a blocked putter); that models the HT retry
        buffer holding the NAK'd packet and only delays future puts.
        """
        self._items.appendleft(item)

    def peek(self) -> Any:
        """Look at the head item without removing it (raises if empty)."""
        if not self._items:
            raise SimulationError(f"peek on empty store {self.name!r}")
        return self._items[0]

    def _wake_getter(self) -> None:
        while self._getters and self._items:
            ev = self._getters.popleft()
            ev.succeed(self._items.popleft())
            self._admit_putter()

    def _admit_putter(self) -> None:
        putters, items, cap = self._putters, self._items, self.capacity
        while putters and (cap is None or len(items) < cap):
            ev, item = putters.popleft()
            items.append(item)
            ev.succeed()
            if self._getters:
                self._wake_getter()


class Resource:
    """A counting semaphore with FCFS acquisition.

    Typical use::

        yield resource.acquire()
        try:
            ...critical section...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._acquire_name = f"{name}.acquire"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        ev = Event(self.sim, name=self._acquire_name)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns False if it would have waited."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class CreditPool:
    """Counting credits with blocking take -- the HT flow-control primitive.

    The receiver of an HT link grants N buffer credits per virtual channel;
    the transmitter must take a credit before sending a packet and the
    receiver returns it when the buffer frees.  Modeled as a counter that
    never exceeds ``initial``.
    """

    def __init__(self, sim: Simulator, initial: int, name: str = ""):
        if initial < 0:
            raise ValueError(f"initial credits must be >= 0, got {initial}")
        self.sim = sim
        self.name = name
        self.initial = initial
        self._credits = initial
        self._waiters: Deque[tuple] = deque()  # (event, amount)
        self._take_name = f"{name}.take"

    @property
    def credits(self) -> int:
        return self._credits

    def take(self, amount: int = 1) -> Event:
        """Event fires once ``amount`` credits have been obtained."""
        if amount <= 0:
            raise ValueError(f"credit amount must be positive, got {amount}")
        if amount > self.initial:
            raise SimulationError(
                f"{self.name!r}: requesting {amount} credits but pool "
                f"maximum is {self.initial} (would deadlock)"
            )
        ev = Event(self.sim, name=self._take_name)
        if self._credits >= amount and not self._waiters:
            self._credits -= amount
            ev.succeed()
        else:
            self._waiters.append((ev, amount))
        return ev

    def try_take(self, amount: int = 1) -> bool:
        if self._waiters or self._credits < amount:
            return False
        self._credits -= amount
        return True

    def give(self, amount: int = 1) -> None:
        """Return credits (receiver freed buffer space)."""
        if amount <= 0:
            raise ValueError(f"credit amount must be positive, got {amount}")
        self._credits += amount
        if self._credits > self.initial:
            raise SimulationError(
                f"{self.name!r}: credit overflow ({self._credits} > {self.initial})"
            )
        while self._waiters and self._credits >= self._waiters[0][1]:
            ev, amt = self._waiters.popleft()
            self._credits -= amt
            ev.succeed()


class Gate:
    """A level-triggered condition: processes wait until the gate is open.

    Unlike :class:`repro.sim.engine.Event` a gate can open and close
    repeatedly; used e.g. for 'warm reset asserted' and barrier releases.
    """

    def __init__(self, sim: Simulator, open_: bool = False, name: str = ""):
        self.sim = sim
        self.name = name
        self._open = open_
        self._waiters: List[Event] = []
        self._wait_name = f"{name}.wait"

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = Event(self.sim, name=self._wait_name)
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    def close(self) -> None:
        self._open = False


class Doorbell:
    """A monotone wakeup counter for event-driven polling.

    A consumer that would otherwise busy-poll shared memory snapshots
    :attr:`count`, checks the memory, and then waits on the snapshot::

        seen = doorbell.count
        ...inspect memory...
        yield doorbell.wait(seen)   # fires on the next ring after `seen`

    ``wait(seen)`` succeeds immediately if the counter already moved past
    ``seen`` -- the compare-and-wait closes the lost-wakeup race where a
    producer rings between the memory inspection and the park.  Producers
    call :meth:`ring` on every relevant write; rings are never lost, only
    coalesced (one wake may cover several rings).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._count = 0
        self._waiters: List[Event] = []
        #: Deferred-ring providers (flow-level fidelity): objects whose
        #: rings exist arithmetically but have not yet been applied to
        #: ``_count``.  ``count`` folds them in so a consumer snapshot
        #: observes exactly the value a per-packet run would have rung by
        #: now; a provider only spends a calendar entry when a waiter
        #: actually parks (see :class:`repro.sim.flows.CommitSpan`).
        self._providers: List = []
        # Precomputed: endpoint polling parks on the doorbell once per
        # received message and per-wait f-strings show up in profiles.
        self._wait_name = f"{name}.wait"

    @property
    def count(self) -> int:
        c = self._count
        if self._providers:
            now = self.sim._now
            for p in self._providers:
                c += p.pending_rings(self, now)
        return c

    def ring(self) -> None:
        """Signal waiters (and future ``wait(seen)`` calls) that the
        watched state changed."""
        self._count += 1
        if self._waiters:
            self._wake_waiters()

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        n = self.count
        for ev in waiters:
            ev.succeed(n)

    def wait(self, seen: int) -> Event:
        """Event that fires (with the current count) once ``count`` has
        advanced past the snapshot ``seen``."""
        ev = Event(self.sim, name=self._wait_name)
        if self.count != seen:
            ev.succeed(self.count)
        else:
            self._waiters.append(ev)
            for p in self._providers:
                p.arm(self)
        return ev

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class Barrier:
    """An n-party rendezvous, reusable across generations.

    Models synchronized hardware rails (the TCCluster backplane's common
    warm-reset signal) as well as software barriers: the event returned by
    :meth:`arrive` fires when all ``parties`` have arrived in the current
    generation, after which the barrier resets for the next use.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = ""):
        if parties <= 0:
            raise ValueError(f"parties must be positive, got {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self.generation = 0
        self._waiting: List[Event] = []

    def arrive(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}.arrive")
        self._waiting.append(ev)
        if len(self._waiting) >= self.parties:
            waiting, self._waiting = self._waiting, []
            self.generation += 1
            gen = self.generation
            for w in waiting:
                w.succeed(gen)
        return ev

    @property
    def waiting(self) -> int:
        return len(self._waiting)
