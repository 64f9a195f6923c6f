"""Discrete-event simulation engine.

This is the foundation of the whole TCCluster reproduction: every hardware
unit (link, northbridge, memory controller, CPU core) and every software
layer (firmware, driver, message library) executes as a coroutine process
inside a :class:`Simulator`, and all reported performance numbers are
*virtual* nanoseconds of simulated time.

The engine is deliberately small and deterministic:

* a binary-heap event calendar keyed by ``(time, sequence)`` so that events
  scheduled at the same instant fire in scheduling order,
* generator-based processes (SimPy style) which ``yield`` timeouts, events,
  other processes or composite conditions,
* no wall-clock anywhere -- results are exactly reproducible.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(5.0)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Simulator",
    "SimFeatures",
    "MacroEntry",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "DeadlockError",
]


@dataclass
class SimFeatures:
    """Runtime switches for the wall-clock fast paths.

    They exist as flags so the wall-clock benchmark and the equivalence
    tests can run the same workload in legacy and fast mode and compare
    (see DESIGN.md, "Performance model equivalence").  Not all of them
    are virtual-time invariant: ``poll_parking`` moves DRAM commit times
    under memory-port contention (the ``mpi_mix`` pins of
    ``benchmarks/perf`` are recorded with it on), and under link faults
    the WC trains and flow-level windows still diverge from per-packet
    mode (the strict-xfail fault oracles in
    ``tests/test_train_equivalence.py`` and
    ``tests/test_flow_equivalence.py``).  Fault-free, the other three
    flags change only wall-clock cost.
    """

    #: Park idle polling receivers on a memory doorbell instead of
    #: burning one calendar entry per poll iteration.
    poll_parking: bool = True
    #: Serialize back-to-back same-VC link packets as one bulk occupancy
    #: event with arithmetically computed delivery times.
    burst_serialization: bool = True
    #: Every macro path that pays in wall-clock: an uncontended bulk WC
    #: store's whole packet train (fill/dispatch/serialize pipeline) in
    #: closed-form arithmetic, its destination commits as one arithmetic
    #: span (``CommitSpan``), and same-route remote read chains
    #: (``ReadFlow``).  Each demotes back to per-packet mode the instant
    #: anything else touches the involved queues (see repro.opteron.train
    #: and repro.sim.flows).
    adaptive_fidelity: bool = True
    #: Coalesce runs of msglib eager ring slots into one span store that
    #: rides a bulk train (see repro.sim.flows.plan_eager_span).  Default
    #: off: a slot span inherits the train's inexact demotion on a link
    #: ``bring_down``, which moves pinned fault-recovery results, so it
    #: stays opt-in until that demotion is exact.
    flow_fidelity: bool = False


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when ``run(until=None)`` is asked to
    wait for a condition that can never fire (event heap empty but waiters
    remain)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value given to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    makes it *triggered* and schedules its callbacks at the current
    simulation time.  A process that ``yield``\\ s a pending event is
    suspended until the event triggers; the event's value is sent into the
    generator.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_triggered", "_scheduled",
                 "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        #: True once a dispatch entry has been pushed onto the calendar.
        #: Dispatch is lazy: a triggered event with no listeners costs no
        #: calendar entry at all; the first add_callback schedules it.
        self._scheduled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only valid once triggered)."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the exception)."""
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks *now*."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        if self._callbacks:
            self._scheduled = True
            self.sim._schedule_event(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiting processes receive ``exc``."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        if self._callbacks:
            self._scheduled = True
            self.sim._schedule_event(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event triggers.

        If the event already triggered, the callback is scheduled
        immediately (at the current simulation time).
        """
        cbs = self._callbacks
        if cbs is None:
            # Already dispatched: run at current time via the calendar so
            # ordering semantics stay uniform.
            self.sim.schedule(0.0, fn, self)
            return
        cbs.append(fn)
        if self._triggered and not self._scheduled:
            # Triggered with no listeners at the time: the dispatch was
            # deferred; schedule it now that someone cares.
            self._scheduled = True
            self.sim._schedule_event(self)

    def _succeed_inline(self, value: Any = None) -> None:
        """:meth:`succeed` plus synchronous callback dispatch.

        Only legal from a *bare calendar callback* with nothing left to
        do at this timestamp: the caller's calendar entry stands in for
        the dispatch entry the lazy ``succeed`` would push, so waking
        synchronously is a seq shift within the timestamp, never a
        timing change.  Saves one calendar entry per call on the
        packet-delivery hot path.
        """
        self._triggered = True
        self._ok = True
        self._value = value
        if self._callbacks:
            self._scheduled = True
            self._dispatch()

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None  # type: ignore[assignment]
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Note: the name is deliberately static -- an f-string per timeout
        # shows up in profiles of packet-heavy runs.
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        self._scheduled = True  # the dispatch entry IS the wake mechanism
        sim._schedule_event(self, delay)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self.events: Tuple[Event, ...] = tuple(events)
        self._n_done = 0
        if not self.events:
            # Vacuous conditions trigger immediately.
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _collect(self) -> dict:
        return {ev: ev.value for ev in self.events if ev.triggered}

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when *any* child event triggers; value maps done events."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="AnyOf")

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class AllOf(_Condition):
    """Triggers when *all* child events have triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="AllOf")

    def _satisfied(self) -> bool:
        return self._n_done >= len(self.events)


ProcessGen = Generator[Any, Any, Any]


class Process(Event):
    """A running coroutine inside the simulation.

    The wrapped generator may yield:

    * ``float | int`` -- sleep for that many time units,
    * :class:`Event` -- wait until it triggers (its value is sent back in),
    * :class:`Process` -- wait for that process to finish,
    * ``None`` -- yield the processor for one zero-delay step.

    A Process is itself an Event that triggers with the generator's return
    value, so processes can wait on each other.
    """

    __slots__ = ("gen", "_waiting_on", "_interrupts", "_wake_token")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self.gen = gen
        self._waiting_on: Optional[Event] = None
        self._interrupts: List[Interrupt] = []
        self._wake_token = 0
        sim.schedule(0.0, self._resume, None, True)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self._interrupts.append(Interrupt(cause))
        # Detach from whatever it was waiting on; the wait event may still
        # trigger later but the resume guard ignores stale wakeups.
        self.sim.schedule(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if self._triggered or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        # Stale wakeup protection: detaching from the wait event makes
        # _on_wait_done ignore it, and bumping the token invalidates any
        # fast-path sleep entry already sitting on the calendar.
        self._waiting_on = None
        self._wake_token += 1
        self._step(exc, throw=True)

    def _resume(self, value: Any, ok: bool) -> None:
        self._step(value if ok else value, throw=not ok)

    def _on_wait_done(self, ev: Event) -> None:
        if self._triggered:
            return
        if self._waiting_on is not ev:
            return  # stale wakeup (we were interrupted meanwhile)
        self._waiting_on = None
        if ev._ok is not True:
            self._step(ev._value, throw=True)
            return
        # Success resume, inlined from _step (one frame per event wake is
        # real money; the duplicated tail below must stay in lockstep with
        # _step and _sleep_wake).
        try:
            target = self.gen.send(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not handle an Interrupt"
            )
        tt = type(target)
        if tt is float or tt is int:
            if target < 0:
                raise ValueError(f"negative timeout delay: {target!r}")
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._seq += 1
            sim._push_count += 1
            _heappush(sim._heap,
                      (sim._now + target, sim._seq, self._sleep_wake, (token,)))
            return
        if target is None:
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._seq += 1
            sim._push_count += 1
            _heappush(sim._heap,
                      (sim._now, sim._seq, self._sleep_wake, (token,)))
            return
        if type(target) is Event or isinstance(target, Event):
            self._waiting_on = target
            cbs = target._callbacks
            if cbs is None:
                sim = self.sim
                sim._push(sim._now, self._on_wait_done, (target,))
                return
            cbs.append(self._on_wait_done)
            if target._triggered and not target._scheduled:
                target._scheduled = True
                target.sim._schedule_event(target)
            return
        self._wait_for(target)

    def _step(self, value: Any, throw: bool = False) -> None:
        try:
            if throw:
                if isinstance(value, BaseException):
                    target = self.gen.throw(value)
                else:  # pragma: no cover - defensive
                    target = self.gen.throw(SimulationError(repr(value)))
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not handle an Interrupt"
            )
        # The two dominant yield kinds (plain sleeps and zero-delay steps)
        # are handled inline -- one call frame per process step is real
        # money at packet-stream scale.  ``type`` (not isinstance) keeps
        # bool out and is faster on the exact-match hot path.
        tt = type(target)
        if tt is float or tt is int:
            if target < 0:
                raise ValueError(f"negative timeout delay: {target!r}")
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._seq += 1
            sim._push_count += 1
            _heappush(sim._heap,
                      (sim._now + target, sim._seq, self._sleep_wake, (token,)))
            return
        if target is None:
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._seq += 1
            sim._push_count += 1
            _heappush(sim._heap,
                      (sim._now, sim._seq, self._sleep_wake, (token,)))
            return
        # Event waits are the third dominant yield kind; registering the
        # wake callback inline sheds the _wait_for frame.
        if type(target) is Event or isinstance(target, Event):
            self._waiting_on = target
            cbs = target._callbacks
            if cbs is None:
                sim = self.sim
                sim._push(sim._now, self._on_wait_done, (target,))
                return
            cbs.append(self._on_wait_done)
            if target._triggered and not target._scheduled:
                target._scheduled = True
                target.sim._schedule_event(target)
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        # Fast path: a numeric yield (or None for a zero-delay step) is a
        # plain sleep.  Push the resume entry straight onto the calendar
        # instead of allocating a Timeout plus a callback chain; the wake
        # token invalidates the entry if an interrupt arrives first.
        if target is None:
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._push(sim._now, self._sleep_wake, (token,))
            return
        if isinstance(target, (int, float)):
            if target < 0:
                raise ValueError(f"negative timeout delay: {target!r}")
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._push(sim._now + target, self._sleep_wake, (token,))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value "
                f"{target!r} (expected Event, Process, number or None)"
            )
        self._waiting_on = target
        # Inlined target.add_callback(self._on_wait_done): one method call
        # per event wait is real money on the packet-stream hot path.
        cbs = target._callbacks
        if cbs is None:
            self.sim.schedule(0.0, self._on_wait_done, target)
            return
        cbs.append(self._on_wait_done)
        if target._triggered and not target._scheduled:
            target._scheduled = True
            target.sim._schedule_event(target)

    def _sleep_wake(self, token: int) -> None:
        if self._triggered or token != self._wake_token:
            return  # stale entry (interrupted meanwhile)
        # Sleep resume, inlined from _step (the single hottest calendar
        # callback; see the lockstep note in _on_wait_done).
        try:
            target = self.gen.send(None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not handle an Interrupt"
            )
        tt = type(target)
        if tt is float or tt is int:
            if target < 0:
                raise ValueError(f"negative timeout delay: {target!r}")
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._seq += 1
            sim._push_count += 1
            _heappush(sim._heap,
                      (sim._now + target, sim._seq, self._sleep_wake, (token,)))
            return
        if target is None:
            sim = self.sim
            self._wake_token = token = self._wake_token + 1
            sim._seq += 1
            sim._push_count += 1
            _heappush(sim._heap,
                      (sim._now, sim._seq, self._sleep_wake, (token,)))
            return
        if type(target) is Event or isinstance(target, Event):
            self._waiting_on = target
            cbs = target._callbacks
            if cbs is None:
                sim = self.sim
                sim._push(sim._now, self._on_wait_done, (target,))
                return
            cbs.append(self._on_wait_done)
            if target._triggered and not target._scheduled:
                target._scheduled = True
                target.sim._schedule_event(target)
            return
        self._wait_for(target)


class MacroEntry:
    """One speculative cancellable calendar entry (macro-event machinery).

    Adaptive-fidelity layers (:mod:`repro.opteron.train`,
    :mod:`repro.sim.flows`) precompute a future and walk it with a single
    live calendar entry at a time; a demotion revokes whatever part of
    that future did not happen yet.  This wraps the
    :meth:`Simulator._push_cancellable` / :meth:`Simulator._cancel` pair
    so the arm/fire/cancel bookkeeping (never cancel a fired entry, never
    double-arm) lives in one place instead of ad-hoc ``_seq`` fields.
    """

    __slots__ = ("sim", "_seq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._seq: Optional[int] = None

    @property
    def armed(self) -> bool:
        return self._seq is not None

    def arm(self, at: float, fn: Callable, args: Optional[tuple]) -> None:
        """Push the entry; the callback MUST call :meth:`fired` first."""
        assert self._seq is None, "macro entry armed twice"
        self._seq = self.sim._push_cancellable(at, fn, args)

    def fired(self) -> None:
        """Mark the entry as executed (call at the top of the callback)."""
        self._seq = None

    def cancel(self) -> None:
        """Revoke the entry if still pending; safe to call when idle."""
        if self._seq is not None:
            self.sim._cancel(self._seq)
            self._seq = None


class Simulator:
    """The event calendar and virtual clock.

    Time is a float in *nanoseconds* by convention throughout this library
    (see :mod:`repro.util.units`), though the engine itself is unit-agnostic.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable, Optional[tuple]]] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._cancelled: set = set()
        self._event_count: int = 0
        self._push_count: int = 0
        self._running = False
        self.features = SimFeatures()
        #: Lazily attached per-simulation object pools (data-plane flyweight
        #: packets; see :func:`repro.ht.packet.pool_for`).  Owned here so a
        #: pool's lifetime is exactly the simulation's lifetime: a fresh
        #: simulator can never see recycled objects from a previous run.
        self._packet_pool = None
        #: Memory controllers holding arithmetic commit spans
        #: (:class:`repro.sim.flows.CommitSpan`), insertion-ordered.  Every
        #: return from :meth:`run` / :meth:`run_until_event` flushes their
        #: DRAM content and write accounting up to ``now``, so a caller
        #: inspecting memory between runs sees the per-packet state.
        self._span_hosts: dict = {}

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total number of calendar entries executed so far."""
        return self._event_count

    @property
    def heap_pushes(self) -> int:
        """Total calendar entries ever pushed (the wall-clock cost driver)."""
        return self._push_count

    # -- scheduling primitives --------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._push(self._now + delay, fn, args)

    def _push(self, at: float, fn: Callable, args: Optional[tuple]) -> None:
        """Internal hot-path push: no validation, ``args`` may be None."""
        self._seq += 1
        self._push_count += 1
        _heappush(self._heap, (at, self._seq, fn, args))

    def _push_cancellable(self, at: float, fn: Callable,
                          args: Optional[tuple]) -> int:
        """:meth:`_push` returning a handle for :meth:`_cancel`.

        A cancelled entry is skipped *without advancing the clock*, so a
        speculative long-dated entry (e.g. an adaptive-fidelity train's
        completion) leaves no trace once revoked -- a plain guarded no-op
        would still drag ``now`` forward when the calendar drains early.
        """
        self._seq += 1
        self._push_count += 1
        _heappush(self._heap, (at, self._seq, fn, args))
        return self._seq

    def _cancel(self, seq: int) -> None:
        """Revoke a pending entry returned by :meth:`_push_cancellable`.

        Must only be called while the entry is still in the calendar:
        seqs are never reused, so cancelling a fired entry would leave a
        dead sentinel in the set forever.
        """
        self._cancelled.add(seq)

    def _schedule_event(self, ev: Event, delay: float = 0.0) -> None:
        # No argument tuple to build or unpack for the (dominant) event
        # dispatch entries; _push is inlined (one frame per dispatch).
        self._seq += 1
        self._push_count += 1
        _heappush(self._heap, (self._now + delay, self._seq, ev._dispatch, None))

    # -- snapshot support --------------------------------------------------
    def assert_quiescent(self) -> None:
        """Assert the calendar is fully drained (the snapshot precondition).

        Quiescent means: nothing is pending in the heap, no cancelled
        sentinels are outstanding, and no run loop is active.  Every live
        process is parked on an event wait (store/gate/credit waiters are
        callbacks, not calendar entries), so resuming later is purely a
        matter of new stimulus -- the state a :class:`repro.cluster`
        boot image captures.
        """
        if self._running:
            raise SimulationError("simulator is running (not quiescent)")
        if self._heap:
            raise SimulationError(
                f"not quiescent: {len(self._heap)} calendar entries pending "
                f"(next at t={self._heap[0][0]})"
            )
        if self._cancelled:
            raise SimulationError(
                f"not quiescent: {len(self._cancelled)} cancelled sentinels "
                "outstanding"
            )

    def rebase_clock(self, now: float, seq: int, event_count: int,
                     push_count: int) -> None:
        """Adopt a captured clock/counter quadruple (boot-image restore).

        Requires quiescence.  Downstream execution depends only on the
        architectural state, the clock, and the *relative* order of
        future seqs, so overwriting all four absolute counters with the
        values captured at the same architectural state makes subsequent
        virtual times and event counts bit-identical to the cold-boot
        continuation.  ``seq`` must not move backwards past entries this
        simulator already issued (seqs are never reused).
        """
        self.assert_quiescent()
        if now < self._now:
            raise SimulationError(
                f"cannot rebase the clock backwards ({now} < {self._now})"
            )
        if seq < self._seq:
            raise SimulationError(
                f"cannot rebase seq backwards ({seq} < {self._seq}); "
                "captured boot must have executed at least the entries a "
                "fresh construction drains"
            )
        self._now = now
        self._seq = seq
        self._event_count = event_count
        self._push_count = push_count

    # -- factories ---------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a coroutine process; returns the :class:`Process`."""
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- main loop ----------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Execute events until the calendar drains.

        Parameters
        ----------
        until:
            Stop (without executing) events scheduled after this time.
            The clock is advanced to ``until`` when given.
        max_events:
            Safety valve for runaway simulations.

        Returns the simulation time at exit.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        cancelled = self._cancelled
        executed = 0
        try:
            while heap:
                entry = heap[0]
                t = entry[0]
                if until is not None and t > until:
                    break
                heappop(heap)
                if cancelled and entry[1] in cancelled:
                    cancelled.remove(entry[1])
                    continue
                self._now = t
                args = entry[3]
                if args:
                    entry[2](*args)
                else:
                    entry[2]()
                executed += 1
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible livelock)"
                    )
            if until is not None and self._now < until:
                self._now = until
        finally:
            # Batched: the counter is observability-only and read between
            # runs, never from inside a calendar callback.
            self._event_count += executed
            self._running = False
            if self._span_hosts:
                self._settle()
        return self._now

    def run_until_event(self, ev: Event, limit: Optional[float] = None) -> Any:
        """Run until ``ev`` triggers; returns its value.

        Raises :class:`DeadlockError` if the calendar drains first, which is
        the classic symptom of e.g. a receiver polling a ring buffer that no
        sender will ever fill.
        """
        if self._running:
            raise SimulationError("run_until_event() is not reentrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        cancelled = self._cancelled
        executed = 0
        try:
            if limit is None:
                # Specialized unlimited loop: no per-entry limit compare on
                # the dominant call shape.
                while not ev._triggered:
                    if not heap:
                        raise DeadlockError(
                            f"no more events but {ev.name!r} never triggered"
                        )
                    t, _seq, fn, args = heappop(heap)
                    if cancelled and _seq in cancelled:
                        cancelled.remove(_seq)
                        continue
                    self._now = t
                    if args:
                        fn(*args)
                    else:
                        fn()
                    executed += 1
            else:
                while not ev._triggered:
                    if not heap:
                        raise DeadlockError(
                            f"no more events but {ev.name!r} never triggered"
                        )
                    t, _seq, fn, args = heappop(heap)
                    if cancelled and _seq in cancelled:
                        cancelled.remove(_seq)
                        continue
                    if t > limit:
                        raise DeadlockError(
                            f"time limit {limit} exceeded waiting for {ev.name!r}"
                        )
                    self._now = t
                    if args:
                        fn(*args)
                    else:
                        fn()
                    executed += 1
        finally:
            self._event_count += executed
            self._running = False
            if self._span_hosts:
                self._settle()
        if not ev.ok:
            raise ev.value
        return ev.value

    def _settle(self) -> None:
        """Make commit-span DRAM content real up to ``now`` (run exit)."""
        now = self._now
        for mc in self._span_hosts:
            mc.flush_spans(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now} pending={len(self._heap)}>"
