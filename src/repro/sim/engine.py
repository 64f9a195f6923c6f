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
5.0
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
    """The runtime switch for the macro-event fast paths.

    It exists so the wall-clock benchmark and the equivalence tests can
    run the same workload in per-packet and macro mode and compare (see
    DESIGN.md, "Performance model equivalence").  Fault-free, the macro
    paths change only wall-clock cost; under link faults a WC train's
    demotion is still inexact (the strict-xfail fault oracles in
    ``tests/test_train_equivalence.py``), so msglib slot spans and train
    growth are kept away from those faults
    (``Simulator._train_faults_until``).
    Poll parking is not a flag: it is part of the model (an idle
    receiver's busy polls would claim its memory port), and the pins and
    goldens are recorded with it.
    """

    #: Every macro path that pays in wall-clock: the packet train of
    #: aligned full-line WC stores over a quiescent link
    #: (fill/dispatch/serialize pipeline) in closed-form arithmetic,
    #: which the core's next contiguous store extends, so a
    #: line-at-a-time loop rides one train; its destination commits as
    #: one arithmetic span (``CommitSpan``), same-route remote read
    #: chains (``ReadFlow``), and runs of msglib eager ring slots
    #: coalesced into one span store that rides a train
    #: (``Endpoint._send_eager``).  Each demotes back to per-packet mode the
    #: instant anything else touches the involved queues (see
    #: repro.opteron.train and repro.sim.flows).
    adaptive_fidelity: bool = True


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

    * a number (any ``int`` or ``float``, subclasses such as
      ``numpy.float64`` included) -- sleep for that many time units,
    * :class:`Event` -- wait until it triggers (its value is sent back in),
    * :class:`Process` -- wait for that process to finish,
    * ``None`` -- yield the processor for one zero-delay step.

    A Process is itself an Event that triggers with the generator's return
    value, so processes can wait on each other.  It takes its first step
    from a zero-delay entry; ``start=False`` leaves that step to the
    caller (:meth:`Simulator._run_inline`).
    """

    __slots__ = ("gen", "_waiting_on", "_interrupts", "_wake_token")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "",
                 start: bool = True):
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
        if start:
            sim.schedule(0.0, self._step, None)

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
        # sleep entry already sitting on the calendar.
        self._waiting_on = None
        self._wake_token += 1
        self._step(exc, True)

    def _on_wait_done(self, ev: Event) -> None:
        if self._triggered or self._waiting_on is not ev:
            return  # stale wakeup (we were interrupted meanwhile)
        self._waiting_on = None
        self._step(ev._value, ev._ok is not True)

    def _sleep_wake(self, token: int) -> None:
        if self._triggered or token != self._wake_token:
            return  # stale entry (interrupted meanwhile)
        self._step(None)

    def _step(self, value: Any, throw: bool = False) -> None:
        """The one resume dispatch: send ``value`` into the generator (or
        throw it), then act on what the generator yields next."""
        try:
            if throw:
                target = self.gen.throw(value)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not handle an Interrupt"
            )
        # Anything but a sleep is an event wait or an error.  ``type``
        # lets the exact numeric types skip the isinstance checks.
        tt = type(target)
        if tt is not float and tt is not int and target is not None:
            if isinstance(target, Event):
                self._waiting_on = target
                target.add_callback(self._on_wait_done)
                return
            if not isinstance(target, (int, float)):
                raise SimulationError(
                    f"process {self.name!r} yielded unsupported value "
                    f"{target!r} (expected Event, Process, number or None)"
                )
        # A sleep pushes one bare calendar entry instead of a Timeout and
        # its callback chain; the wake token invalidates the entry if an
        # interrupt arrives first.
        sim = self.sim
        if target is None:
            at = sim._now
        elif target < 0:
            raise ValueError(f"negative timeout delay: {target!r}")
        else:
            at = sim._now + target
        self._wake_token = token = self._wake_token + 1
        sim._seq += 1
        sim._push_count += 1
        _heappush(sim._heap, (at, sim._seq, self._sleep_wake, (token,)))


def _then(gen: ProcessGen, fn: Callable[[Any], None]):
    fn((yield from gen))


class MacroEntry:
    """One speculative cancellable calendar entry (macro-event machinery).

    Adaptive-fidelity layers (:mod:`repro.opteron.train`,
    :mod:`repro.sim.flows`) precompute a future and walk it with a single
    live calendar entry at a time; a demotion revokes whatever part of
    that future did not happen yet.  This wraps the
    :meth:`Simulator._push` / :meth:`Simulator._cancel` pair
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
        self._seq = self.sim._push(at, fn, args)

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
        #: Lazily attached packet factory (data-plane flyweight packets;
        #: see :func:`repro.ht.packet.factory_for`).  Owned here so its
        #: packet count covers exactly one simulation.
        self._packet_factory = None
        #: Memory controllers holding arithmetic commit spans
        #: (:class:`repro.sim.flows.CommitSpan`), insertion-ordered.  Every
        #: return from :meth:`run` / :meth:`run_until_event` flushes their
        #: DRAM content and write accounting up to ``now``, so a caller
        #: inspecting memory between runs sees the per-packet state.
        self._span_hosts: dict = {}
        #: Open macro windows (:class:`repro.sim.flows.MacroWindow`),
        #: insertion-ordered; a window is listed from its claim to its end.
        self._windows: dict = {}
        #: Latest instant an armed fault acts that a train window does
        #: not survive exactly: a link going down (a flap also at its
        #: revive) or a credit stall
        #: (:meth:`repro.faults.FaultInjector.arm`).  msglib plans slot
        #: spans only after it (DESIGN.md section 12).
        self._train_faults_until: float = float("-inf")

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

    def _push(self, at: float, fn: Callable, args: Optional[tuple]) -> int:
        """Internal hot-path push: no validation, ``args`` may be None.

        Returns the entry's seq, the handle :meth:`_cancel` takes."""
        self._seq += 1
        self._push_count += 1
        _heappush(self._heap, (at, self._seq, fn, args))
        return self._seq

    def _cancel(self, seq: int) -> None:
        """Revoke a pending entry returned by :meth:`_push`.

        A cancelled entry is skipped *without advancing the clock*, so a
        speculative long-dated entry (e.g. an adaptive-fidelity train's
        completion) leaves no trace once revoked -- a plain guarded no-op
        would still drag ``now`` forward when the calendar drains early.
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

    def _run_inline(self, gen: ProcessGen, then: Callable[[Any], None],
                    name: str = "") -> None:
        """Run ``gen`` from inside the current calendar entry, as a
        process's ``yield from gen`` would, and call ``then(result)``
        inside the entry in which it returns.

        A step-function stage hands a packet to a sub-protocol that is
        still a generator this way: no start entry is pushed, so every
        calendar entry lands where the process would have pushed it."""
        Process(self, _then(gen, then), name, start=False)._step(None)

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
            if until is None and max_events is None:
                # Specialized drain loop: the dominant call shape.
                while heap:
                    t, seq, fn, args = heappop(heap)
                    if cancelled and seq in cancelled:
                        cancelled.remove(seq)
                        continue
                    self._now = t
                    if args:
                        fn(*args)
                    else:
                        fn()
                    executed += 1
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
                    if heap[0][0] > limit:
                        raise DeadlockError(
                            f"time limit {limit} exceeded waiting for {ev.name!r}"
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
