"""Unit tests for the discrete-event simulation engine."""

import numpy as np
import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    DeadlockError,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(9.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_fifo_order():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(3.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, 1)
    t = sim.run(until=5.0)
    assert t == 5.0
    assert seen == []
    sim.run()
    assert seen == [1]


def test_process_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(5.0)
        log.append(sim.now)
        yield 2.5
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5.0, 7.5]


def test_process_requires_generator():
    sim = Simulator()

    def not_a_gen():
        return 42

    with pytest.raises(TypeError):
        sim.process(not_a_gen())  # type: ignore[arg-type]


def test_process_wait_on_event_receives_value():
    sim = Simulator()
    ev = sim.event("data")
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    sim.process(waiter())
    sim.schedule(3.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_process_wait_on_process_gets_return_value():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(4.0)
        return 99

    def parent():
        value = yield sim.process(child())
        results.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert results == [(4.0, 99)]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.schedule(1.0, ev.fail, RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_yield_none_is_zero_delay():
    sim = Simulator()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    sim.process(a())
    sim.process(b())
    sim.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert sim.now == 0.0


def test_yield_bad_value_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_any_of_fires_on_first():
    sim = Simulator()
    e1, e2 = sim.event("e1"), sim.event("e2")
    fired = []

    def proc():
        result = yield AnyOf(sim, [e1, e2])
        fired.append((sim.now, set(result.values())))

    sim.process(proc())
    sim.schedule(2.0, e1.succeed, "first")
    sim.schedule(7.0, e2.succeed, "second")
    sim.run()
    assert fired == [(2.0, {"first"})]


def test_all_of_waits_for_all():
    sim = Simulator()
    e1, e2 = sim.event(), sim.event()
    fired = []

    def proc():
        result = yield AllOf(sim, [e1, e2])
        fired.append((sim.now, len(result)))

    sim.process(proc())
    sim.schedule(2.0, e1.succeed)
    sim.schedule(7.0, e2.succeed)
    sim.run()
    assert fired == [(7.0, 2)]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered


def test_interrupt_is_catchable():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("completed")
        except Interrupt as i:
            log.append(("interrupted", sim.now, i.cause))

    p = sim.process(sleeper())
    sim.schedule(5.0, p.interrupt, "wakeup")
    sim.run()
    assert log == [("interrupted", 5.0, "wakeup")]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.schedule(10.0, p.interrupt)
    sim.run()
    assert p.triggered


def test_unhandled_interrupt_raises_simulation_error():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    p = sim.process(sleeper())
    sim.schedule(5.0, p.interrupt)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(42.0)
        return "done"

    p = sim.process(proc())
    assert sim.run_until_event(p) == "done"
    assert sim.now == 42.0


def test_run_until_event_deadlock_detection():
    sim = Simulator()
    ev = sim.event("never")
    with pytest.raises(DeadlockError):
        sim.run_until_event(ev)


def test_run_until_event_limit_keeps_the_entry_past_it():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "late")
    with pytest.raises(DeadlockError):
        sim.run_until_event(sim.event("never"), limit=5.0)
    sim.run()
    assert (fired, sim.now) == (["late"], 10.0)


def test_max_events_guard():
    sim = Simulator()

    def spinner():
        while True:
            yield sim.timeout(1.0)

    sim.process(spinner())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_event_count_increments():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.event_count == 2


def test_callback_on_already_triggered_event_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_nested_process_failure_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child blew up")

    def parent():
        yield sim.process(child())

    sim.process(parent())
    with pytest.raises(ValueError, match="child blew up"):
        sim.run()


# ---------------------------------------------------------------------------
# Resume semantics: every way a process resumes classifies its next yield
# the same way.
# ---------------------------------------------------------------------------

def _after_start(sim, me):
    yield from ()


def _after_sleep(sim, me):
    yield 3.0


def _after_event(sim, me):
    ev = sim.event()
    sim.schedule(3.0, ev.succeed, "ok")
    assert (yield ev) == "ok"


def _after_failed_event(sim, me):
    ev = sim.event()
    sim.schedule(3.0, ev.fail, RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        yield ev


def _after_interrupt(sim, me):
    sim.schedule(3.0, me[0].interrupt, "stop")
    with pytest.raises(Interrupt):
        yield 5.0  # its wake entry stays behind, stale, before any resume


#: resume entry -> (what the process does before the yield under test,
#: the instant of that yield, calendar pushes up to it)
RESUME_ENTRIES = {
    "start": (_after_start, 0.0, 1),
    "sleep": (_after_sleep, 3.0, 2),
    "event": (_after_event, 3.0, 3),
    "failed_event": (_after_failed_event, 3.0, 3),
    "interrupt": (_after_interrupt, 3.0, 4),
}


def _pending_event(sim, dispatched):
    ev = sim.event()
    sim.schedule(4.0, ev.succeed, "later")
    return ev


def _triggered_event(sim, dispatched):
    ev = sim.event()
    ev.succeed("now")  # no listener yet: its dispatch is not on the calendar
    return ev


def _child_process(sim, dispatched):
    def child():
        yield 4.0
        return "child"

    return sim.process(child())


#: yield kind -> (target made at the yield, resume delay, value sent in,
#: calendar pushes from the yield to the resume, exception it raises)
YIELD_KINDS = {
    "int": (lambda sim, d: 4, 4.0, None, 1, None),
    "float": (lambda sim, d: 2.5, 2.5, None, 1, None),
    "numpy_float64": (lambda sim, d: np.float64(1.5), 1.5, None, 1, None),
    "none": (lambda sim, d: None, 0.0, None, 1, None),
    "pending_event": (_pending_event, 4.0, "later", 2, None),
    "triggered_event": (_triggered_event, 0.0, "now", 1, None),
    "dispatched_event": (lambda sim, d: d, 0.0, "done", 1, None),
    "process": (_child_process, 4.0, "child", 3, None),
    "negative": (lambda sim, d: -1, None, None, 0, ValueError),
    "unsupported": (lambda sim, d: "nonsense", None, None, 0, SimulationError),
}


@pytest.mark.parametrize("kind", YIELD_KINDS)
@pytest.mark.parametrize("entry", RESUME_ENTRIES)
def test_every_resume_entry_dispatches_every_yield_kind(entry, kind):
    before, at, entry_pushes = RESUME_ENTRIES[entry]
    make, delay, sent, kind_pushes, raises = YIELD_KINDS[kind]
    sim = Simulator()
    dispatched = sim.event("dispatched")
    dispatched.succeed("done")
    dispatched.add_callback(lambda ev: None)  # dispatches before any start
    log = []
    me = []

    def proc():
        yield from before(sim, me)
        assert sim.now == at
        got = yield make(sim, dispatched)
        log.append((sim.now, got))

    me.append(sim.process(proc()))
    if raises is None:
        sim.run()
        assert log == [(at + delay, sent)]
    else:
        with pytest.raises(raises):
            sim.run()
        assert (sim.now, log) == (at, [])
    assert sim.heap_pushes == 1 + entry_pushes + kind_pushes
