"""Oracles for the NumPy kernels of bulk-train arithmetic.

Two kernels replace per-line Python on long trains (DESIGN.md sections
8.2 and 12):

* the train schedule: :func:`repro.opteron.train.schedule` runs the
  scalar recurrence :func:`~repro.opteron.train._recur` over the
  transient, then speculates the steady regime with NumPy and keeps the
  verified prefix;
* the commit-span fold: :meth:`repro.sim.flows.CommitSpan._fold` folds a
  run of arrivals that each find the memory port idle elementwise.

Both must equal the line-by-line arithmetic bit for bit under any
timing model, dyadic or not, and neither may leak a NumPy scalar into
simulation state (the engine's fast paths test ``type(x) is float``).
"""

import contextlib
import dataclasses
from array import array
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.opteron import train
from repro.opteron.memory import Memory, MemoryController
from repro.sim import Doorbell, Simulator, flows
from repro.sim.flows import CommitSpan
from repro.sim.trace import Counter
from repro.util.calibration import DEFAULT_TIMING
from repro.util.units import CACHELINE

_VEC = train._VECTOR_LINES


def _loop_schedule(t0, K, F, TS, SER, CAPQ, CAPT):
    s = tuple([0.0] * K for _ in range(5))
    train._recur(s, 0, K, t0, F, TS, SER, CAPQ, CAPT)
    return s


# Timings: non-dyadic floats as well as the dyadic defaults.
_ns = st.one_of(st.sampled_from([12.0, 20.0, 23.75, 5.0, 1.5]),
                st.floats(0.25, 60.0, allow_nan=False))


@st.composite
def _params(draw):
    K = draw(st.one_of(st.integers(4, 2 * _VEC),
                       st.integers(_VEC - 2, _VEC + 2),
                       st.integers(2 * _VEC, 1500)))
    CAPQ = draw(st.one_of(st.integers(1, 8), st.integers(1, K),
                          st.just(K + 1)))
    CAPT = draw(st.one_of(st.integers(1, 6), st.just(K + 1)))
    t0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e7, allow_nan=False)))
    return t0, K, draw(_ns), draw(_ns), draw(_ns), CAPQ, CAPT


@settings(max_examples=150, deadline=None)
@given(_params())
# Default timing, both sides of the crossover.
@example((0.0, _VEC - 1, 12.0, 20.0, 23.75, 2048, 4))
@example((1000.5, _VEC, 12.0, 20.0, 23.75, 2048, 4))
# The posted queue fills (K > CAPQ, F < SER): free, then blocked core.
@example((77.0, 1200, 12.0, 20.0, 23.75, 300, 4))
# Non-dyadic timing throughout.
@example((0.1, 900, 11.3, 19.7, 23.9, 100, 3))
# Dispatcher-bound (SER < TS): the loop over lists.
@example((5.0, 800, 3.0, 20.0, 7.0, 50, 4))
# TS just below SER: the TX queue fills near line 380, so the first
# speculation round fails and the loop finishes the train.
@example((0.0, 1000, 12.0, 23.5, 23.75, 2048, 4))
# CAPT = 1.
@example((0.0, 700, 12.0, 20.0, 23.75, 40, 1))
# The TX queue is full at line 64 but the core has not yet caught up
# with the dispatcher: only the pop equation catches the first lines.
@example((851.5, 200, 23.69, 5.68, 25.53, 2048, 4))
def test_schedule_kernel_matches_loop(p):
    got = train.schedule(*p)
    want = _loop_schedule(*p)
    for name, g, w in zip(("accept", "fill_done", "pop", "putc", "ss"),
                          got, want):
        assert list(g) == w, f"{name} diverged for {p}"
        assert all(type(x) is float for x in g)


@st.composite
def _append_case(draw):
    p = draw(_params())
    K = p[1]
    # Split the train into appends: single lines, short runs and runs on
    # both sides of the kernel's crossover.
    cuts = []
    left = K
    while left:
        n = min(left, draw(st.one_of(st.just(1), st.integers(1, 8),
                                     st.integers(_VEC - 2, 2 * _VEC))))
        cuts.append(n)
        left -= n
    return p, cuts


@settings(max_examples=80, deadline=None)
@given(_append_case())
# One line at a time, both sides of the crossover, default timing.
@example(((0.0, _VEC - 1, 12.0, 20.0, 23.75, 2048, 4), [1] * (_VEC - 1)))
@example(((3.5, _VEC + 40, 12.0, 20.0, 23.75, 2048, 4), [1] * (_VEC + 40)))
# A long append after a line-by-line prefix, and the posted queue fills.
@example(((0.0, 1200, 12.0, 20.0, 23.75, 300, 4), [1] * 100 + [1100]))
def test_appends_reproduce_one_schedule(case):
    """Appending lines whose fill starts when the line before is
    accepted (so each submits at ``accept[i - 1] + F``) is the schedule
    of one store of all of them, bit for bit."""
    (t0, K, F, TS, SER, CAPQ, CAPT), cuts = case
    want = train.schedule(t0, K, F, TS, SER, CAPQ, CAPT)
    got = None
    for n in cuts:
        fs = t0 if got is None else got[0][-1]
        got = train.schedule(fs, n, F, TS, SER, CAPQ, CAPT, got)
    for name, g, w in zip(("accept", "fill_done", "pop", "putc", "ss"),
                          got, want):
        assert g == w, f"{name} diverged for {case}"
        assert all(type(x) is float for x in g)


def _store_calls(gaps, lens, jumps, fast):
    """Per-line pipeline instants of store calls on the two-board
    prototype: call ``j`` stores ``lens[j]`` contiguous lines ``gaps[j]``
    ns after the call before it returned, at the line after the previous
    call's, or at line ``jumps[j]`` of the window when that is not
    ``None``.  Per packet they are read off the live run (posted-queue
    accept, dispatcher pop, TX-queue put, serialization start); with
    trains, from the series of every train the calls opened or grew."""
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem
    from repro.ht.packet import VirtualChannel

    system = TCClusterSystem.two_board_prototype()
    system.sim.features.adaptive_fidelity = fast
    system.boot()
    cl = system.cluster
    sim = cl.sim
    win = _RawWindow(cl, cl.rank_of(0, 1), cl.rank_of(1, 1))
    proc = win.proc
    nb = proc.core.chip.nb
    binding = proc.core.chip.ports[nb.route(win.tx_base).dst_link]
    d = binding.link._dirs[binding.side]
    seen = {k: [] for k in ("accept", "pop", "putc", "ss")}

    spies = []
    if not fast:
        from repro.opteron.northbridge import _Dispatcher
        from repro.sim import Tracer

        pq = nb.posted_q
        send_fast = nb._send_on_port_fast
        disp = nb.dispatcher
        got = _Dispatcher._got
        # Serialization starts: each line's traced end of wire time less
        # its wire time (tracing a link changes none of its instants).
        tracer = binding.link.tracer = Tracer()
        tracer.add_filter(lambda r: r.event == "tx"
                          and r.info[0] == binding.side)

        def spy_got(stage):
            if stage is disp:
                seen["pop"].append(sim.now)
            return got(stage)

        def spy_send(port, pkt):
            ev = send_fast(port, pkt)
            if ev is None:
                seen["putc"].append(sim.now)
            else:
                ev.add_callback(lambda _e: seen["putc"].append(sim.now))
            return ev

        nb._send_on_port_fast = spy_send
        spies = [mock.patch.object(_Dispatcher, "_got", spy_got)]

    trains = []
    data = bytes((i * 37 + 5) % 256 for i in range(64 * sum(lens)))
    calls = []                     # (window line, data line, lines)
    line = pos = 0
    for n, jump in zip(lens, jumps):
        if jump is not None:
            line = jump
        calls.append((line, pos, n))
        line += n
        pos += n

    def job():
        for gap, (line, pos, n) in zip(gaps, calls):
            if gap:
                yield gap
            yield from proc.store(win.tx_base + line * CACHELINE,
                                  data[pos * CACHELINE:
                                       (pos + n) * CACHELINE])
            if not fast:
                seen["accept"].append(sim.now)
            elif nb._macro is not None and nb._macro not in trains:
                trains.append(nb._macro)

    sim.process(job())
    with contextlib.ExitStack() as stack:
        for spy in spies:
            stack.enter_context(spy)
        sim.run()
    # Every window line holds the data of the last call that stored it.
    image = {}
    for line, pos, n in calls:
        for k in range(n):
            image[line + k] = data[(pos + k) * CACHELINE:
                                   (pos + k + 1) * CACHELINE]
    dest = cl.ranks[cl.rank_of(1, 1)]
    off = win.tx_base - dest.base
    assert all(dest.chip.memory.read(off + line * CACHELINE, CACHELINE)
               == want for line, want in image.items())
    if not fast:
        ser = binding.link.serialization_ns(train._LINE)
        seen["ss"] = [r.time - ser for r in tracer.records]
        return seen
    assert sum(t.K for t in trains) == sum(lens), "a line left the trains"
    assert all(not t.aborted for t in trains)
    return {k: [x for t in trains for x in getattr(t, k)] for k in seen}


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.just(0.0), st.sampled_from([4.0, 12.0, 20.0, 23.75, 55.75]),
              st.floats(0.0, 400.0, allow_nan=False)),
    st.one_of(st.just(1), st.integers(1, 6)),
    # Whether the call jumps to another line of the window, and where.
    st.one_of(st.none(), st.integers(0, 255))), min_size=1, max_size=60))
@example([(0.0, 1, None)] * 40 + [(500.0, 1, None)] + [(23.75, 1, None)] * 20)
# Each call's line extends a train whose pipeline drained 0-32 ns ago.
@example([(0.0, 1, None)] + [(75.75, 1, None)] * 30)
# A rendezvous message: a payload, a pause and one line elsewhere, which
# the train carries as a segment of its own, then back to the payload's.
@example([(0.0, 6, 16), (32.0, 1, 200), (0.0, 1, 22), (4.0, 1, 16)])
def test_later_submissions_match_per_packet(calls):
    """A line submitted at any later instant -- back to back, mid-drain,
    after the pipeline emptied -- and at any line of the window gets the
    accept, pop, put and serialization instants of the per-packet run."""
    gaps = [g for g, _, _ in calls]
    lens = [n for _, n, _ in calls]
    jumps = [j for _, _, j in calls]
    slow = _store_calls(gaps, lens, jumps, False)
    fast = _store_calls(gaps, lens, jumps, True)
    for key in ("accept", "pop", "putc", "ss"):
        want = slow[key]
        if key == "accept":
            # Per packet only each call's last acceptance is observed.
            ends = []
            i = -1
            for n in lens:
                i += n
                ends.append(fast[key][i])
            assert ends == want, key
        else:
            assert fast[key] == want, key


def test_long_train_leaves_the_loop():
    # Default timing, 4096 lines: the loop runs the transient and the
    # round restart after the posted queue fills; NumPy does the rest.
    orig = train._recur
    for capq in (2048, 1000):
        p = (0.0, 4096, 12.0, 20.0, 23.75, capq, 4)
        walked = []

        def spy(s, i0, i1, *args):
            walked.append(i1 - i0)
            return orig(s, i0, i1, *args)

        with mock.patch.object(train, "_recur", spy):
            got = train.schedule(*p)
        assert [list(x) for x in got] == list(_loop_schedule(*p))
        assert sum(walked) <= 2 * train._LOOP_LINES, walked


# ---------------------------------------------------------------------------
# Commit-span fold vs the line-by-line step, foreign claims interleaved
# ---------------------------------------------------------------------------

def _fold_run(arrivals, claims, lat, vector):
    """One span over ``arrivals`` on a bare controller whose write
    latency is ``lat``, with foreign reads/writes claiming the port at
    the ``claims`` instants.  With ``vector`` off every fold takes the
    scalar step."""
    sim = Simulator()
    mc = MemoryController(sim, Memory(1 << 20),
                          DEFAULT_TIMING.scaled(dram_write_ns=lat))
    nb = SimpleNamespace(counters=Counter())
    K = len(arrivals)
    done = []

    def claim(i, nbytes, read):
        ev = (mc.read(0x80000, nbytes) if read
              else mc.write(0x90000, b"\x01" * nbytes))
        ev.add_callback(lambda _e: done.append((i, sim.now)))

    for i, (t, nbytes, read) in enumerate(claims):
        sim.schedule(t, claim, i, nbytes, read)
    with mock.patch.object(flows, "_FOLD_LINES", 64 if vector else 1 << 40):
        span = CommitSpan(sim, mc, nb, 0, memoryview(bytes(K * CACHELINE)),
                          array("d", arrivals), CACHELINE)
        sim.run()
    commits = [span._c[i] for i in range(K)]
    assert all(type(c) is float for c in commits)
    assert type(mc._busy_until) is float
    return (commits, sorted(done), mc._busy_until,
            nb.counters.get("rx_writes"), mc.writes)


@st.composite
def _fold_case(draw):
    # Arrival gaps mostly above the 5 ns port occupancy of a line (idle
    # runs), sometimes below it (the port backs up).
    gaps = draw(st.lists(st.one_of(st.floats(5.0, 40.0, allow_nan=False),
                                   st.floats(0.0, 6.0, allow_nan=False),
                                   st.sampled_from([23.75, 5.0, 0.0])),
                         min_size=1, max_size=400))
    t = draw(st.floats(0.0, 1000.0, allow_nan=False))
    arrivals = []
    for g in gaps:
        t += g
        arrivals.append(t)
    claims = draw(st.lists(
        st.tuples(st.floats(0.0, t + 50.0, allow_nan=False),
                  st.sampled_from([8, 64, 256, 1024]), st.booleans()),
        max_size=25))
    lat = draw(st.one_of(st.just(30.0), st.floats(0.1, 80.0,
                                                  allow_nan=False)))
    return arrivals, claims, lat


@settings(max_examples=80, deadline=None)
@given(_fold_case())
@example(([100.0 + 23.75 * i for i in range(300)],
          [(2000.0, 1024, True), (2000.0, 64, False), (4512.3, 8, True)],
          30.0))
# Small non-dyadic instants: (arrival + occ) + lat rounds differently
# from arrival + (occ + lat) on 23 of these 120 lines.
@example(([0.013 + 5.3 * k for k in range(1, 121)], [], 12.345))
def test_span_fold_matches_line_by_line(case):
    assert _fold_run(*case, vector=True) == _fold_run(*case, vector=False)


# ---------------------------------------------------------------------------
# A read completing at a span line's commit instant sees per-packet content
# ---------------------------------------------------------------------------

def _tied_read(span, arrivals, read_at, write_lat, watch):
    """64 B lines arriving at ``arrivals`` (through one CommitSpan, or as
    the per-packet ``write_posted`` calls) and a UC read of line 0
    claimed at ``read_at``; with ``watch``, a consumer parks on a
    doorbell rung by the lines before anything runs.  Returns what the
    read saw and when, the consumer's wakes, and the final memory."""
    sim = Simulator()
    mc = MemoryController(sim, Memory(1 << 20),
                          DEFAULT_TIMING.scaled(dram_write_ns=write_lat))
    lines = [bytes([i + 1]) * CACHELINE for i in range(len(arrivals))]
    data = b"".join(lines)
    seen = []
    if watch:
        db = Doorbell(sim, "db")
        mc.watch(0, len(data), db)

    def read():
        ev = mc.read(0, CACHELINE)
        ev.add_callback(lambda e: seen.append((sim.now, e.value)))

    if span:
        CommitSpan(sim, mc, SimpleNamespace(counters=Counter()), 0,
                   memoryview(data), array("d", arrivals), CACHELINE)
    else:
        for i, t in enumerate(arrivals):
            sim.schedule(t, mc.write_posted, i * CACHELINE, lines[i])
    wakes = []
    if watch:
        db.wait(db.count).add_callback(
            lambda e: wakes.append((sim.now, e.value)))
    sim.schedule(read_at, read)
    sim.run()
    return seen, wakes, mc.memory.read(0, len(data)), mc.writes


@pytest.mark.parametrize("arrivals,read_at,write_lat,watch", [
    # Line 0 commits at 75 ns with the read, having arrived after the
    # read claimed the port: per packet the read sees the old line.
    pytest.param([40.0, 63.75], 0.0, 30.0, False, id="arrived-after"),
    # Line 0 commits at 95 ns with the read, having arrived before it.
    pytest.param([0.0, 23.75], 20.0, 90.0, False, id="arrived-before"),
    pytest.param([39.75, 63.75], 0.0, 30.0, False, id="commits-earlier"),
    pytest.param([40.25, 63.75], 0.0, 30.0, False, id="commits-later"),
    # The span's finalize entry at 75 ns was armed before the read
    # claimed the port; it must let the read commit first.
    pytest.param([40.0], 0.0, 30.0, False, id="last-line"),
    # Likewise the ring entry of a consumer parked before the read.
    pytest.param([40.0, 63.75], 0.0, 30.0, True, id="ring-entry"),
])
def test_read_tied_with_span_commit_matches_per_packet(arrivals, read_at,
                                                       write_lat, watch):
    """Per packet, a line and a read committing at the same instant land
    in calendar order, which is their port-claim order: the read sees the
    line only if the line arrived first.  The span must agree, and so
    must its own calendar entries at that instant."""
    assert (_tied_read(True, arrivals, read_at, write_lat, watch)
            == _tied_read(False, arrivals, read_at, write_lat, watch))


# ---------------------------------------------------------------------------
# No NumPy scalar reaches the calendar, the port, LinkStats or a packet
# ---------------------------------------------------------------------------

def _assert_python_numbers(sim, chips, dirs, spans=()):
    assert type(sim.now) is float
    assert all(type(e[0]) is float for e in sim._heap)
    for chip in chips:
        assert type(chip.memctrl._busy_until) is float
    for d in dirs:
        for f in dataclasses.fields(d.stats):
            v = getattr(d.stats, f.name)
            assert type(v) is type(f.default), (f.name, type(v))
    for span in spans:
        assert all(type(span._c[i]) is float for i in range(span._applied))
        assert all(type(span.times[i]) is float for i in range(span.K))


def _scalar_check(demote):
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem
    from repro.ht.packet import VirtualChannel, make_posted_write

    system = TCClusterSystem.two_board_prototype()
    system.boot()
    cl = system.cluster
    sim = cl.sim
    win = _RawWindow(cl, cl.rank_of(0, 1), cl.rank_of(1, 1))
    core = win.proc.core
    nb = core.chip.nb
    binding = core.chip.ports[nb.route(win.tx_base).dst_link]
    link, side = binding.link, binding.side
    d = link._dirs[side]
    chips = (core.chip, link.attached[d.rx_side])
    dirs = tuple(link._dirs.values())
    K = 2 * _VEC + 100
    data = bytes((i * 37 + 5) % 256 for i in range(K * CACHELINE))
    seen = {}

    def disturb():
        tr = nb._macro
        seen["train"] = tr
        spans = (tr._span,)
        if demote:
            pkt = make_posted_write(win.tx_mailbox, b"\x5a" * 64,
                                    unitid=nb.nodeid, coherent=False)
            if not link.try_send(side, pkt):
                link.send(side, pkt)
            rebuilt = (list(d.txq[VirtualChannel.POSTED]._items)
                       + list(nb.posted_q._items))
            assert rebuilt, "demotion rebuilt no packet"
            assert all(type(p.addr) is int for p in rebuilt)
        _assert_python_numbers(sim, chips, dirs, spans)

    t0 = sim.now
    sim.process(win.proc.store(win.tx_base, data))
    sim.schedule(K * 10.0, disturb)
    sim.run(until=t0 + K * 15.0)
    tr = seen["train"]
    assert tr is not None and tr.K == K
    assert tr.aborted is demote
    _assert_python_numbers(sim, chips, dirs, (tr._span,))
    assert type(tr.t_end) is float and type(tr.t_final) is float
    sim.run()
    _assert_python_numbers(sim, chips, dirs, (tr._span,))
    dest = cl.ranks[cl.rank_of(1, 1)]
    assert dest.chip.memory.read(win.tx_base - dest.base, len(data)) == data


def test_no_numpy_scalar_escapes_clean_train():
    _scalar_check(demote=False)


def test_no_numpy_scalar_escapes_demoted_train():
    _scalar_check(demote=True)
