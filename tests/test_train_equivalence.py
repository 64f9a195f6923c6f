"""Aggregate-vs-per-packet equivalence oracle for adaptive-fidelity trains.

``repro.opteron.train`` collapses an uncontended bulk WC store into
closed-form arithmetic (see its module docstring).  The claim it must
uphold is *virtual-time equivalence*: with `adaptive_fidelity` on or off,
a run produces identical

* completion times (store return, sfence, final drain) and the accept
  instants each store call hands back,
* destination commit instants and memory contents,
* LinkStats (packets/payload/wire/busy) and endpoint counters,
* metrics-registry snapshots (depth samples included),
* packets built: the per-packet run builds one for every line the fast
  run carries through a commit span,

both on the clean path (no demotion) and across a demotion triggered at
an arbitrary instant by a foreign posted write, a foreign link send, or
an interrupt.  The seeded fuzz below drives exactly that comparison.

Known, deliberate divergence (excluded from comparison): the
northbridge's own ``train_*`` counters (absent in per-packet mode by
construction).
"""

import random
from unittest import mock

import pytest

from helpers import assert_conserved, assert_drained, count_span_lines
from repro.obs.metrics import datapath_counters
from repro.sim.flows import CommitSpan
from repro.topology import chain, torus2d
from repro.util.units import CACHELINE


def run_train_mode(K, fast, kind=None, t_off=None, tail=0, loop=None,
                   metrics=True):
    """One two-board bulk store of ``K`` lines (+``tail`` bytes); returns
    an end-state dict.  ``kind``/``t_off`` optionally schedule a foreign
    disturbance ``t_off`` ns after the store begins:

    * ``"submit"``   -- a local posted write enters the same northbridge,
    * ``"send"``     -- a foreign packet enters the same link direction,
    * ``"interrupt"``-- the storing process is interrupted,
    * ``"ber"``      -- the link degrades (BER pulse) mid-window.

    With ``loop`` (``"weak"`` or ``"strict"``) the ``K`` lines go out as
    Figure 6's loop does, one store call per line (strict: an sfence
    after each); ``"segments"`` stores them as three calls, the first
    half, then one line into the peer's mailbox (a rendezvous control
    slot's shape), then the rest, each a segment of one train.  Two more
    kinds disturb the weak or strict loop itself at the first
    line it reaches ``t_off``: ``"noncontig"`` first stores one line into
    the peer's mailbox, which the loop's train carries as a segment of its
    own, ``"late"`` pauses 50 ns and ``"drained"`` 600 ns before it.
    ``metrics`` enables the registry before boot.  ``done["accepts"]``
    collects the accept instants of every store call that returns.
    """
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem
    from repro.sim.engine import Interrupt

    system = TCClusterSystem.two_board_prototype()
    if metrics:
        system.enable_metrics()
    system.sim.features.adaptive_fidelity = fast
    system.boot()
    cl = system.cluster
    sim = cl.sim
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    win = _RawWindow(cl, a, b)
    proc = win.proc
    core = proc.core
    chip = core.chip
    nb = chip.nb
    r = nb.route(win.tx_base)
    binding = chip.ports[r.dst_link]
    link, side = binding.link, binding.side
    dest_chip = link.attached["B" if side == "A" else "A"]
    data = bytes((i * 37 + 5) % 256 for i in range(K * CACHELINE + tail))

    # Destination commits as (instant, offset, bytes): real _commit_write
    # entries, plus the lines a CommitSpan makes real when it flushes,
    # each at its exact per-packet commit instant.
    commits = []
    dest_mc = dest_chip.memctrl
    orig = dest_mc._commit_write

    def spy(offset, d, mask, done):
        commits.append((sim.now, offset, len(d)))
        return orig(offset, d, mask, done)

    dest_mc._commit_write = spy
    orig_flush = CommitSpan.flush_until

    def span_spy(span, now, *claimed):
        f = span._flushed
        orig_flush(span, now, *claimed)
        if span.mc is dest_mc:
            commits.extend((span._c[i], span.line_offset(i), span.line)
                           for i in range(f, span._flushed))

    done = {"accepts": []}
    handle = [None]
    pauses = {"late": 50.0, "drained": 600.0}

    def store(addr, d):
        accepts = []
        yield from proc.store(addr, d, accepts)
        done["accepts"].extend(accepts)

    def store_segments():
        half = K // 2
        yield from store(win.tx_base, data[:half * CACHELINE])
        yield from store(win.tx_mailbox,
                         data[half * CACHELINE:(half + 1) * CACHELINE])
        yield from store(win.tx_base + (half + 1) * CACHELINE,
                         data[(half + 1) * CACHELINE:K * CACHELINE])

    def store_loop():
        pending = kind in ("noncontig", "late", "drained")
        t_start = sim.now
        for i in range(K):
            if pending and sim.now - t_start >= t_off:
                pending = False
                if kind == "noncontig":
                    yield from store(win.tx_mailbox, data[:CACHELINE])
                else:
                    yield pauses[kind]
            yield from store(win.tx_base + i * CACHELINE,
                             data[i * CACHELINE:(i + 1) * CACHELINE])
            if loop == "strict":
                yield from proc.sfence()

    def job():
        try:
            if loop is None:
                yield from store(win.tx_base, data)
            elif loop == "segments":
                yield from store_segments()
            else:
                yield from store_loop()
            done["store_end"] = sim.now
        except Interrupt:
            done["store_interrupted"] = sim.now
        try:
            # Post-disturbance probe: a second store and a fence must
            # behave identically too (reconstructed state is live state).
            yield 100.0
            yield from store(win.tx_base, data[: 4 * CACHELINE])
            done["probe_end"] = sim.now
            yield from core.sfence()
            done["sfence_end"] = sim.now
        except Interrupt:
            done["late_interrupt"] = sim.now

    handle[0] = sim.process(job())
    local_addr = cl.ranks[a].base + (900 << 10)

    def disturb():
        if kind == "submit":
            nb.submit_posted(local_addr, b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(win.tx_mailbox, b"\x5a" * 64,
                                    unitid=nb.nodeid, coherent=False)
            if not link.try_send(side, pkt):
                link.send(side, pkt)
        elif kind == "interrupt":
            handle[0].interrupt("fidelity-test")
        elif kind == "ber":
            # A BER pulse: degradation demotes any train; restoring 0.0
            # before the next transmission keeps the RNG stream unused so
            # both fidelity modes stay bit-comparable.
            link.ber = 1e-6
            link.ber = 0.0

    if kind in ("submit", "send", "interrupt", "ber"):
        sim.schedule(t_off, disturb)
    with mock.patch.object(CommitSpan, "flush_until", span_spy), \
            count_span_lines() as span_lines:
        sim.run_until_event(handle[0])
        sim.run()
    if kind is None:
        assert_drained(system)

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    snap = nb._m.snapshot(sim.now)
    counters = {k: v for k, v in nb.counters.as_dict().items()
                if not k.startswith("train_")}
    return dict(
        t_end=sim.now,
        done=done,
        commits=sorted(commits, key=lambda c: c[0]),
        stats=stats,
        counters=counters,
        dest_counters=dest_chip.nb.counters.as_dict(),
        wc=(core.wc.fills, core.wc.full_flushes, core.wc.partial_flushes),
        snap=snap,
        dest_mem=dest_chip.memctrl.memory.read(0, 1 << 16),
        # The window's lines and the peer's mailbox line.
        win_mem=[dest_chip.memctrl.memory.read(addr - cl.ranks[b].base, n)
                 for addr, n in ((win.tx_base, len(data)),
                                 (win.tx_mailbox, CACHELINE))],
        local_mem=chip.memctrl.memory.read(900 << 10, 64),
        events=sim.event_count,
        train_windows=nb.counters.get("train_windows"),
        train_demotions=nb.counters.get("train_demotions"),
        packets_alloc=datapath_counters(sim)["packets_alloc"],
        span_lines=span_lines[0],
    )


_COMPARED = ("t_end", "done", "commits", "stats", "counters",
             "dest_counters", "wc", "snap", "dest_mem", "win_mem",
             "local_mem")


def assert_equivalent(slow, fast):
    for key in _COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )
    assert_conserved(slow, fast)


# ---------------------------------------------------------------------------
# Clean path: whole train collapses, nothing disturbs it
# ---------------------------------------------------------------------------

_CLEAN_K = (1, 4, 5, 16, 64)


@pytest.mark.parametrize("K,metrics", (
    [pytest.param(K, True, id=str(K)) for K in _CLEAN_K]
    + [pytest.param(K, False, id=f"{K}-no-metrics") for K in _CLEAN_K]))
def test_clean_bulk_store_exact(K, metrics):
    # The probe store rewrites the first lines while the train is on the
    # wire: it extends the train as a segment of its own, metrics on or
    # off (the depth samples of both segments are replayed).
    slow = run_train_mode(K, fast=False, metrics=metrics)
    fast = run_train_mode(K, fast=True, metrics=metrics)
    assert_equivalent(slow, fast)
    assert fast["train_windows"] == 1
    assert fast["train_demotions"] == 0


def test_clean_bulk_store_saves_events():
    slow = run_train_mode(64, fast=False)
    fast = run_train_mode(64, fast=True)
    assert_equivalent(slow, fast)
    assert fast["events"] < slow["events"] * 0.75, (
        f"aggregate fidelity saved too little: "
        f"{slow['events']} -> {fast['events']}"
    )


def test_partial_tail_line_exact():
    # 16 full lines plus a 20-byte tail: the train covers the aligned
    # prefix, the tail goes through the ordinary per-packet partial path.
    slow = run_train_mode(16, fast=False, tail=20)
    fast = run_train_mode(16, fast=True, tail=20)
    assert_equivalent(slow, fast)
    assert fast["train_windows"] >= 1
    # One accept instant per line, the tail's included, then the probe's.
    assert len(fast["done"]["accepts"]) == 16 + 1 + 4


@pytest.mark.slow
@pytest.mark.parametrize("K", [300, 4500])
def test_clean_bulk_store_exact_large(K):
    slow = run_train_mode(K, fast=False)
    fast = run_train_mode(K, fast=True)
    assert_equivalent(slow, fast)
    assert fast["events"] < slow["events"] * 0.65


# ---------------------------------------------------------------------------
# Commit spans: the default destination path, settled at every run exit
# ---------------------------------------------------------------------------

def _two_board_store(fast=None):
    """A booted two-board prototype plus a raw window from rank 0 into
    rank 1; ``fast=None`` keeps the default :class:`SimFeatures`."""
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem

    system = TCClusterSystem.two_board_prototype()
    if fast is not None:
        system.sim.features.adaptive_fidelity = fast
    system.boot()
    cl = system.cluster
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    win = _RawWindow(cl, a, b)
    dest = cl.ranks[b]
    return cl.sim, win, dest.chip.memctrl, win.tx_base - dest.base


def run_store_probe(fast, stops=(5_000.0, 15_000.0)):
    """Stop a 64 KiB bulk store with ``run(until=)`` at each of ``stops``
    ns after it starts; returns the destination write count and DRAM
    image seen at each stop."""
    sim, win, dest_mc, off = _two_board_store(fast)
    data = bytes((i * 37 + 5) % 256 for i in range(64 * 1024))
    sim.process(win.proc.store(win.tx_base, data))
    t0 = sim.now
    probes = []
    for dt in stops:
        sim.run(until=t0 + dt)
        probes.append((dest_mc.writes, dest_mc.memory.read(off, len(data))))
    return probes


def test_run_until_mid_train_settles_commit_spans():
    # The run returns while the commit span still holds lines past their
    # commit instants: the exit settle must make them real, so a caller
    # inspecting DRAM sees exactly the per-packet state.
    slow = run_store_probe(False)
    fast = run_store_probe(True)
    assert 0 < slow[0][0] < slow[1][0] < 1024, "probes missed the train"
    assert slow == fast


def test_default_features_commit_through_span():
    from repro.sim import SimFeatures

    sim, win, dest_mc, off = _two_board_store()
    assert sim.features == SimFeatures()
    per_line = []
    orig = dest_mc._commit_write

    def spy(*args):
        per_line.append(args[0])
        return orig(*args)

    dest_mc._commit_write = spy
    data = bytes(range(256)) * 256
    w0 = dest_mc.writes
    sim.process(win.proc.store(win.tx_base, data))
    sim.run()
    assert win.proc.core.chip.nb.counters.get("train_windows") == 1
    assert dest_mc.writes - w0 == 1024
    assert per_line == [], "train commits left the commit span"
    assert not sim._span_hosts, "commit span never detached"
    assert dest_mc.memory.read(off, len(data)) == data


def run_send_demotion(fast, K=64, t_off=700.0):
    """A ``K``-line bulk store demoted by a foreign send on its link
    direction ``t_off`` ns in.  Returns the destination commits of the
    store's lines, split by path: ``span`` lists ``(instant, line)`` as
    commit spans flush them, ``per_line`` the real ``_commit_write``
    entries.  With ``fast`` it also returns the demotion instant ``T``
    and ``nser``, the lines whose serialization began before ``T``."""
    from bisect import bisect_left

    from repro.ht.packet import make_posted_write

    sim, win, dest_mc, off = _two_board_store(fast)
    core = win.proc.core
    nb = core.chip.nb
    binding = core.chip.ports[nb.route(win.tx_base).dst_link]
    link, side = binding.link, binding.side
    data = bytes((i * 37 + 5) % 256 for i in range(K * CACHELINE))
    out = {"span": [], "per_line": []}
    orig = dest_mc._commit_write

    def spy(offset, d, mask, done):
        if off <= offset < off + len(data):
            out["per_line"].append((sim.now, (offset - off) // CACHELINE))
        return orig(offset, d, mask, done)

    dest_mc._commit_write = spy
    orig_flush = CommitSpan.flush_until

    def span_spy(span, now, *claimed):
        f = span._flushed
        orig_flush(span, now, *claimed)
        out["span"].extend((span._c[i], i) for i in range(f, span._flushed))

    def disturb():
        train = nb._macro
        if train is not None:
            out["T"] = sim.now
            out["nser"] = bisect_left(train.ss, sim.now)
        pkt = make_posted_write(win.tx_mailbox, b"\x5a" * 64,
                                unitid=nb.nodeid, coherent=False)
        if not link.try_send(side, pkt):
            link.send(side, pkt)

    sim.process(win.proc.store(win.tx_base, data))
    sim.schedule(t_off, disturb)
    with mock.patch.object(CommitSpan, "flush_until", span_spy):
        sim.run()
    assert dest_mc.memory.read(off, len(data)) == data
    out["t_end"] = sim.now
    return out


def test_demoted_train_commits_serializing_lines_through_span():
    # Lines whose serialization began before the demotion stay in the
    # commit span (no _commit_write entry for any of them), every later
    # line takes the per-packet path, and together they commit at the
    # per-packet instants.
    slow = run_send_demotion(False)
    fast = run_send_demotion(True)
    T, nser = fast["T"], fast["nser"]
    assert 0 < nser < 64, "the send missed the train window"
    assert any(t > T for t, _ in fast["span"]), (
        "lines in flight at the demotion left the commit span")
    assert [i for _, i in fast["span"]] == list(range(nser))
    assert sorted(i for _, i in fast["per_line"]) == list(range(nser, 64))
    assert slow["span"] == []
    assert sorted(fast["span"] + fast["per_line"]) == sorted(slow["per_line"])
    assert fast["t_end"] == slow["t_end"]


def test_plan_train_refuses_traced_destination():
    # The commit span is a train's only path to destination DRAM, so a
    # traced destination controller keeps the store per-packet.
    from repro.opteron.train import plan_train
    from repro.sim.trace import Tracer

    sim, win, dest_mc, off = _two_board_store()
    core = win.proc.core
    data = bytes(range(256)) * 16
    assert plan_train(core, win.tx_base, data) is not None
    dest_mc.tracer = Tracer()
    assert plan_train(core, win.tx_base, data) is None
    sim.process(win.proc.store(win.tx_base, data))
    sim.run()
    assert core.chip.nb.counters.get("train_windows") == 0
    assert dest_mc.memory.read(off, len(data)) == data
    assert len(dest_mc.tracer.by_event("write_done")) == len(data) // CACHELINE


def _park_on_last_line(K, fast, park_at=30.0):
    """A ``K``-line bulk store on the two-board prototype, and a process
    that parks ``park_at`` ns after the store began on a doorbell rung by
    commits to the store's last line.  Returns the wake instants,
    relative to the store's start."""
    from repro.sim import Doorbell

    sim, win, dest_mc, off = _two_board_store(fast)
    db = Doorbell(sim, "last-line")
    last = off + (K - 1) * CACHELINE
    dest_mc.watch(last, last + CACHELINE, db)
    data = bytes((i * 37 + 5) % 256 for i in range(K * CACHELINE))
    t0 = sim.now
    wakes = []

    def parker():
        yield park_at
        yield db.wait(db.count)
        wakes.append(sim.now - t0)

    sim.process(win.proc.store(win.tx_base, data))
    sim.process(parker())
    sim.run()
    return wakes


@pytest.mark.parametrize("K,wake", [(4, 185.0), (8, 280.0), (64, 1610.0)])
def test_consumer_parked_on_a_span_last_line_wakes(K, wake):
    # The span's finalize entry flushes the last line, which moves the
    # doorbell count without waking anyone, and then detaches the span,
    # revoking the parked consumer's ring entry: the consumer must wake
    # there, at the line's per-packet commit instant.
    assert _park_on_last_line(K, fast=False) == [wake]
    assert _park_on_last_line(K, fast=True) == [wake]


# ---------------------------------------------------------------------------
# Commit spans sharing a destination controller
# ---------------------------------------------------------------------------

def run_converging_stores(topo, sources, dest, nbytes, fast):
    """Each supernode of ``sources`` stores ``nbytes`` into its own slice
    of ``dest``'s DRAM in one call, all starting at the same instant.
    Returns the end time, the destination commits as sorted
    ``(instant, offset)`` pairs (real ``_commit_write`` entries plus the
    lines commit spans flush) and the destination bytes."""
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem

    system = TCClusterSystem(topo)
    system.sim.features.adaptive_fidelity = fast
    system.boot()
    cl = system.cluster
    sim = cl.sim
    rd = cl.rank_of(dest)
    mc = cl.ranks[rd].chip.memctrl
    wins = [_RawWindow(cl, cl.rank_of(s), rd) for s in sources]
    commits = []
    orig = mc._commit_write

    def spy(offset, d, mask, done):
        commits.append((sim.now, offset))
        return orig(offset, d, mask, done)

    mc._commit_write = spy
    orig_flush = CommitSpan.flush_until

    def span_spy(span, now, *claimed):
        f = span._flushed
        orig_flush(span, now, *claimed)
        if span.mc is mc:
            commits.extend((span._c[i], span.line_offset(i))
                           for i in range(f, span._flushed))

    base = wins[0].tx_base
    datas = [bytes((i * 37 + 11 * k + 5) % 256 for i in range(nbytes))
             for k in range(len(sources))]
    procs = [sim.process(w.proc.store(base + k * nbytes, d))
             for k, (w, d) in enumerate(zip(wins, datas))]
    with mock.patch.object(CommitSpan, "flush_until", span_spy):
        sim.run_until_event(sim.all_of(procs))
        sim.run()
    assert_drained(system)
    mem = mc.memory.read(base - cl.ranks[rd].base, nbytes * len(sources))
    assert mem == b"".join(datas)
    trains = sum(w.proc.core.chip.nb.counters.get("train_windows")
                 for w in wins)
    return dict(t_end=sim.now, commits=sorted(commits), mem=mem,
                trains=trains)


_CONVERGING = [
    # A fold that lets a span take the port for its own arrivals ahead
    # of other spans' earlier ones (with equal-instant ties to the last
    # span) ends these at 78899.0 vs 76359.0 ns, 53724.0 vs 53559.0 ns
    # at 4 KiB, and 84009.0 vs 76389.0 ns on the torus.
    pytest.param(lambda: chain(3), (0, 2), 1, 64 * 1024, 2, id="chain3-64k"),
    pytest.param(lambda: chain(3), (0, 2), 1, 4 * 1024, 2, id="chain3-4k"),
    pytest.param(lambda: torus2d(4, 4), (4, 6, 1, 9), 5, 64 * 1024, 4,
                 id="torus2d-4to5"),
    # Three trains plus one per-packet stream: lines that arrive at one
    # instant take the adjacent 5 ns port slots in a rotated order.  End
    # time, commit instants and memory match; the per-packet order comes
    # from calendar history a span does not model (DESIGN.md 8.2).
    pytest.param(lambda: torus2d(4, 4), (0, 2, 5, 8), 1, 64 * 1024, 3,
                 id="torus2d-4to1",
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="3060 of 4096 (instant, line) pairs differ: "
                            "equal-instant arrivals of spans and a "
                            "per-packet stream take the port slots in a "
                            "rotated order")),
]


@pytest.mark.parametrize("topo,sources,dest,nbytes,trains", _CONVERGING)
def test_converging_stores_fold_in_global_order(topo, sources, dest, nbytes,
                                               trains):
    slow = run_converging_stores(topo(), sources, dest, nbytes, False)
    fast = run_converging_stores(topo(), sources, dest, nbytes, True)
    assert fast["trains"] == trains, "the stores did not all promote"
    assert fast["t_end"] == slow["t_end"]
    assert ([t for t, _ in fast["commits"]]
            == [t for t, _ in slow["commits"]])
    assert fast["mem"] == slow["mem"]
    assert fast["commits"] == slow["commits"]


# ---------------------------------------------------------------------------
# Seeded fuzz: a foreign event at a random instant forces demotion
# ---------------------------------------------------------------------------

def _fuzz_cases(seed, n, kinds=("submit", "send", "interrupt", "ber")):
    rng = random.Random(seed)
    span = {5: 220.0, 16: 600.0, 64: 1900.0}
    for _ in range(n):
        K = rng.choice(list(span))
        yield (rng.choice(kinds), K,
               round(rng.uniform(0.1, span[K]), 2))


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_demotion_fuzz_oracle(seed):
    for kind, K, t_off in _fuzz_cases(seed, 4):
        slow = run_train_mode(K, fast=False, kind=kind, t_off=t_off)
        fast = run_train_mode(K, fast=True, kind=kind, t_off=t_off)
        try:
            assert_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(
                f"kind={kind} K={K} t_off={t_off}: {exc}") from exc


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(8)))
def test_demotion_fuzz_oracle_deep(seed):
    for kind, K, t_off in _fuzz_cases(seed + 100, 12):
        slow = run_train_mode(K, fast=False, kind=kind, t_off=t_off)
        fast = run_train_mode(K, fast=True, kind=kind, t_off=t_off)
        try:
            assert_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(
                f"kind={kind} K={K} t_off={t_off}: {exc}") from exc


@pytest.mark.parametrize("kind,t_off", [
    # 384 ns: line 31's fill ends as the interrupt lands; per packet the
    # fill sleep went on the calendar first, so the line is stored.
    ("interrupt", 384.0), ("interrupt", 396.0),
    # 32 ns: the dispatcher's send of line 0 is due as the foreign send
    # lands, which per packet goes first.
    ("send", 32.0), ("submit", 32.0),
])
def test_demotion_at_an_exact_pipeline_instant(kind, t_off):
    slow = run_train_mode(64, fast=False, kind=kind, t_off=t_off)
    fast = run_train_mode(64, fast=True, kind=kind, t_off=t_off)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] == 1


def test_demotion_while_the_core_waits_on_a_full_posted_queue():
    # 4500 lines fill the 2048-packet posted queue about 50 us in.  At
    # 57 us the core waits on the put of a filled line, so the demoted
    # call waits out that line's acceptance per packet and hands back its
    # instant after those of the lines accepted before the cut.
    slow = run_train_mode(4500, fast=False, kind="submit", t_off=57000.0)
    fast = run_train_mode(4500, fast=True, kind="submit", t_off=57000.0)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] == 1


def test_drain_tail_demotion_exact():
    # K=16 window: fills finish around 12*16 ns, the wire drains until
    # roughly 24*16 ns.  A foreign submit in between lands after the core
    # resumed but while the dispatcher/serializer are still replaying the
    # precomputed schedule.
    slow = run_train_mode(16, fast=False, kind="submit", t_off=300.0)
    fast = run_train_mode(16, fast=True, kind="submit", t_off=300.0)
    assert_equivalent(slow, fast)


# ---------------------------------------------------------------------------
# Line-at-a-time loops: one store call per line grows one train
# ---------------------------------------------------------------------------

_LOOP_KINDS = (None, "submit", "send", "interrupt", "ber", "noncontig",
               "late", "drained")


def _line_loop_pair(K, loop, kind=None, t_off=None):
    # Metrics on: the depth samples of grown, multi-segment and demoted
    # trains are compared too.
    slow = run_train_mode(K, False, kind=kind, t_off=t_off, loop=loop)
    fast = run_train_mode(K, True, kind=kind, t_off=t_off, loop=loop)
    try:
        assert_equivalent(slow, fast)
    except AssertionError as exc:  # pragma: no cover - diagnostics
        raise AssertionError(
            f"loop={loop} K={K} kind={kind} t_off={t_off}: {exc}") from exc
    return fast


@pytest.mark.parametrize("loop", ["weak", "strict"])
@pytest.mark.parametrize("K", [1, 5, 64])
def test_line_loop_exact(loop, K):
    # Clean, then each disturbance halfway through the loop (a line
    # every 12 ns weak, every 32 ns strict).
    mid = (12.0 if loop == "weak" else 32.0) * K / 2
    windows = {}
    for kind in _LOOP_KINDS:
        fast = _line_loop_pair(K, loop, kind, mid)
        windows[kind] = fast["train_windows"]
    # The loop grows one train (the probe store opens a second once the
    # pipeline has drained).
    assert windows[None] in (1, 2)
    if K > 1 and loop == "strict":
        # 50 ns after an sfence the pipeline has drained, but the train
        # is still open and the next line extends it; after 600 ns the
        # window has closed and the line opens a new one.
        assert windows["late"] == windows[None]
        assert windows["drained"] == windows[None] + 1


def test_line_loop_saves_events():
    # Strict: the pipeline drains before the probe store, so the loop's
    # train ends undisturbed (767 -> 317 calendar entries, boot and probe
    # included).
    slow = run_train_mode(64, False, loop="strict", metrics=False)
    fast = run_train_mode(64, True, loop="strict", metrics=False)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] == 0
    assert fast["events"] < slow["events"] * 0.5, (
        f"one growing train saved too little: "
        f"{slow['events']} -> {fast['events']}")


def test_line_loop_under_metrics_rides_one_train():
    # Metrics do not limit trains: the strict loop of one-line stores
    # grows one train (the probe store, after the pipeline drained, opens
    # a second) and replays the per-packet posted-queue depth samples.
    slow = run_train_mode(16, False, loop="strict")
    fast = run_train_mode(16, True, loop="strict")
    assert_equivalent(slow, fast)
    assert fast["snap"]["accumulators"], "no depth samples to compare"
    assert fast["train_windows"] == 2
    assert fast["train_demotions"] == 0


def _ring_allreduce(metrics, msg_cfg=None):
    """An 8 KiB ring allreduce on ``chain(2)``.  With the default message
    config every 4 KiB chunk goes rendezvous; ``msg_cfg`` may raise
    ``eager_max`` so that each chunk is one multi-slot eager message,
    carried in slot spans.  Returns the elapsed virtual time, the
    calendar entries it executed, the northbridges' train counters and
    the slot-span counters."""
    from repro.bench.sweep_points import _drive_collective
    from repro.core import TCClusterSystem
    from repro.middleware import Communicator
    from repro.obs.metrics import flow_counters

    system = TCClusterSystem(chain(2), msg_cfg=msg_cfg)
    if metrics:
        system.enable_metrics()
    system.boot()
    cl = system.cluster
    comms = [Communicator.for_cluster(cl, r) for r in range(cl.nranks)]
    elapsed, events = _drive_collective(system.sim, comms, "allreduce",
                                        "ring", 8 * 1024)
    trains = [{k: v for k, v in cl.ranks[r].chip.nb.counters.as_dict().items()
               if k.startswith("train_")} for r in range(cl.nranks)]
    fl = flow_counters(system.sim)
    return elapsed, events, trains, (fl.slot_windows, fl.slot_slots)


def test_metrics_leave_the_calendar_alone():
    # The registry only records: a run executes the same calendar
    # entries, ends at the same instant, and opens, grows and demotes the
    # same trains and slot spans with metrics on and off, rendezvous
    # chunks and multi-slot eager messages alike.
    from repro.msglib import MsgConfig
    from repro.util.units import KiB

    eager = MsgConfig(ring_bytes=16 * KiB, eager_max=7168,
                      fb_interval_slots=128)
    for msg_cfg in (None, eager):
        off = _ring_allreduce(metrics=False, msg_cfg=msg_cfg)
        on = _ring_allreduce(metrics=True, msg_cfg=msg_cfg)
        assert on == off, f"eager_max={getattr(msg_cfg, 'eager_max', None)}"
        assert sum(t["train_windows"] for t in on[2]) > 0
        assert (on[3][0] > 0) == (msg_cfg is eager), on[3]


def _loop_fuzz_cases(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        loop = rng.choice(("weak", "strict"))
        K = rng.choice((5, 16, 64))
        per = 12.0 if loop == "weak" else 32.0
        yield (loop, K, rng.choice(_LOOP_KINDS[1:]),
               round(rng.uniform(0.1, per * K + 100.0), 2))


@pytest.mark.parametrize("seed", [2, 9])
def test_line_loop_fuzz_oracle(seed):
    for loop, K, kind, t_off in _loop_fuzz_cases(seed, 6):
        _line_loop_pair(K, loop, kind, t_off)


def _segment_cases(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        K = rng.choice((5, 16, 64))
        yield (K, rng.choice(("submit", "send", "interrupt", "ber")),
               round(rng.uniform(0.1, 12.0 * K + 400.0), 2))


@pytest.mark.parametrize("seed", [4, 13])
def test_segment_demotion_fuzz_oracle(seed):
    # One train of three segments, demoted at a random instant: every
    # line the demotion rebuilds, and the demoted call's per-packet
    # finish, carry their own segment's address.
    for K, kind, t_off in _segment_cases(seed, 4):
        _line_loop_pair(K, "segments", kind, t_off)


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(4)))
def test_segment_demotion_fuzz_oracle_deep(seed):
    for K, kind, t_off in _segment_cases(seed + 700, 12):
        _line_loop_pair(K, "segments", kind, t_off)


def test_segments_ride_one_train():
    fast = _line_loop_pair(64, "segments")
    assert fast["train_windows"] == 1 and fast["train_demotions"] == 0


@pytest.mark.slow
@pytest.mark.parametrize("loop", ["weak", "strict"])
@pytest.mark.parametrize("K", [300, 4500])
def test_line_loop_exact_large(loop, K):
    mid = (12.0 if loop == "weak" else 32.0) * K / 2
    for kind in _LOOP_KINDS:
        fast = _line_loop_pair(K, loop, kind, mid)
        if kind is None:
            assert fast["train_windows"] in (1, 2)


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(6)))
def test_line_loop_fuzz_oracle_deep(seed):
    for loop, K, kind, t_off in _loop_fuzz_cases(seed + 300, 12):
        _line_loop_pair(K, loop, kind, t_off)


# ---------------------------------------------------------------------------
# Other processes acting while a train's store call is in progress
# ---------------------------------------------------------------------------

def run_overlapping(fast, first, second, gap, foreign=None):
    """Two processes of one core store ``first`` lines and then, ``gap``
    ns later, the next ``second`` lines; with ``second == 0`` only the
    first store runs.  ``foreign`` spawns, after the stores began, a
    process that submits a local posted write ``foreign`` ns in.
    Returns each store's end, the run's end, the destination commits as
    ``(instant, offset)`` and the destination and local memory."""
    sim, win, dest_mc, off = _two_board_store(fast)
    proc = win.proc
    nb = proc.core.chip.nb
    local = win.cluster.ranks[win.rank].base + (900 << 10)
    data = bytes((i * 37 + 5) % 256
                 for i in range((first + second) * CACHELINE))
    commits = []
    orig = dest_mc._commit_write

    def spy(offset, d, mask, done):
        commits.append((sim.now, offset))
        return orig(offset, d, mask, done)

    dest_mc._commit_write = spy
    orig_flush = CommitSpan.flush_until

    def span_spy(span, now, *claimed):
        f = span._flushed
        orig_flush(span, now, *claimed)
        if span.mc is dest_mc:
            commits.extend((span._c[i], span.line_offset(i))
                           for i in range(f, span._flushed))

    t0 = sim.now
    ends = {}

    def store(tag, line, n, delay):
        if delay:
            yield delay
        yield from proc.store(win.tx_base + line * CACHELINE,
                              data[line * CACHELINE:(line + n) * CACHELINE])
        ends[tag] = sim.now - t0

    def submit(at):
        yield at
        nb.submit_posted(local, b"\xa5" * 8)

    sim.process(store("first", 0, first, 0.0))
    if second:
        sim.process(store("second", first, second, gap))
    if foreign is not None:
        sim.process(submit(foreign))
    with mock.patch.object(CommitSpan, "flush_until", span_spy):
        sim.run()
    return dict(ends=ends, t_end=sim.now - t0, commits=sorted(commits),
                dest_mem=dest_mc.memory.read(off, len(data)),
                local_mem=proc.core.chip.memctrl.memory.read(900 << 10, 8),
                windows=nb.counters.get("train_windows"))


@pytest.mark.parametrize("first,second,gap", [
    (1, 1, 0.0), (1, 1, 5.0), (1, 4, 0.0), (4, 1, 5.0), (4, 1, 36.0)])
def test_same_core_store_while_a_call_waits(first, second, gap):
    # The second process's store continues the train's lines, but the
    # first call has not returned: it must go per-packet and demote the
    # train, not extend it under the waiting call.  (4, 1, 0.0) is left
    # out: both lines' fills end at 12 ns and the demotion orders the
    # foreign one first, a tie DESIGN.md section 8.2 lists.
    slow = run_overlapping(False, first, second, gap)
    fast = run_overlapping(True, first, second, gap)
    assert fast["windows"] == 1
    for key in ("ends", "t_end", "commits", "dest_mem"):
        assert slow[key] == fast[key], key


@pytest.mark.parametrize("K,at", [(1, 12.0), (4, 48.0)])
def test_foreign_submit_as_a_call_returns(K, at):
    # A foreign posted write lands at the instant the store call's last
    # line is accepted, on an entry pushed after the call began.  The
    # one-line call's core has resumed there, its line already in the
    # posted queue; the 4-line call's core resumes one dispatch later and
    # submits its line after the foreign write, as per packet.  Neither
    # may lose the line.
    slow = run_overlapping(False, K, 0, 0.0, foreign=at)
    fast = run_overlapping(True, K, 0, 0.0, foreign=at)
    assert slow["ends"] == {"first": at}
    assert fast["windows"] == 1
    for key in ("ends", "t_end", "commits", "dest_mem", "local_mem"):
        assert slow[key] == fast[key], key


# ---------------------------------------------------------------------------
# The same core storing a line bound elsewhere while its train runs
# ---------------------------------------------------------------------------

def run_train_then_line(fast, src, first, second, K=64, gap=20.0):
    """On ``chain(3)``, supernode ``src`` stores ``K`` lines to supernode
    ``first`` in one call and, ``gap`` ns after the call returns (its
    train still on the wire), one line to supernode ``second`` from the
    same core.  Returns the store ends, the run's end, the commits at
    both destinations as ``(instant, controller, offset)``, their memory,
    every link's stats, every northbridge's counters bar ``train_*``,
    and the packet counts of the conservation check."""
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem

    system = TCClusterSystem(chain(3))
    system.sim.features.adaptive_fidelity = fast
    system.boot()
    cl = system.cluster
    sim = cl.sim
    r = cl.rank_of(src)
    wins = [_RawWindow(cl, r, cl.rank_of(first)),
            _RawWindow(cl, r, cl.rank_of(second))]
    core = wins[0].proc.core
    assert wins[1].proc.core is core
    dests = [cl.ranks[w.peer] for w in wins]
    mcs = [d.chip.memctrl for d in dests]
    data = bytes((i * 37 + 5) % 256 for i in range((K + 1) * CACHELINE))
    commits = []

    def spy_on(k, mc):
        orig = mc._commit_write

        def spy(offset, d, mask, done):
            commits.append((sim.now, k, offset))
            return orig(offset, d, mask, done)

        mc._commit_write = spy

    for k, mc in enumerate(mcs):
        spy_on(k, mc)
    orig_flush = CommitSpan.flush_until

    def span_spy(span, now, *claimed):
        f = span._flushed
        orig_flush(span, now, *claimed)
        k = mcs.index(span.mc)
        commits.extend((span._c[i], k, span.line_offset(i))
                       for i in range(f, span._flushed))

    t0 = sim.now
    ends = {}

    def job():
        yield from wins[0].proc.store(wins[0].tx_base,
                                      data[:K * CACHELINE])
        ends["train"] = sim.now - t0
        yield gap
        yield from wins[1].proc.store(wins[1].tx_base, data[K * CACHELINE:])
        ends["line"] = sim.now - t0

    sim.process(job())
    with mock.patch.object(CommitSpan, "flush_until", span_spy), \
            count_span_lines() as span_lines:
        sim.run()
    assert_drained(system)
    nbs = [chip.nb for board in cl.boards for chip in board.chips]
    return dict(
        ends=ends, t_end=sim.now - t0, commits=sorted(commits),
        mem=[mc.memory.read(w.tx_base - d.base, (K + 1) * CACHELINE)
             for mc, w, d in zip(mcs, wins, dests)],
        stats={(link.name, s): link.stats(s).as_dict(sim.now)
               for link in {b.link for nb in nbs
                            for b in nb.chip.ports.values()}
               for s in ("A", "B")},
        counters=[{k: v for k, v in nb.counters.as_dict().items()
                   if not k.startswith("train_")} for nb in nbs],
        windows=core.chip.nb.counters.get("train_windows"),
        demotions=core.chip.nb.counters.get("train_demotions"),
        packets_alloc=datapath_counters(sim)["packets_alloc"],
        span_lines=span_lines[0],
    )


@pytest.mark.parametrize("src,first,second", [
    # Another direction: the middle node's line goes out its other port.
    pytest.param(1, 2, 0, id="other-direction"),
    # The same port, but the next chip forwards the line to node 2.
    pytest.param(0, 1, 2, id="forwarded"),
])
def test_line_bound_elsewhere_demotes_the_train(src, first, second):
    # The line cannot ride the train, whose schedule owns one link
    # direction and lands in the next chip's DRAM: it goes per packet and
    # its submit demotes the train, as it does per packet.
    slow = run_train_then_line(False, src, first, second)
    fast = run_train_then_line(True, src, first, second)
    assert fast["windows"] == 1 and fast["demotions"] == 1
    for key in ("ends", "t_end", "commits", "mem", "stats", "counters"):
        assert slow[key] == fast[key], key
    assert_conserved(slow, fast)


# ---------------------------------------------------------------------------
# Fault oracle: one injected fault lands inside a train window
# ---------------------------------------------------------------------------

def run_fault_store(fast, kind, at_ns):
    """A 64 KiB store + sfence from rank 0 into rank 1 on ``chain(2)``;
    ``kind`` fires on the link ``at_ns`` after boot and lasts 20 us.
    Returns the end time, the destination bytes and the link metrics."""
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem
    from repro.faults import FaultInjector, FaultPlan
    from repro.topology import chain

    system = TCClusterSystem(chain(2))
    system.sim.features.adaptive_fidelity = fast
    system.boot()
    cl = system.cluster
    sim = cl.sim
    win = _RawWindow(cl, 0, 1)
    plan = FaultPlan().add(at_ns, kind, 0, duration_ns=20_000.0)
    FaultInjector(cl, plan).arm()
    nb = win.proc.core.chip.nb
    link = win.proc.core.chip.ports[nb.route(win.tx_base).dst_link].link
    data = bytes((i * 37 + 5) % 256 for i in range(64 * 1024))

    def job():
        yield from win.proc.store(win.tx_base, data)
        yield from win.proc.core.sfence()

    sim.process(job())
    sim.run()
    metrics = link.metrics()
    dest = cl.ranks[1]
    return dict(
        t_end=sim.now,
        dest_mem=dest.chip.memctrl.memory.read(win.tx_base - dest.base,
                                               len(data)),
        metrics=metrics,
        train_windows=nb.counters.get("train_windows"),
    )


def _diverges(why):
    return pytest.mark.xfail(strict=True, reason=why)


_FAULT_CASES = [
    pytest.param("BER_STORM", 500.0, id="storm@500"),
    pytest.param("CREDIT_STALL", 500.0, id="stall@500", marks=_diverges(
        "ends at 96337 ns with trains vs 76344 ns per-packet: a train "
        "holds no POSTED credits mid-window, so the stall also steals "
        "the credits the per-packet run's in-flight packets bring home")),
    pytest.param("CREDIT_STALL", 6000.0, id="stall@6000", marks=_diverges(
        "ends at 96327 ns with trains vs 78585.75 ns per-packet (same "
        "credit accounting gap)")),
    pytest.param("LINK_FLAP", 500.0, id="flap@500", marks=_diverges(
        "naks 1 vs 4 and busy_ns 24320 vs 24391.25: demotion on "
        "bring_down does not rebuild the per-packet NAK sequence")),
    pytest.param("LINK_KILL", 500.0, id="kill@500", marks=_diverges(
        "ends at 166488 vs 166502 ns, packets/naks 20/0 vs 19/3: same "
        "bring_down demotion gap")),
]


@pytest.mark.parametrize("kind,at_ns", _FAULT_CASES)
def test_fault_in_window_matches_per_packet(kind, at_ns):
    from repro.faults import FaultKind

    slow = run_fault_store(False, FaultKind[kind], at_ns)
    fast = run_fault_store(True, FaultKind[kind], at_ns)
    assert fast["train_windows"] >= 1, "fast path never engaged"
    for key in ("t_end", "dest_mem", "metrics"):
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}")
