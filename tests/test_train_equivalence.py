"""Aggregate-vs-per-packet equivalence oracle for adaptive-fidelity trains.

``repro.opteron.train`` collapses an uncontended bulk WC store into
closed-form arithmetic (see its module docstring).  The claim it must
uphold is *virtual-time equivalence*: with `adaptive_fidelity` on or off,
a run produces identical

* completion times (store return, sfence, final drain),
* destination commit instants and memory contents,
* LinkStats (packets/payload/wire/busy) and endpoint counters,
* metrics-registry snapshots (depth samples included),

both on the clean path (no demotion) and across a demotion triggered at
an arbitrary instant by a foreign posted write, a foreign link send, or
an interrupt.  The seeded fuzz below drives exactly that comparison.

Known, deliberate divergences (excluded from comparison): the per-burst
``bursts`` LinkStats counter and the train's own ``train_*`` /
``train.*`` telemetry (absent in per-packet mode by construction).
"""

import random
from unittest import mock

import pytest

from repro.sim.flows import CommitSpan
from repro.util.units import CACHELINE


def run_train_mode(K, fast, kind=None, t_off=None, tail=0):
    """One two-board bulk store of ``K`` lines (+``tail`` bytes); returns
    an end-state dict.  ``kind``/``t_off`` optionally schedule a foreign
    disturbance ``t_off`` ns after the store begins:

    * ``"submit"``   -- a local posted write enters the same northbridge,
    * ``"send"``     -- a foreign packet enters the same link direction,
    * ``"interrupt"``-- the storing process is interrupted,
    * ``"ber"``      -- the link degrades (BER pulse) mid-window.
    """
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem
    from repro.sim.engine import Interrupt

    system = TCClusterSystem.two_board_prototype()
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

    def span_spy(span, now):
        f = span._flushed
        orig_flush(span, now)
        if span.mc is dest_mc:
            commits.extend((span._c[i], span.offs[i], span.line)
                           for i in range(f, span._flushed))

    done = {}
    handle = [None]

    def job():
        try:
            yield from proc.store(win.tx_base, data)
            done["store_end"] = sim.now
        except Interrupt:
            done["store_interrupted"] = sim.now
        try:
            # Post-disturbance probe: a second store and a fence must
            # behave identically too (reconstructed state is live state).
            yield 100.0
            yield from proc.store(win.tx_base, data[: 4 * CACHELINE])
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

    if kind is not None:
        sim.schedule(t_off, disturb)
    with mock.patch.object(CommitSpan, "flush_until", span_spy):
        sim.run_until_event(handle[0])
        sim.run()

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    snap = nb._m.snapshot(sim.now)
    snap["counters"] = {k: v for k, v in snap["counters"].items()
                        if not k.startswith("train.")}
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
        local_mem=chip.memctrl.memory.read(900 << 10, 64),
        events=sim.event_count,
        train_windows=nb.counters.get("train_windows"),
        train_demotions=nb.counters.get("train_demotions"),
    )


_COMPARED = ("t_end", "done", "commits", "stats", "counters",
             "dest_counters", "wc", "snap", "dest_mem", "local_mem")


def assert_equivalent(slow, fast):
    for key in _COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


# ---------------------------------------------------------------------------
# Clean path: whole train collapses, nothing disturbs it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [1, 4, 5, 16, 64])
def test_clean_bulk_store_exact(K):
    slow = run_train_mode(K, fast=False)
    fast = run_train_mode(K, fast=True)
    assert_equivalent(slow, fast)
    if K >= 4:
        assert fast["train_windows"] >= 1, "fast path never engaged"
    if K <= 5:
        # Larger K: the probe store lands inside the main train's drain
        # tail and legitimately demotes it (covered by the fuzz below).
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


def test_drain_tail_demotion_exact():
    # K=16 window: fills finish around 12*16 ns, the wire drains until
    # roughly 24*16 ns.  A foreign submit in between lands after the core
    # resumed but while the dispatcher/serializer are still replaying the
    # precomputed schedule.
    slow = run_train_mode(16, fast=False, kind="submit", t_off=300.0)
    fast = run_train_mode(16, fast=True, kind="submit", t_off=300.0)
    assert_equivalent(slow, fast)


# ---------------------------------------------------------------------------
# Fault oracle: one injected fault lands inside a train window
# ---------------------------------------------------------------------------

def run_fault_store(fast, kind, at_ns):
    """A 64 KiB store + sfence from rank 0 into rank 1 on ``chain(2)``;
    ``kind`` fires on the link ``at_ns`` after boot and lasts 20 us.
    Returns the end time, the destination bytes and the link metrics
    (minus the burst-mode ``bursts`` counter)."""
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
    for m in metrics.values():
        m.pop("bursts")
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
