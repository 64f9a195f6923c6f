"""Flow-level fidelity equivalence oracle (DESIGN.md section 12).

``repro.sim.flows`` collapses msglib eager ring-slot traffic into one
contiguous span store (which rides the bulk-train machinery) and the
train's per-line destination commits into an arithmetic
:class:`~repro.sim.flows.CommitSpan`.  The claim under test mirrors
``test_train_equivalence``: with ``flow_fidelity`` (plus
``adaptive_fidelity``) on or off, a msglib exchange produces identical

* virtual end times and per-message receive instants,
* received payloads and destination memory images,
* destination memory-controller accounting (reads/writes/bytes),
* link stats and northbridge counters,

on the clean path and across demotions forced at arbitrary instants by
foreign posted writes, foreign link sends, or BER pulses -- each of
which aborts the carrying train and therefore the commit span mid-run.
Remote read chains (:class:`~repro.sim.flows.ReadFlow`) face the same
oracle with ``adaptive_fidelity`` on or off.

Deliberate divergences (excluded): the per-burst ``bursts`` LinkStats
counter and the ``train_*`` / flow telemetry counters, which exist only
when the fast paths engage.
"""

import random

import pytest

from repro.cluster import build_single_board_prototype
from repro.core import TCClusterSystem
from repro.msglib import MsgConfig
from repro.obs.metrics import flow_counters
from repro.util.units import KiB, MiB

MSG_BYTES = 7168          # 128 slots of 56-byte payload
_CFG = dict(ring_bytes=16 * KiB, eager_max=7168, fb_interval_slots=128,
            read_chunk=4 * KiB, heap_bytes=64 * KiB)


def run_exchange(fast, nmsgs=2, kind=None, t_off=None, msg_bytes=MSG_BYTES):
    """Rank 0 streams ``nmsgs`` eager messages to rank 1; returns an
    end-state dict.  ``kind``/``t_off`` optionally schedule a foreign
    disturbance ``t_off`` ns into the run:

    * ``"submit"`` -- a local posted write enters the sender's NB,
    * ``"send"``   -- a foreign packet enters the same link direction,
    * ``"ber"``    -- a BER pulse degrades and restores the link.
    """
    sys_ = TCClusterSystem(msg_cfg=MsgConfig(**_CFG))
    sys_.sim.features.adaptive_fidelity = fast
    sys_.sim.features.flow_fidelity = fast
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    tx, rx = sys_.connect(0, 1)
    nb = cl.ranks[0].chip.nb
    dest_chip = cl.ranks[1].chip

    rng = random.Random(0x5EED)
    payloads = [rng.randbytes(msg_bytes) for _ in range(nmsgs)]
    got = []
    recv_times = []

    def sender():
        for m in payloads:
            yield from tx.send(m)
            # Drain gap (a compute phase): without it message k+1's
            # submit lands in message k's drain tail and demotes it --
            # legitimate, but the clean-path test wants clean windows.
            yield 4000.0
        yield from tx.flush()

    def receiver():
        for _ in payloads:
            got.append((yield from rx.recv()))
            recv_times.append(sim.now)

    # The link between the two ranks (for the foreign-send disturbance).
    link = side = None
    for binding in cl.ranks[0].chip.ports.values():
        other = binding.link.attached["B" if binding.side == "A" else "A"]
        if other is dest_chip:
            link, side = binding.link, binding.side
            break
    assert link is not None

    def disturb():
        if kind == "submit":
            nb.submit_posted(cl.ranks[0].base + (900 << 10), b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(cl.ranks[1].base + (900 << 10),
                                    b"\x5a" * 64, unitid=nb.nodeid,
                                    coherent=False)
            if not link.try_send(side, pkt):
                link.send(side, pkt)
        elif kind == "ber":
            link.ber = 1e-6
            link.ber = 0.0

    if kind is not None:
        sim.schedule(t_off, disturb)
    e0 = sim.event_count
    ps = [sim.process(sender()), sim.process(receiver())]
    sim.run_until_event(sim.all_of(ps))
    sim.run()

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    counters = {k: v for k, v in nb.counters.as_dict().items()
                if not k.startswith("train_")}
    dmc = dest_chip.memctrl
    return dict(
        t_end=sim.now,
        recv_times=recv_times,
        payload_ok=got == payloads,
        stats=stats,
        counters=counters,
        dest_counters=dest_chip.nb.counters.as_dict(),
        dest_mc=(dmc.reads, dmc.writes, dmc.bytes_read, dmc.bytes_written),
        dest_mem=dmc.memory.read(0, 1 << 20),
        events=sim.event_count - e0,
        train_windows=cl.ranks[0].chip.nb.counters.get("train_windows"),
        train_demotions=cl.ranks[0].chip.nb.counters.get("train_demotions"),
        slot_windows=flow_counters(sim).slot_windows,
    )


_COMPARED = ("t_end", "recv_times", "payload_ok", "stats", "counters",
             "dest_counters", "dest_mc", "dest_mem")


def assert_equivalent(slow, fast):
    assert slow["payload_ok"] and fast["payload_ok"]
    for key in _COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


# ---------------------------------------------------------------------------
# Clean path: spans promote, commit spans run to finalize undisturbed
# ---------------------------------------------------------------------------

def test_clean_exchange_exact():
    slow = run_exchange(fast=False)
    fast = run_exchange(fast=True)
    assert_equivalent(slow, fast)
    assert fast["slot_windows"] >= 2, "slot coalescing never engaged"
    assert fast["train_windows"] >= 2, "spans never rode a train"
    assert fast["train_demotions"] == 0
    assert slow["slot_windows"] == 0
    assert fast["events"] < slow["events"] * 0.5, (
        f"flow fidelity saved too little: {slow['events']} -> {fast['events']}"
    )


@pytest.mark.parametrize("msg_bytes", [168, 616, 3640])
def test_clean_exchange_sizes_exact(msg_bytes):
    slow = run_exchange(fast=False, msg_bytes=msg_bytes)
    fast = run_exchange(fast=True, msg_bytes=msg_bytes)
    assert_equivalent(slow, fast)


# ---------------------------------------------------------------------------
# Seeded fuzz: foreign events at random instants force span demotion
# ---------------------------------------------------------------------------

def _fuzz_cases(seed, n, kinds=("submit", "send", "ber")):
    rng = random.Random(seed)
    for _ in range(n):
        yield rng.choice(kinds), round(rng.uniform(1.0, 6500.0), 2)


@pytest.mark.parametrize("seed", [3, 11, 77])
def test_flow_demotion_fuzz_oracle(seed):
    for kind, t_off in _fuzz_cases(seed, 4):
        slow = run_exchange(fast=False, kind=kind, t_off=t_off)
        fast = run_exchange(fast=True, kind=kind, t_off=t_off)
        try:
            assert_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(6)))
def test_flow_demotion_fuzz_oracle_deep(seed):
    for kind, t_off in _fuzz_cases(seed + 500, 10):
        slow = run_exchange(fast=False, kind=kind, t_off=t_off)
        fast = run_exchange(fast=True, kind=kind, t_off=t_off)
        try:
            assert_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


def test_mid_commit_demotion_exact():
    # ~1200 ns in: the first message's train is serializing and the commit
    # span holds applied-but-unflushed lines; a foreign submit on the
    # sender demotes both, materializing in-flight commits as real
    # calendar entries and re-arming the classic chain for the tail.
    slow = run_exchange(fast=False, kind="submit", t_off=1200.0)
    fast = run_exchange(fast=True, kind="submit", t_off=1200.0)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] >= 1, "disturbance never demoted a train"


# ---------------------------------------------------------------------------
# ReadFlow: coherent remote read/response chains (single-board prototype,
# node0 reading node1's DRAM slice over the coherent fabric link)
# ---------------------------------------------------------------------------

M256 = 256 * MiB


def run_read_exchange(fast, nlines=24, kind=None, t_off=None):
    """node0's core reads ``nlines`` cachelines of node1 memory (a chain
    of same-route coherent fabric reads); optional foreign disturbance
    ``t_off`` ns after the reads start."""
    proto = build_single_board_prototype()
    sim = proto.sim
    sim.features.adaptive_fidelity = fast
    proto.boot()
    node0, node1 = proto.node0, proto.node1
    link = proto.coherent_link
    binding = node0.ports[3]

    rng = random.Random(0xBEAD)
    payload = rng.randbytes(nlines * 64)
    node1.memory.write(0x40000, payload)
    addr = M256 + 0x40000

    got = {}

    def reader():
        got["data"] = yield from node0.cores[0].load(addr, nlines * 64)

    def disturb():
        if kind == "submit":
            # A foreign posted write to node1 crosses the same link.
            node0.nb.submit_posted(M256 + 0x700000, b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(M256 + 0x700000, b"\x5a" * 64,
                                    unitid=node0.nb.nodeid, coherent=True)
            if not link.try_send(binding.side, pkt):
                link.send(binding.side, pkt)
        elif kind == "ber":
            link.ber = 1e-6
            link.ber = 0.0
        elif kind == "stall":
            # Credit theft (the injector's CREDIT_STALL), inline.
            link.demote_macros()
            stolen = []
            for d in link._dirs.values():
                for pool in d.credits.values():
                    n = 0
                    while pool.try_take():
                        n += 1
                    if n:
                        stolen.append((pool, n))

            def _restore():
                for pool, n in stolen:
                    pool.give(n)

            sim.schedule(200.0, _restore)

    if kind is not None:
        sim.schedule(t_off, disturb)
    e0 = sim.event_count
    done = sim.process(reader())
    sim.run_until_event(done)
    sim.run()

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    mc1 = node1.memctrl
    fl = flow_counters(sim)
    return dict(
        t_end=sim.now,
        payload_ok=got.get("data") == payload,
        stats=stats,
        counters={k: v for k, v in node0.nb.counters.as_dict().items()
                  if not k.startswith("train_")},
        dest_counters=node1.nb.counters.as_dict(),
        dest_mc=(mc1.reads, mc1.writes, mc1.bytes_read, mc1.bytes_written),
        dest_mem=mc1.memory.read(0, 1 << 20),
        events=sim.event_count - e0,
        read_windows=fl.read_windows,
        read_reads=fl.read_reads,
        read_demotions=fl.read_demotions,
    )


_READ_COMPARED = ("t_end", "payload_ok", "stats", "counters",
                  "dest_counters", "dest_mc", "dest_mem")


def assert_read_equivalent(slow, fast):
    assert slow["payload_ok"] and fast["payload_ok"]
    for key in _READ_COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


def test_clean_read_chain_exact():
    slow = run_read_exchange(fast=False)
    fast = run_read_exchange(fast=True)
    assert_read_equivalent(slow, fast)
    assert fast["read_windows"] >= 1, "read flow never engaged"
    assert fast["read_reads"] == 24, "not every read promoted"
    assert fast["read_demotions"] == 0
    assert slow["read_reads"] == 0
    assert fast["events"] < slow["events"] * 0.7, (
        f"read flow saved too little: {slow['events']} -> {fast['events']}"
    )


def test_default_features_promote_read_flow():
    from repro.sim import SimFeatures

    proto = build_single_board_prototype()
    sim = proto.sim
    assert sim.features == SimFeatures()
    proto.boot()
    payload = random.Random(0xBEAD).randbytes(16 * KiB)
    proto.node1.memory.write(0x40000, payload)
    got = {}

    def reader():
        got["data"] = yield from proto.node0.cores[0].load(
            M256 + 0x40000, len(payload))

    sim.run_until_event(sim.process(reader()))
    fl = flow_counters(sim)
    assert got["data"] == payload
    assert (fl.read_windows, fl.read_reads, fl.read_demotions) == (1, 256, 0)


@pytest.mark.parametrize("seed", [5, 23, 91])
def test_read_demotion_fuzz_oracle(seed):
    rng = random.Random(seed)
    for _ in range(4):
        kind = rng.choice(("submit", "send", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 4000.0), 2)
        slow = run_read_exchange(fast=False, kind=kind, t_off=t_off)
        fast = run_read_exchange(fast=True, kind=kind, t_off=t_off)
        try:
            assert_read_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(4)))
def test_read_demotion_fuzz_oracle_deep(seed):
    rng = random.Random(seed + 900)
    for _ in range(10):
        kind = rng.choice(("submit", "send", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 4000.0), 2)
        slow = run_read_exchange(fast=False, kind=kind, t_off=t_off)
        fast = run_read_exchange(fast=True, kind=kind, t_off=t_off)
        try:
            assert_read_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


# ---------------------------------------------------------------------------
# Fault oracle: a reliable msglib stream across a link flap or a crash
# ---------------------------------------------------------------------------

def run_fault_stream(fast, topo, plan, cfg, nmsgs=240, msg_bytes=256):
    """A reliable rank 0 -> rank 1 stream of ``nmsgs`` messages under the
    fault ``plan``; the sender retries a send that hits its deadline and
    the receiver drops duplicates by message index.  Returns the end
    time and whether every message arrived once, in order."""
    from repro.faults import FaultInjector
    from repro.msglib import TransportError

    sys_ = TCClusterSystem(topo, msg_cfg=MsgConfig(**cfg),
                           memory_bytes=64 * MiB)
    sys_.sim.features.flow_fidelity = fast
    sys_.boot()
    sim = sys_.sim
    FaultInjector(sys_.cluster, plan).arm(on_conflict="skip")
    tx_ep, rx_ep = sys_.connect(0, 1)
    rng = random.Random(0xFA17)
    msgs = [i.to_bytes(4, "little") + rng.randbytes(msg_bytes - 4)
            for i in range(nmsgs)]
    got = []

    def tx():
        for m in msgs:
            for _ in range(8):
                try:
                    yield from tx_ep.send(m)
                    break
                except TransportError:
                    pass

    def rx():
        while len(got) < len(msgs):
            try:
                m = yield from rx_ep.recv()
            except TransportError:
                continue
            if int.from_bytes(m[:4], "little") == len(got):
                got.append(m)

    ps = [sim.process(tx()), sim.process(rx())]
    sim.run_until_event(sim.all_of(ps))
    return dict(t_end=sim.now, delivered=got == msgs,
                slot_windows=flow_counters(sim).slot_windows)


def _fault_stream_cases():
    from repro.faults import FaultKind, FaultPlan
    from repro.topology import chain, ring

    reliable = dict(send_deadline_ns=1e7, recv_deadline_ns=4e7)
    crash = dict(send_deadline_ns=2e5, recv_deadline_ns=5e5)
    flap = FaultPlan().add(8_000.0, FaultKind.LINK_FLAP, 0,
                           duration_ns=20_000.0)
    why = ("slot spans ride a BulkTrain whose demotion on bring_down is "
           "not exact: ")
    return [
        pytest.param(chain(2), flap, reliable, id="flap.chain2",
                     marks=pytest.mark.xfail(strict=True, reason=why + (
                         "ends at 222147.75 ns with flows vs 222146.75 ns "
                         "per-packet"))),
        pytest.param(ring(3), flap, reliable, id="flap.ring3",
                     marks=pytest.mark.xfail(strict=True, reason=why + (
                         "ends at 222157.75 ns with flows vs 222156.75 ns "
                         "per-packet"))),
        pytest.param(chain(2),
                     FaultPlan().add(2_000.0, FaultKind.NODE_CRASH, 1)
                                .add(400_000.0, FaultKind.NODE_WARM_RESET, 1),
                     crash, id="crash.chain2",
                     marks=pytest.mark.xfail(strict=True, reason=why + (
                         "ends at 623006.75 ns with flows vs 623201.5 ns "
                         "per-packet"))),
    ]


@pytest.mark.parametrize("topo,plan,cfg", _fault_stream_cases())
def test_fault_stream_matches_per_packet(topo, plan, cfg):
    slow = run_fault_stream(False, topo, plan, cfg)
    fast = run_fault_stream(True, topo, plan, cfg)
    assert slow["delivered"] and fast["delivered"]
    assert fast["slot_windows"] >= 1, "slot coalescing never engaged"
    assert slow["t_end"] == fast["t_end"]
